"""The coordinator's barrier as columns against its per-row oracle.

Three column paths replace per-vertex Python on the coordinator:
:func:`~repro.pregel.migration.arbitrate_columns` (ordering, in-flight
mask, lane metering, filing), the bulk announce
(``MigrationProtocol.announce_moves`` + ``PartitionState.move_many``) and
the routing gather ``PartitionState.partitions_of``.  Each must equal the
per-row code :class:`~repro.pregel.system.PregelSystem` still runs; the
last class pins a whole ``Coordinator`` run against ``PregelSystem`` on
every executor named in ``REPRO_CLUSTER_EXECUTORS``.
"""

import atexit
import math
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.connected_components import ConnectedComponents
from repro.apps.pagerank import PageRank
from repro.cluster import (
    Coordinator,
    InlineExecutor,
    LocalWorkerPool,
    ProcessExecutor,
    SocketExecutor,
)
from repro.core.balance import EdgeBalance, VertexBalance
from repro.core.capacity import QuotaTable
from repro.core.sweep import ActiveSlots
from repro.generators import mesh_3d
from repro.graph import Graph
from repro.graph.events import AddEdge, AddVertex, RemoveEdge, RemoveVertex
from repro.partitioning.base import PartitionState
from repro.pregel.migration import (
    MigrationProtocol,
    ProposalColumns,
    arbitrate_columns,
    arbitrate_proposals,
    sort_proposals,
)
from repro.pregel.network import NetworkStats
from repro.pregel.system import PregelConfig, PregelSystem
from repro.utils import WillingnessSource

try:
    import numpy as np
except ImportError:  # pragma: no cover - numpy is optional
    np = None

needs_numpy = pytest.mark.skipif(np is None, reason="the column paths need numpy")

EXECUTOR_NAMES = [
    name.strip()
    for name in os.environ.get(
        "REPRO_CLUSTER_EXECUTORS", "inline,process,socket"
    ).split(",")
    if name.strip()
]

_POOL = None


def _executor(name):
    global _POOL
    if name == "process":
        return ProcessExecutor(workers=2)
    if name == "socket":
        if _POOL is None:
            _POOL = LocalWorkerPool(2)
            atexit.register(_POOL.close)
        return SocketExecutor(_POOL.addresses)
    return InlineExecutor()


# ----------------------------------------------------------------------
# Arbitration: columns == sort_proposals + arbitrate_proposals
# ----------------------------------------------------------------------

_INTS = st.integers(-(2**40), 2**40)
_LABELS = st.text(alphabet="abcxyz", min_size=1, max_size=3)
_IDS = {
    "int": st.lists(_INTS, unique=True, max_size=60),
    "label": st.lists(_LABELS, unique=True, max_size=60),
    "mixed": st.lists(
        st.one_of(st.integers(0, 500), _LABELS, st.tuples(st.integers(0, 9))),
        unique_by=lambda v: (type(v).__name__, v),
        max_size=60,
    ),
}


@st.composite
def _round(draw, kind):
    """One arbitration round: proposals, in-flight ids, remaining
    capacities (tight or loose), a load per vertex (maybe fractional)."""
    k = draw(st.integers(2, 5))
    vertices = draw(_IDS[kind])
    proposals = []
    for v in vertices:
        current = draw(st.integers(0, k - 1))
        desired = (current + draw(st.integers(1, k - 1))) % k
        proposals.append((v, current, desired, draw(st.booleans())))
    in_flight = [v for v in vertices if draw(st.integers(0, 4)) == 0]
    remaining = draw(st.lists(
        st.one_of(st.integers(-2, 4), st.just(10**6)), min_size=k, max_size=k,
    ))
    fractional = draw(st.booleans())
    loads = {
        v: draw(st.sampled_from((0.25, 0.5, 1.0, 1.5, 3.0))) if fractional
        else 1.0
        for v in vertices
    }
    return k, proposals, in_flight, remaining, loads, draw(st.integers(0, 9))


class _CoarseOrder:
    """Keyed draws rounded down to quarters: nearly every round has tied
    draws, which only the canonical id order may break."""

    def __init__(self):
        self._fine = WillingnessSource(7, "arbitration")

    def draw(self, round_index, vertex):
        return math.floor(self._fine.draw(round_index, vertex) * 4) / 4

    def draw_keys(self, round_index, keys):
        return np.floor(self._fine.draw_keys(round_index, keys) * 4) / 4

    def draw_map(self, round_index, vertices):
        return {v: self.draw(round_index, v) for v in vertices}


def _arbitrate(columns, k, proposals, in_flight, remaining, loads, round_index,
               coarse=False):
    protocol = MigrationProtocol(NetworkStats(), k)
    for v in in_flight:
        protocol._in_flight[v] = (0, 1)
    quotas = QuotaTable(remaining, k)
    order = _CoarseOrder() if coarse else WillingnessSource(7, "arbitration")
    if columns:  # the kept proposers come back as slots: compare ids
        graph = Graph(vertices=[p[0] for p in proposals])
        requested, blocked, kept = arbitrate_columns(
            ProposalColumns.of_rows(proposals), order, round_index, protocol,
            quotas, loads.__getitem__, graph.slots_of,
        )
        result = requested, blocked, set(map(graph.id_of, kept.tolist()))
    else:
        ranked = sort_proposals(
            proposals, priority=lambda v: order.draw(round_index, v)
        )
        result = arbitrate_proposals(
            ranked, protocol, quotas, loads.__getitem__
        )
    consumed = [[quotas.consumed(i, j) for j in range(k)] for i in range(k)]
    return result, protocol._requested, consumed


@needs_numpy
@pytest.mark.parametrize("coarse", [False, True])
@pytest.mark.parametrize("kind", sorted(_IDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_column_arbitration_equals_the_row_oracle(kind, coarse, data):
    args = data.draw(_round(kind)) + (coarse,)
    assert _arbitrate(True, *args) == _arbitrate(False, *args)


@needs_numpy
def test_column_arbitration_binds_and_skips_the_in_flight():
    """A hand-checked round: one lane binds, in-flight rows drop out."""
    proposals = [(v, 0, 1, v != 3) for v in range(8)]
    args = (2, proposals, [5], [0, 3], {v: 1.0 for v in range(8)}, 4)
    (requested, blocked, kept), filed, _ = _arbitrate(True, *args)
    assert (requested, blocked) == (7, 3)
    assert kept == {0, 1, 2, 3, 4, 6, 7}
    assert len(filed) == 3 and 5 not in {v for v, _, _ in filed}
    assert _arbitrate(True, *args) == _arbitrate(False, *args)
    assert _arbitrate(True, 2, [], [], [1, 1], {}, 0)[0] == (0, 0, set())


# ----------------------------------------------------------------------
# Bulk announce == the per-vertex _placement_update loop
# ----------------------------------------------------------------------


def _ring_with_chords(n, labels):
    name = (lambda i: f"v{i:03d}") if labels else (lambda i: i)
    edges = [(name(i), name((i + d) % n)) for i in range(n) for d in (1, 2)]
    return Graph(edges=edges)


def _announce_pair(labels, balance, requests_of, unassign=()):
    """Two identical coordinators; one announces per vertex, one in bulk."""
    systems = []
    for _ in range(2):
        graph = _ring_with_chords(40, labels)
        config = PregelConfig(num_workers=4, seed=5, balance=balance)
        system = Coordinator(graph, PageRank(), config, executor="inline")
        for v in unassign:
            system.state.remove_vertex(v)
        system.metrics.rebuild()
        system._active = (
            ActiveSlots.of(graph, []) if not systems else set()
        )  # the bulk announce marks a mask, the per-vertex loop a set
        system._dirty.clear()
        rows = requests_of(system)
        if rows:
            system.migration.request_many(*zip(*rows))
        systems.append(system)
    bulk, loop = systems
    bulk_announced = bulk._announce_migrations()
    loop_announced = PregelSystem._announce_migrations(loop)
    return bulk, loop, bulk_announced, loop_announced


def _observable(system):
    state = system.state
    return (
        dict(state.assignment_items()),
        state.sizes,
        state.cut_edges,
        list(state.partition_column()),
        system.metrics.loads,
        set(system._active),
        system._dirty,
        system._placement_log,
        system.migration._in_flight,
        system.network.current.migration_notifications,
    )


@needs_numpy
@pytest.mark.parametrize("labels", [False, True])
@pytest.mark.parametrize("balance", [VertexBalance(), EdgeBalance()])
def test_bulk_announce_equals_the_per_vertex_loop(labels, balance):
    def requests(system):
        rng = random.Random(11)
        order = list(system.graph.vertices())
        rows = []
        # Adjacent movers (ring neighbours) exercise the halved
        # mover–mover entries; every fourth vertex stays put.
        for i, v in enumerate(order[:24]):
            if i % 4 == 3 or v not in system.state:
                continue
            old = system.state.partition_of(v)
            rows.append((v, old, (old + rng.randrange(1, 4)) % 4))
        return rows

    name = "v005" if labels else 5
    bulk, loop, a, b = _announce_pair(labels, balance, requests, (name,))
    try:
        assert a == b and a
        assert _observable(bulk) == _observable(loop)
        bulk.state.validate()
        bulk.metrics.cross_check()
    finally:
        bulk.close()
        loop.close()


@needs_numpy
def test_an_empty_announce_counts_no_notification():
    bulk, loop, a, b = _announce_pair(False, VertexBalance(), lambda s: [])
    try:
        assert a == b == []
        assert _observable(bulk) == _observable(loop)
    finally:
        bulk.close()
        loop.close()


@needs_numpy
@settings(max_examples=60, deadline=None)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 29), st.integers(0, 29)).filter(
            lambda e: e[0] != e[1]
        ),
        max_size=90,
    ),
    unassigned=st.sets(st.integers(0, 29), max_size=5),
    moves=st.dictionaries(st.integers(0, 29), st.integers(0, 3), max_size=30),
)
def test_move_many_equals_sequential_moves(edges, unassigned, moves):
    """Any batch, no-op moves included: the same assignment, sizes, cut
    and column as one ``move`` per vertex."""
    graph = Graph(edges=edges, vertices=range(30))
    states = []
    for _ in range(2):
        state = PartitionState(graph, 4)
        for v in range(30):
            if v not in unassigned:
                state.assign(v, v % 4)
        states.append(state)
    bulk, loop = states
    movers = [v for v in moves if v not in unassigned]
    old = bulk.move_many(movers, [moves[v] for v in movers])
    assert old.tolist() == [loop.partition_of(v) for v in movers]
    for v in movers:
        loop.move(v, moves[v])
    assert dict(bulk.assignment_items()) == dict(loop.assignment_items())
    assert (bulk.sizes, bulk.cut_edges) == (loop.sizes, loop.cut_edges)
    assert list(bulk.partition_column()) == list(loop.partition_column())
    bulk.validate()


@needs_numpy
def test_move_many_rejects_what_move_rejects():
    graph = Graph(edges=[(0, 1), (1, 2)])
    state = PartitionState(graph, 2)
    state.assign(0, 0)
    state.assign(1, 1)
    with pytest.raises(ValueError):
        state.move_many([0], [2])
    with pytest.raises(KeyError):
        state.move_many([2], [0])  # in the graph, never assigned
    assert state.move_many([], []).tolist() == []


# ----------------------------------------------------------------------
# partitions_of: the routing gather
# ----------------------------------------------------------------------


@needs_numpy
def test_partitions_of_covers_every_absent_shape():
    graph = Graph(edges=[(0, 1), (1, 2), (2, 3), (3, 4)])
    state = PartitionState(graph, 3)
    for v in range(4):  # vertex 4 stays unassigned
        state.assign(v, v % 3)
    state.remove_vertex(2)
    graph.remove_vertex(2)
    assert graph.id_table() is not None
    ids = [0, 1, 2, 3, 4, -1, -(2**40), 10**6, 99]
    want = [0, 1, -1, 0, -1, -1, -1, -1, -1]
    assert state.partitions_of(ids).tolist() == want
    assert state.partitions_of(np.array(ids, dtype=np.int64)).tolist() == want
    # Non-int queries against a live table take the dict path.
    assert state.partitions_of([1, "x", 2.5, True, 2**70]).tolist() == [
        1, -1, -1, 1, -1,
    ]
    assert state.partitions_of([]).tolist() == []


@needs_numpy
def test_partitions_of_after_the_id_table_retires():
    graph = Graph(edges=[(0, 1), ("a", 1)])
    state = PartitionState(graph, 2)
    state.assign(0, 0)
    state.assign("a", 1)
    assert graph.id_table() is None
    assert state.partitions_of([0, 1, "a", "b", -3]).tolist() == [
        0, -1, 1, -1, -1,
    ]
    assert state.partitions_of(np.array([0, 1, 7])).tolist() == [0, -1, -1]


# ----------------------------------------------------------------------
# End to end: Coordinator == PregelSystem, binding quotas and churn
# ----------------------------------------------------------------------


def _churned(program, labels, system_cls, **kwargs):
    name = (lambda i: f"n{i}") if labels else (lambda i: i)
    graph = mesh_3d(5)
    if labels:
        graph = Graph(edges=[(name(u), name(v)) for u, v in graph.edges()])
    # slack 1.0: the quota lanes bind from the first superstep on.
    config = PregelConfig(
        num_workers=4, seed=9, quiet_window=5, balance=VertexBalance(slack=1.0)
    )
    system = system_cls(graph, program, config, **kwargs)
    batches = {
        2: [AddVertex(name(900)), AddEdge(name(900), name(0)),
            RemoveVertex(name(62)), AddEdge(name(901), name(7))],
        5: [RemoveEdge(name(0), name(1)), RemoveVertex(name(901)),
            AddEdge(name(900), name(30))],
        # A removal and a fresh vertex in one barrier: the newcomer takes
        # the removed vertex's recycled slot.
        7: [RemoveVertex(name(40)), AddEdge(name(902), name(41))],
    }
    return system, batches


def _digest(system):
    return [
        (r.migrations_requested, r.migrations_announced, r.migrations_blocked,
         r.cut_edges, tuple(r.sizes), r.traffic.local_messages,
         r.traffic.remote_messages, r.traffic.migration_notifications)
        for r in system.reports
    ]


@pytest.mark.parametrize("executor_name", EXECUTOR_NAMES)
@pytest.mark.parametrize("labels", [False, True])
def test_coordinator_equals_the_oracle_under_binding_quotas(
    executor_name, labels
):
    serial, batches = _churned(ConnectedComponents(), labels, PregelSystem)
    clustered, _ = _churned(
        ConnectedComponents(), labels, Coordinator,
        executor=_executor(executor_name),
    )
    with clustered:
        for step in range(9):
            for system in (serial, clustered):
                system.inject_events(batches.get(step, []))
                system.run_superstep()
            clustered.shard_consistency_check()
            assert set(clustered._active) == serial._active, step
        assert _digest(clustered) == _digest(serial)
        assert any(r.migrations_blocked for r in serial.reports)
        assert dict(clustered.state.assignment_items()) == dict(
            serial.state.assignment_items()
        )
        assert clustered.values == serial.values
        clustered.metrics.cross_check()


def test_consistency_check_catches_residency_drift():
    """Shards and the residency map agree, the placement does not: only
    the residency == placement assertion can see it (no placement mirror
    on a non-adaptive run)."""
    config = PregelConfig(num_workers=3, adaptive=False)
    with Coordinator(mesh_3d(3), PageRank(), config, executor="inline") as system:
        system.run(2)
        system.shard_consistency_check()
        vertex = next(iter(system.graph.vertices()))
        system.state.move(vertex, (system.state.partition_of(vertex) + 1) % 3)
        with pytest.raises(AssertionError, match="placed on partition"):
            system.shard_consistency_check()
