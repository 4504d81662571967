"""The array-native shard store against the dict shard it must reproduce.

A :class:`~repro.cluster.shard.Shard` whose data fits the gate keeps its
whole state in slot-indexed arrays (``shard.store``); everything else is
the dict shard.  The dict shard is the oracle here: a hypothesis state
machine drives one shard of each kind through the same random patch
sequences — upserts of residents and newcomers, evictions, evict +
readmit in one patch, moves, removals, duplicate ids in one placement
delta, and the non-conforming arrivals (a label id, an ``int`` value or
record component) that demote the store — and after every step requires
identical ``snapshot()``s (values to the bit, compute order, adjacency
order, halt votes, mirror) and, after every superstep, identical
``ShardDelta``s field by field.  After a demotion the pair keeps running:
the run must continue byte-identically.  Every snapshot is also *restored*:
``apply_patch(snapshot())`` into a fresh shard must give an equal snapshot
— typed, listed, and across each named demotion — and cross the wire whole.

The pair runs once per column shape: float64 (PageRank), int64
(components) and two-wide float64 *records* (the combined cardiac FEM
program, whose values and messages are both tuples).

Also pinned by example: the three order rules (compute order is admission
order, adjacency order is the patch's, a later delta entry wins), the
named demotion reasons, the seeding path of the coordinator (shards fill
on their host, on every executor), the adjacency self-check and the FEM
cross-executor matrix.
"""

import struct
from functools import partial

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.apps.connected_components import ConnectedComponents
from repro.apps.fem_simulation import (
    CardiacFemSimulation,
    CombinedCardiacFemSimulation,
)
from repro.apps.maximal_clique import MaximalCliqueFinder
from repro.apps.pagerank import PageRank
from repro.cluster import (
    Coordinator,
    InlineExecutor,
    LocalWorkerPool,
    SocketExecutor,
    wire,
)
from repro.cluster import shard as shard_module
from repro.cluster.shard import PatchColumns, Shard, ShardTask
from repro.core.heuristic import DecisionContext, GreedyMaxNeighbours
from repro.core.sweep import record_shape, sort_vertices
from repro.generators import mesh_3d
from repro.graph import Graph
from repro.pregel.messages import MessageColumns
from repro.pregel.system import PregelConfig

try:
    import numpy as np
except ImportError:  # the numpy-free CI leg: no array store to test
    pytest.skip("numpy not installed", allow_module_level=True)

K = 3  # partitions the placement mirror speaks of
IDS = st.integers(0, 40)
POTENTIALS = st.one_of(st.floats(-2.0, -1e-3), st.floats(1e-3, 2.0))
# name -> (program, column dtype, continuous, value = message strategy)
PROGRAMS = {
    "pagerank": (PageRank, "float64", True,
                 st.floats(1e-6, 1.0, allow_nan=False)),
    "components": (ConnectedComponents, "int64", False, st.integers(0, 60)),
    "fem": (partial(CombinedCardiacFemSimulation, stimulus_vertices=(3, 7)),
            "float64", True, st.tuples(POTENTIALS, POTENTIALS)),
}


def dict_shard(monkeypatch, *args, **kwargs):
    """The oracle: a shard built while the store gate says no starts (and
    stays) on dict state and runs the scalar loop — same program, kernel
    unused — so its deltas carry the dict shapes."""
    with monkeypatch.context() as off:
        off.setattr(shard_module, "store_dtype", lambda program: None)
        shard = Shard(*args, **kwargs)
    assert shard.store is None
    return shard


def patch(upserts=None, removes=(), placement_delta=(), dtype=None, width=1):
    """A patch literal as the coordinator would ship it: ``upserts`` maps
    vertex → ``(value, neighbours, halted)``, ``placement_delta`` lists
    ``(vertex, pid | None)``; typed when ``dtype`` is given and it fits."""
    placed = (
        [vertex for vertex, _ in placement_delta],
        [-1 if pid is None else pid for _, pid in placement_delta],
    )
    rows = list(zip(*(upserts or {}).values())) or [(), (), ()]
    return PatchColumns.pack(
        list(upserts or {}), *rows, list(removes), placed,
        None if dtype is None else np.dtype(dtype), width,
    )


def bits(value):
    if type(value) is tuple:
        return tuple(map(bits, value))
    return struct.pack("<d", value) if type(value) is float else value


def plain(snapshot):
    """A snapshot as listed columns, values typed and floats as bit
    patterns — everything a restore must reproduce, in order."""
    state = snapshot.listed()
    return {
        **vars(state), "values": [(type(x), bits(x)) for x in state.values],
    }


def dict_shapes(delta):
    """A delta's ``(values, outbox)`` in the scalar loop's shapes — a
    store's :class:`MessageColumns` read through their dict-plane views —
    with every payload as its bits."""
    values, outbox = delta.values, delta.outbox
    if isinstance(values, MessageColumns):
        values = dict(values.items())
    if isinstance(outbox, MessageColumns):
        outbox = outbox.entries(delta.shard_id)
    return (
        [(v, bits(x)) for v, x in values.items()],
        [(key, bits(x)) for key, x in outbox],
    )


def assert_same_delta(got, want):
    """``got`` (from a store, or what it demoted to) ships what the dict
    shard ``want`` ships, shapes normalised; only a store batches."""
    for name in ("shard_id", "computed", "halted_added", "halted_removed",
                 "aggregated", "proposals"):
        assert getattr(got, name) == getattr(want, name), name
    assert bits(got.compute_units) == bits(want.compute_units)
    assert dict_shapes(got) == dict_shapes(want)
    assert want.batched_blocks == 0
    assert got.batched_blocks == isinstance(got.values, MessageColumns)


class ShardPair(RuleBasedStateMachine):
    """One array shard and one dict shard fed the same history."""

    program_name = "pagerank"

    def __init__(self):
        super().__init__()
        program_cls, self.dtype, continuous, self.value_st = PROGRAMS[
            self.program_name
        ]
        self.monkeypatch = pytest.MonkeyPatch()
        program = program_cls()
        self.width = program.value_width  # == message_width on every pair
        self.args = (1, program, program.combiner(), continuous)
        self.store, self.oracle = self._fresh(), self._fresh(array=False)
        assert self.store.store is not None
        self.residents = {}   # vertex -> neighbours, in admission order
        self.superstep = 0
        self.demoted = False

    def teardown(self):
        self.monkeypatch.undo()

    def _fresh(self, array=True):
        if array:
            return Shard(*self.args, heuristic=GreedyMaxNeighbours())
        return dict_shard(
            self.monkeypatch, *self.args, heuristic=GreedyMaxNeighbours()
        )

    # -- patches ---------------------------------------------------------

    def _apply(self, upserts=None, removes=(), placement_delta=()):
        """The same literal to both: typed (if it fits) to the store
        shard, listed to the oracle."""
        shipped = patch(
            upserts, removes, placement_delta, self.dtype, self.width
        )
        if not shipped.typed:
            self.demoted = True
        self.store.apply_patch(shipped)
        self.oracle.apply_patch(patch(upserts, removes, placement_delta))
        for vertex in removes:
            self.residents.pop(vertex, None)
        for vertex, (_, neighbours, _) in (upserts or {}).items():
            self.residents[vertex] = neighbours

    @initialize(data=st.data())
    def seed(self, data):
        ids = data.draw(st.lists(IDS, min_size=3, max_size=12, unique=True))
        self._apply(
            upserts={v: self._row(data, ids) for v in ids},
            placement_delta=[(v, v % K) for v in range(41)],
        )

    def _row(self, data, known):
        return (
            data.draw(self.value_st),
            tuple(data.draw(st.lists(
                st.sampled_from(sort_vertices(known)), max_size=4, unique=True
            ))),
            data.draw(st.booleans()),
        )

    @rule(data=st.data())
    def patch(self, data):
        """Upserts (resident or new), evictions, evict + readmit, and a
        placement delta with moves, removals and duplicate ids."""
        known = sort_vertices(set(self.residents) | {0, 1, 2})
        removes = data.draw(st.lists(
            st.sampled_from(sort_vertices(self.residents) or [0]),
            max_size=3, unique=True,
        ))
        upserted = data.draw(st.lists(
            st.one_of(IDS, st.sampled_from(known)), max_size=5, unique=True
        ))
        readmitted = [v for v in removes if data.draw(st.booleans())]
        upserts = {
            v: self._row(data, known)
            for v in sort_vertices(set(upserted) | set(readmitted))
        }
        delta = data.draw(st.lists(
            st.tuples(IDS, st.one_of(st.none(), st.integers(0, K - 1))),
            max_size=8,
        ))
        self._apply(upserts, removes, delta)

    @precondition(lambda self: not self.demoted)
    @rule(data=st.data(), poison=st.sampled_from(
        ["label id", "label neighbour", "label in delta", "wrong value type"]
    ))
    def demote(self, data, poison):
        """A non-conforming arrival: the store takes dicts, one way."""
        known = sort_vertices(self.residents) or [0]
        value, neighbours, halted = self._row(data, known)
        if poison == "label id":
            self._apply({"late": (value, neighbours, halted)})
        elif poison == "label neighbour":
            self._apply({7: (value, (*neighbours, "late"), halted)})
        elif poison == "label in delta":
            self._apply(placement_delta=[("late", 0), (3, 1)])
        elif self.width > 1:  # an int inside the record (still computable)
            odd = (int(value[0]), *value[1:])
            self._apply({7: (odd, neighbours, halted)})
        else:
            odd = int(value) if self.dtype == "float64" else float(value)
            self._apply({7: (odd, neighbours, halted)})
        assert self.demoted and self.store.store is None

    # -- supersteps ------------------------------------------------------

    @rule(data=st.data())
    def superstep_(self, data):
        self.superstep += 1
        mailed = sorted(
            v for v in self.residents
            if type(v) is int and data.draw(st.booleans())
        )
        payloads = [data.draw(self.value_st) for _ in mailed]
        counts = [data.draw(st.integers(1, 3)) for _ in mailed]
        inbox = MessageColumns(
            np.array(mailed, dtype=np.int64),
            np.array(payloads, dtype=self.dtype).reshape(
                record_shape(len(mailed), self.width)
            ),
            np.array(counts, dtype=np.int64),
        )
        if data.draw(st.booleans()):
            inbox = inbox.mailboxes()  # the dict plane
        candidates = None
        if data.draw(st.booleans()):
            candidates = tuple(
                v for v in self.residents if data.draw(st.booleans())
            )
        task = ShardTask(
            superstep=self.superstep,
            inbox=inbox,
            num_vertices=41,
            agg_previous={},
            decision=DecisionContext(
                round_index=self.superstep, remaining=(5.0,) * K,
                willingness=0.6, lane=99,
            ),
            candidates=candidates,
        )
        got = self.store.run_superstep(task)
        want = self.oracle.run_superstep(task)
        assert_same_delta(got, want)
        if got.demotion:
            self.demoted = True
        assert (self.store.store is None) == self.demoted

    # -- what must hold after every step -----------------------------------

    @invariant()
    def snapshots_agree(self):
        if self.superstep or self.residents:
            snapshot = self.store.snapshot()
            assert snapshot.typed != self.demoted
            state = snapshot.listed()
            assert plain(state) == plain(self.oracle.snapshot())
            assert len(self.store) == len(self.oracle) == len(self.residents)
            assert state.ids == list(self.residents)  # admission order
            flat = iter(state.neighbours)  # ... each row in patch order
            assert [
                tuple(next(flat) for _ in range(degree))
                for degree in state.degrees
            ] == list(self.residents.values())

    @invariant()
    def snapshots_restore(self):
        """``apply_patch(snapshot())`` into a fresh shard reproduces the
        snapshot — typed into a store, listed into dict state, and a
        demoted shard's listed one through a fresh store's own demotion —
        and the record survives the wire."""
        for shard, array in ((self.store, True), (self.oracle, False)):
            snapshot = shard.snapshot()
            restored = self._fresh(array)
            restored.apply_patch(snapshot)
            assert (restored.store is not None) == snapshot.typed
            assert restored.snapshot() == snapshot
            assert plain(restored.snapshot()) == plain(snapshot)
            assert plain(wire.loads(wire.dumps(snapshot))) == plain(snapshot)
            assert wire.loads(wire.dumps(snapshot)).typed == snapshot.typed

    @invariant()
    def one_representation(self):
        store = self.store
        if store.store is not None:
            state = vars(store)
            assert not any(
                state[name] for name in ("values", "halted", "_adj", "placement")
            )
        else:
            assert store.index is None or store.index.values is None


class ComponentsPair(ShardPair):
    program_name = "components"


class FemPair(ShardPair):
    program_name = "fem"


STATEFUL = settings(
    max_examples=60, stateful_step_count=12, deadline=None, derandomize=True
)
TestPageRankPair = ShardPair.TestCase
TestPageRankPair.settings = STATEFUL
TestComponentsPair = ComponentsPair.TestCase
TestComponentsPair.settings = STATEFUL
TestFemPair = FemPair.TestCase
TestFemPair.settings = STATEFUL


# ----------------------------------------------------------------------
# The order rules, by example
# ----------------------------------------------------------------------


def _store_shard(program=None, heuristic=None):
    program = program or PageRank()
    shard = Shard(0, program, program.combiner(), True, heuristic=heuristic)
    assert shard.store is not None
    return shard


def _patch(upserts=None, removes=(), delta=()):
    columns = patch(
        {
            v: (value, tuple(neighbours), False)
            for v, (value, neighbours) in (upserts or {}).items()
        },
        removes, delta, "float64",
    )
    assert columns.typed
    return columns


def _run(shard, superstep=1):
    return shard.run_superstep(ShardTask(
        superstep=superstep, inbox={}, num_vertices=10, agg_previous={}
    ))


def test_compute_order_is_admission_order_not_slot_order():
    """Neighbours and the mirror intern slots before residents do, so slot
    order says nothing about compute order; an upsert of a resident keeps
    its row, evict-then-readmit moves it to the end."""
    shard = _store_shard(heuristic=GreedyMaxNeighbours())
    # The mirror interns 0..9 first: slot order is id order from here on.
    shard.apply_patch(_patch(delta=[(v, 0) for v in range(10)]))
    shard.apply_patch(_patch({7: (0.7, [2]), 2: (0.2, [7, 5]), 5: (0.5, [])}))
    assert _run(shard).values.targets.tolist() == [7, 2, 5]
    shard.apply_patch(_patch({2: (0.25, [5])}))  # upsert: keeps its row
    assert _run(shard).values.targets.tolist() == [7, 2, 5]
    shard.apply_patch(_patch({7: (0.75, [2])}, removes=[7]))  # readmit: last
    assert shard.snapshot().ids.tolist() == [2, 5, 7]
    assert _run(shard).values.targets.tolist() == [2, 5, 7]
    shard.apply_patch(_patch(removes=[5]))
    shard.apply_patch(_patch({5: (0.5, [])}))  # ... across two patches too
    assert shard.snapshot().ids.tolist() == [2, 7, 5]
    assert len(shard) == 3


def test_adjacency_order_is_the_patch_order():
    """First-send order of the outbox is the neighbour order the patch
    carried — never sorted, never slot order."""
    shard = _store_shard()
    shard.apply_patch(_patch({1: (0.5, [9, 3, 6]), 3: (0.5, [1])}))
    assert _run(shard).outbox.targets.tolist() == [9, 3, 6, 1]
    shard.apply_patch(_patch({1: (0.5, [6, 9])}))
    assert _run(shard).outbox.targets.tolist() == [6, 9, 1]


def test_a_later_delta_entry_wins_and_remove_then_place_replaces():
    shard = _store_shard(heuristic=GreedyMaxNeighbours())
    shard.apply_patch(_patch(delta=[
        (4, 0), (5, 1), (4, 2),            # a later entry wins
        (6, 1), (6, None),                 # place then remove: gone
        (7, None), (7, 2),                 # remove then place: re-placed
        (8, None), (8, None),              # removing twice is removing once
    ]))
    mirror = shard.snapshot()
    assert mirror.placed_ids.tolist() == [4, 5, 7]  # ascending, placed only
    assert mirror.placed_pids.tolist() == [2, 1, 2]


class _DecliningAtThree(PageRank):
    """A kernel that declines one superstep: the scalar loop must run."""

    def compute(self, ctx, messages):
        super().compute(ctx, messages)

    def compute_batch(self, block):
        if block.superstep == 3:
            return None
        return super().compute_batch(block)


def test_a_declined_block_demotes_inside_the_superstep(monkeypatch):
    """Nothing was committed when the kernel declined, so the store turns
    into dicts mid-superstep and the scalar loop takes the block — same
    delta as the dict shard's, one demotion reported, none afterwards."""
    program = _DecliningAtThree()
    args = (0, program, program.combiner(), True)
    store = Shard(*args)
    oracle = dict_shard(monkeypatch, *args)
    seed = {
        v: (0.1 * (v + 1), ((v + 1) % 6, (v + 4) % 6), False) for v in range(6)
    }
    store.apply_patch(patch(seed, dtype="float64"))
    oracle.apply_patch(patch(seed))
    demotions = []
    for superstep in range(1, 6):
        got, want = _run(store, superstep), _run(oracle, superstep)
        assert_same_delta(got, want)
        assert plain(store.snapshot()) == plain(oracle.snapshot())
        demotions.append(got.demotion)
        assert (store.store is None) == (superstep >= 3)
    assert demotions == ["", "", "kernel-declined", "", ""]


def test_every_demotion_names_the_gate_it_fell_through(monkeypatch):
    """``patch-shape``: a patch that is not columns of the store's width;
    ``inbox-dtype``: messages of another width than the kernel's; the declined
    block above is ``kernel-declined`` — each demotes once, into the same
    delta the dict shard produces."""
    program = CombinedCardiacFemSimulation()
    args = (0, program, program.combiner(), True)
    rows = {
        v: ((-1.2 + 0.1 * v, -0.6), ((v + 1) % 4, (v + 3) % 4), False)
        for v in range(4)
    }

    def pair():
        store, oracle = Shard(*args), dict_shard(monkeypatch, *args)
        store.apply_patch(patch(rows, dtype="float64", width=2))
        oracle.apply_patch(patch(rows))
        assert store.store is not None and store.store.values.shape[1:] == (2,)
        return store, oracle

    def step(store, oracle, inbox):
        task = ShardTask(
            superstep=2, inbox=inbox, num_vertices=4, agg_previous={}
        )
        got, want = store.run_superstep(task), oracle.run_superstep(task)
        assert_same_delta(got, want)
        assert store.store is None
        assert plain(store.snapshot()) == plain(oracle.snapshot())
        return got.demotion

    store, oracle = pair()
    scalar = {9: (0.5, (0,), False)}
    assert not patch(scalar, dtype="float64", width=2).typed
    store.apply_patch(patch(scalar, dtype="float64"))  # width-1 columns
    oracle.apply_patch(patch(scalar))
    assert store.store is None and store._demotion == "patch-shape"
    assert plain(store.snapshot()) == plain(oracle.snapshot())
    store, oracle = pair()
    # Mail the scalar loop can read but the kernel's width-2 column cannot
    # hold (a third component), on either plane.
    assert step(store, oracle, {1: [(0.25, 1.0, 9.0)]}) == "inbox-dtype"
    store, oracle = pair()
    assert step(store, oracle, MessageColumns(
        np.array([1], dtype=np.int64), np.array([[0.25, 1.0, 9.0]]),
        np.array([2], dtype=np.int64),
    )) == "inbox-dtype"


# ----------------------------------------------------------------------
# Through the coordinator
# ----------------------------------------------------------------------


def test_bulk_seeding_matches_the_dict_seeding(scalar_twin):
    """Seeding is one patch per shard; columns or dicts, same snapshots —
    and the consistency check reads every mirror through the executor."""
    config = PregelConfig(num_workers=4, seed=2, quiet_window=5)
    snapshots = []
    for program in (PageRank(), scalar_twin(PageRank())):
        executor = InlineExecutor()
        with Coordinator(mesh_3d(4), program, config, executor=executor) as system:
            stored = [s.store is not None for s in executor._shards.values()]
            assert stored == [program.compute_batch is not None] * 4
            system.shard_consistency_check()
            snapshots.append({
                sid: plain(snap) for sid, snap in executor.snapshot().items()
            })
    assert snapshots[0] == snapshots[1]


def test_consistency_check_sees_a_drifted_mirror_through_the_executor():
    config = PregelConfig(num_workers=2, seed=2, quiet_window=5)
    executor = InlineExecutor()
    with Coordinator(mesh_3d(3), PageRank(), config, executor=executor) as system:
        system.run(2)
        system.shard_consistency_check()
        shard = executor._shards[1]
        shard.apply_patch(_patch(delta=[(0, 1 - system.state.partition_of(0))]))
        with pytest.raises(AssertionError, match="mirror drift on shard 1"):
            system.shard_consistency_check()


def test_consistency_check_compares_adjacency_with_the_graph(monkeypatch):
    """A missed dirty mark on an edge event leaves a resident with a stale
    neighbour list; membership, values, halt flags and mirror all still
    agree — only the adjacency comparison can see it."""
    from repro.graph.events import AddEdge

    marked = Coordinator._activate

    def forgetful(self, vertices):
        marked(self, vertices)
        self._dirty.discard(5)

    config = PregelConfig(num_workers=2, seed=2, quiet_window=5)
    graph = Graph(edges=[(i, (i + 1) % 12) for i in range(12)])
    with Coordinator(graph, PageRank(), config) as system:
        system.inject_events([AddEdge(2, 9)])
        system.run(2)
        system.shard_consistency_check()  # every mark made: clean
        monkeypatch.setattr(Coordinator, "_activate", forgetful)
        system.inject_events([AddEdge(5, 11)])
        system.run(2)
        assert 11 in graph.neighbors(5)
        with pytest.raises(AssertionError, match="adjacency drift for 5:"):
            system.shard_consistency_check()


def test_a_label_vertex_demotes_every_store_and_is_counted():
    """A label id in the broadcast delta reaches every mirror: all k
    stores demote, each exactly once, and the run goes on on dicts."""
    from repro.graph.events import AddEdge

    config = PregelConfig(num_workers=3, seed=4, quiet_window=5)
    executor = InlineExecutor()
    graph = Graph(edges=[(i, (i + 1) % 12) for i in range(12)])
    with Coordinator(graph, PageRank(), config, executor=executor) as system:
        demotions = system.metrics_registry.counter("shard.store.demotions")
        system.run(2)
        assert demotions.value == 0
        assert all(s.store is not None for s in executor._shards.values())
        system.inject_events([AddEdge("grow:1", 3)])
        system.run(3)
        assert demotions.value == 3
        registry = system.metrics_registry
        assert registry.counter("shard.store.demotions.patch-shape").value == 3
        assert "shard.store.demotions.patch-shape" in registry.render_text()
        assert all(s.store is None for s in executor._shards.values())
        system.shard_consistency_check()
        system.run(2)
        assert demotions.value == 3  # one way, once


# ----------------------------------------------------------------------
# The FEM programs across executors: records end to end
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def socket_pool():
    with LocalWorkerPool(2) as pool:
        yield pool


@pytest.mark.parametrize("name", ["inline", "process", "socket"])
@pytest.mark.parametrize("labels", [False, True], ids=["typed", "listed"])
def test_executor_snapshots_restore_their_shards(name, labels, socket_pool):
    """``executor.snapshot()`` is every shard's restore record, wherever the
    shard lives: applied to a fresh shard it reproduces itself — typed off
    stores, listed once a label vertex demoted them."""
    from repro.graph.events import AddEdge

    config = PregelConfig(num_workers=3, seed=4, quiet_window=5)
    executor = SocketExecutor(socket_pool.addresses) if name == "socket" else name
    program = PageRank()
    with Coordinator(mesh_3d(3), program, config, executor=executor) as system:
        system.run(2)
        if labels:
            system.inject_events([AddEdge("grow:1", 3)])
        system.run(3)
        system.shard_consistency_check()
        snapshots = system.executor.snapshot()
    assert sorted(snapshots) == [0, 1, 2]
    for sid, snapshot in snapshots.items():
        assert snapshot.typed != labels and len(snapshot.ids)
        restored = Shard(
            sid, program, program.combiner(), True, config.heuristic
        )
        restored.apply_patch(snapshot)
        assert restored.snapshot() == snapshot
        assert plain(restored.snapshot()) == plain(snapshot)


def _row_built_seeds(system):
    """The seed patches the per-vertex loop built: each shard's residents
    as ``{v: (value, neighbours, False)}`` rows in graph order, packed
    shard by shard, the start placement as every patch's broadcast."""
    graph, state = system.graph, system.state
    rows = {sid: {} for sid in range(system.config.num_workers)}
    for v in graph.vertices():
        rows[state.partition_of(v)][v] = (
            system.values[v], tuple(graph.neighbors(v)), False
        )
    placed = ([], [])
    if system.config.adaptive:
        placed = tuple(map(list, zip(*state.assignment_items()))) or placed
    return {
        sid: PatchColumns.pack(
            list(upserts), *(list(zip(*upserts.values())) or [(), (), ()]),
            [], placed, *system._store_gate,
        )
        for sid, upserts in rows.items()
    }


SEED_PROGRAMS = {
    "pagerank": PageRank,
    "fem": partial(CombinedCardiacFemSimulation, stimulus_vertices={0}),
    "cliques": MaximalCliqueFinder,
}


@pytest.mark.parametrize("executor", ["inline", "socket"])
@pytest.mark.parametrize("name", sorted(SEED_PROGRAMS))
@pytest.mark.parametrize("ids", ["ints", "labels", "mixed"])
def test_column_built_seeds_equal_the_row_built_ones(
    executor, name, ids, socket_pool
):
    """Right after construction every shard holds exactly what the
    row-built seed gives a fresh shard: typed (PageRank), ``(n, 2)``
    records (FEM), kernel-less dict shards (cliques), the listed plane on
    label ids and, with one label vertex on a non-adaptive run (no
    placement broadcast), typed and listed shards side by side."""
    graph = mesh_3d(3)
    if ids == "labels":
        graph = Graph(edges=[(f"v{u}", f"v{w}") for u, w in graph.edges()])
    if ids == "mixed":
        graph.add_edge("grow:1", 0)
    program = SEED_PROGRAMS[name]()
    config = PregelConfig(
        num_workers=3, seed=2, quiet_window=5, adaptive=ids != "mixed"
    )
    if executor == "socket":
        executor = SocketExecutor(socket_pool.addresses)
    with Coordinator(graph, program, config, executor=executor) as system:
        snapshots = system.executor.snapshot()
        seeds = _row_built_seeds(system)
    assert sorted(snapshots) == sorted(seeds)
    regimes = {seed.typed for seed in seeds.values()}
    if name == "cliques" or ids == "labels":  # cliques has no kernel
        assert regimes == {False}
    else:
        assert regimes == {True} if ids == "ints" else {True, False}
    heuristic = config.heuristic if config.adaptive else None
    for sid, seed in seeds.items():
        fresh = Shard(sid, program, program.combiner(), True, heuristic)
        fresh.apply_patch(seed)
        assert snapshots[sid] == fresh.snapshot()
        assert plain(snapshots[sid]) == plain(fresh.snapshot())


@pytest.mark.parametrize(
    "program_cls", [CardiacFemSimulation, CombinedCardiacFemSimulation],
    ids=lambda cls: cls.name,
)
def test_fem_is_identical_and_fully_batched_on_every_executor(
    program_cls, socket_pool
):
    """inline / process / socket: the same reports and the same
    final ``(v, w)`` to the last bit, every block on a store (``(n, 2)``
    value columns, record messages over the wire) and no demotion."""
    workers, supersteps = 4, 7
    config = PregelConfig(num_workers=workers, seed=5, quiet_window=5)
    runs = {}
    for name in ("inline", "process", "socket"):
        program = program_cls(substeps=2, stimulus_vertices={0, 13})
        executor = name
        if name == "socket":
            executor = SocketExecutor(socket_pool.addresses)
        with Coordinator(
            mesh_3d(4), program, config, executor=executor
        ) as system:
            reports = [system.run_superstep() for _ in range(supersteps)]
            system.shard_consistency_check()
            counter = system.metrics_registry.counter
            assert counter("shard.store.demotions").value == 0
            assert counter("kernel.batched_blocks").value == supersteps * workers
            runs[name] = (
                reports, [(v, bits(x)) for v, x in system.values.items()]
            )
    assert sum(r.migrations_announced for r in runs["inline"][0]) > 0
    for name, run in runs.items():
        assert run == runs["inline"], name
