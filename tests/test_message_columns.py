"""The columnar message plane against the dict plane it must reproduce.

``MessageColumns`` carries a batched program's messages as numpy columns
from one ``compute_batch`` to the next — shard outbox, wire, router,
inbox.  The dict plane stays the reference: every property here builds the
same traffic both ways and requires identical mailboxes (contents, logical
lengths, float bits), identical local/remote counts and identical run
digests.  Also pinned: the record's wire round trip, the fallback when a
superstep mixes planes, and the conditions under which the record must
never be built at all (label ids, no numpy, a kernel-less program).

``REPRO_CLUSTER_EXECUTORS`` narrows the executor axis like the cluster
suites do; the numpy-free CI leg runs the tests that need no numpy.
"""

import json
import os
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.connected_components import ConnectedComponents
from repro.apps.pagerank import PageRank
from repro.cluster import Coordinator, LocalWorkerPool, SocketExecutor, wire
from repro.cluster.shard import Shard
from repro.cluster.wire import WireError, combine_inbox
from repro.generators import mesh_3d
from repro.graph import Graph
from repro.pregel import messages
from repro.pregel.messages import (
    CombinedMessages,
    MessageColumns,
    MessageRouter,
    min_combiner,
    sum_combiner,
)
from repro.pregel.network import NetworkStats
from repro.pregel.system import PregelConfig, PregelSystem
from repro.scenarios import get_scenario, play_scenario

try:
    import numpy as np
except ImportError:  # the numpy-free CI leg
    np = None

needs_numpy = pytest.mark.skipif(np is None, reason="numpy not installed")

EXECUTORS = [
    name.strip()
    for name in os.environ.get(
        "REPRO_CLUSTER_EXECUTORS", "inline,process,socket"
    ).split(",")
    if name.strip()
]
WORKERS = 4


def bits(value):
    """A payload's exact identity: type plus (for floats) every bit."""
    if type(value) is float:
        return ("f", struct.pack("<d", value))
    return (type(value).__name__, value)


def mailbox_view(inbox):
    """``{target: (mailbox type, logical len, payload bits)}`` of an inbox."""
    return {
        target: (type(box), len(box), [bits(m) for m in list.__iter__(box)])
        for target, box in inbox.items()
    }


# One worker's reduced outbox: distinct targets, one payload each.
def outboxes(payloads):
    return st.lists(
        st.dictionaries(st.integers(-40, 40), payloads, max_size=25),
        min_size=WORKERS, max_size=WORKERS,
    )


FLOATS = st.floats(min_value=1e-9, max_value=1e9, allow_nan=False)
INTS = st.integers(-(1 << 40), 1 << 40)
CASES = st.one_of(
    st.tuples(st.just(sum_combiner), st.just("float64"), outboxes(FLOATS)),
    st.tuples(st.just(min_combiner), st.just("float64"), outboxes(FLOATS)),
    st.tuples(st.just(min_combiner), st.just("int64"), outboxes(INTS)),
    # sum over ints is not foldable in float64: the router must fall back.
    st.tuples(st.just(sum_combiner), st.just("int64"), outboxes(INTS)),
)


def _routers(combiner, placement):
    pair = []
    for _ in range(2):
        router = MessageRouter(placement, NetworkStats())
        router.set_combiner(combiner)
        pair.append(router)
    return pair


def _columns(outbox, dtype):
    return MessageColumns(
        np.array(list(outbox), dtype=np.int64),
        np.array(list(outbox.values()), dtype=dtype),
    )


def _traffic(router):
    current = router._network.current
    return current.local_messages, current.remote_messages


@needs_numpy
@given(
    case=CASES,
    vanished=st.sets(st.integers(-40, 40), max_size=8),
    dropped=st.lists(st.integers(-40, 40), max_size=4),
    seed=st.integers(0, 1 << 16),
)
@settings(max_examples=150, deadline=None)
def test_columnar_delivery_equals_the_dict_plane(case, vanished, dropped, seed):
    combiner, dtype, per_worker = case
    placement = {
        t: (t * 7 + seed) % WORKERS
        for t in range(-40, 41) if t not in vanished
    }
    by_dict, by_columns = _routers(combiner, placement)
    for worker, outbox in enumerate(per_worker):  # empty shards included
        by_dict.absorb(list(zip(zip([worker] * len(outbox), outbox),
                                outbox.values())))
        by_columns.absorb(_columns(outbox, dtype), worker)
    assert by_dict.has_pending() == by_columns.has_pending()
    want = by_dict.deliver()
    got = by_columns.deliver()
    foldable = dtype == "float64" or combiner is min_combiner
    if foldable and any(per_worker):
        assert type(got) is MessageColumns
        assert got.targets.tolist() == sorted(want)
    else:
        assert type(got) is dict  # empty outbox / unfoldable: the dict plane
        assert list(got) == list(want)  # the fallback keeps the dict order
    assert _traffic(by_columns) == _traffic(by_dict)
    # A vertex removed at the barrier loses its mail even when the same
    # barrier re-adds it (the placement plays no part in the drop).
    for vertex in dropped:
        by_dict.drop_vertex(vertex)
        by_columns.drop_vertex(vertex)
        placement[vertex] = 0
    assert by_dict.has_pending() == by_columns.has_pending()
    want = combine_inbox(by_dict.take_inbox(), combiner)
    got = by_columns.take_inbox()
    if type(got) is MessageColumns:
        assert combine_inbox(got, combiner) is got
        assert len(got) == len(want)
        got = got.mailboxes()
    else:
        got = combine_inbox(got, combiner)
    assert mailbox_view(got) == mailbox_view(want)
    assert not by_columns.has_pending() and by_columns.take_inbox() == {}


@needs_numpy
def test_mixed_superstep_falls_back_to_the_dict_plane_in_send_order():
    placement = {t: t % 3 for t in range(10)}
    reference, mixed = _routers(sum_combiner, placement)
    shards = [{1: 0.5, 4: 0.25}, {4: 1.0, 2: 2.0}, {2: 4.0, 1: 8.0, 9: 0.125}]
    for worker, outbox in enumerate(shards):
        entries = [((worker, t), p) for t, p in outbox.items()]
        reference.absorb(entries)
        if worker == 1:  # this shard declined to the scalar loop
            mixed.absorb(entries)
        else:
            mixed.absorb(_columns(outbox, "float64"), worker)
    want, got = reference.deliver(), mixed.deliver()
    assert type(got) is dict and list(got.items()) == list(want.items())
    assert _traffic(mixed) == _traffic(reference)


@needs_numpy
def test_columnar_outbox_needs_its_source_worker():
    router = MessageRouter({}, NetworkStats())
    with pytest.raises(ValueError, match="source_worker"):
        router.absorb(_columns({1: 0.5}, "float64"))


@needs_numpy
def test_record_validates_its_columns_and_compares_as_plain_bools():
    ids = np.array([3, 1], dtype=np.int64)
    pay = np.array([0.5, 0.25])
    record = MessageColumns(ids, pay, np.array([2, 1], dtype=np.int64))
    assert len(record) == 2 and bool(record) is True
    assert (record == MessageColumns(ids.copy(), pay.copy(),
                                     record.counts.copy())) is True
    assert (record == MessageColumns(ids, pay)) is False
    assert (record == MessageColumns(ids, np.array([0.5, -0.25]))) is False
    assert (record != {3: 0.5}) is True
    assert bool(MessageColumns(ids[:0], pay[:0])) is False
    assert dict(record.items()) == {3: 0.5, 1: 0.25}
    assert record.entries(7) == [((7, 3), 0.5), ((7, 1), 0.25)]
    boxes = record.mailboxes()
    assert type(boxes[3]) is CombinedMessages and len(boxes[3]) == 2
    assert type(boxes[1]) is list and boxes[1] == [0.25]
    with pytest.raises(AttributeError):
        record.targets = ids
    for bad in (
        (ids.astype(np.int32), pay, None),
        (ids, pay[:1], None),
        (ids, pay.astype(np.float32), None),
        (ids, pay, np.array([1], dtype=np.int64)),
        (ids.reshape(1, 2), pay.reshape(1, 2), None),
    ):
        with pytest.raises(ValueError):
            MessageColumns(*bad)


# ----------------------------------------------------------------------
# The wire
# ----------------------------------------------------------------------


@needs_numpy
@pytest.mark.parametrize("ids", [
    [],
    [5],
    [-7, -3, -2, 40],
    [(1 << 32) + 5, (1 << 40), 3, -(1 << 45)],
    list(range(1000, 1100)),
    [(1 << 62), -(1 << 62), (1 << 62)],  # steps beyond int64: plain form
])
@pytest.mark.parametrize("kind", ["float64", "int64"])
@pytest.mark.parametrize("with_counts", [False, True])
def test_record_round_trips_on_the_wire(ids, kind, with_counts):
    n = len(ids)
    record = MessageColumns(
        np.array(ids, dtype=np.int64),
        np.arange(n, dtype=kind) * 3 - 1,
        np.arange(1, n + 1, dtype=np.int64) if with_counts else None,
    )
    payload = wire.dumps(record)
    assert payload[wire._BODY] == 0x17
    got = wire.loads(payload)
    assert (got == record) is True and type(got) is MessageColumns
    assert wire.dumps(got) == payload  # re-encoding is byte-stable
    if n:
        # Ids cost their gaps, not their magnitude; payloads 8 bytes each.
        assert len(payload) <= 16 + n * (8 + 8 + 1)


@needs_numpy
def test_record_encodes_noncontiguous_and_readonly_inputs():
    ids = np.arange(40, dtype=np.int64)[::2]
    pay = np.arange(60, dtype=np.float64)[::3]
    ids.flags.writeable = pay.flags.writeable = False
    record = MessageColumns(ids, pay)
    got = wire.loads(wire.dumps(record))
    assert (got == MessageColumns(ids.copy(), pay.copy())) is True
    assert got.targets.flags.writeable and got.payloads.flags.owndata


@needs_numpy
def test_task_and_delta_frames_carry_records():
    from repro.cluster.shard import ShardDelta, ShardTask
    from repro.pregel.migration import ProposalColumns

    inbox = MessageColumns(
        np.array([2, 5, 9], dtype=np.int64), np.array([0.5, 1.5, 2.5]),
        np.array([1, 3, 2], dtype=np.int64),
    )
    task = ShardTask(4, inbox, 10, {}, None, (2, 5))
    delta = ShardDelta(
        shard_id=1, computed=3,
        values=MessageColumns(inbox.targets, np.array([1.0, 2.0, 3.0])),
        outbox=MessageColumns(inbox.targets[::-1].copy(), inbox.payloads),
        halted_added=[], halted_removed=[], aggregated=[],
        compute_units=4.0,
        proposals=ProposalColumns.of_rows([(2, 1, 0, True), (9, 1, 3, False)]),
    )
    for message in (("step", {1: (task, None)}), ("ok", {1: delta})):
        got = wire.loads(wire.dumps(message))
        assert (got == message) is True
    proposals = wire.loads(wire.dumps(delta)).proposals
    assert proposals == delta.proposals and proposals.typed
    assert [type(x) for x in proposals.rows()[0]] == [int, int, int, bool]


@needs_numpy
def test_columnar_frame_without_numpy_is_a_clear_wire_error(monkeypatch):
    frame = wire.dumps(_columns({1: 0.5}, "float64"))
    monkeypatch.setattr(wire, "_np", None)
    with pytest.raises(WireError, match="numpy is not installed"):
        wire.loads(frame)


@needs_numpy
@pytest.mark.parametrize("frame", [
    # targets claim 2 rows, the payload buffer holds 1
    b"\x01\x17\x00\x01\x02\x01\x02" + bytes(8),
    # counts column shorter than targets
    b"\x01\x17\x01\x01\x01\x05" + bytes(8) + b"\x01\x00",
    # unknown flag bits
    b"\x01\x17\x04\x01\x00",
    # a delta column whose start is beyond int64
    b"\x01\x17\x00\x41\x02" + b"\xff" * 9 + b"\x7f\x01" + bytes(16),
])
def test_malformed_column_frames_are_wire_errors(frame):
    with pytest.raises(WireError):
        wire.loads(frame)


INT_LISTS = st.lists(
    st.one_of(
        st.integers(-(1 << 63), (1 << 63) - 1),
        st.integers(-300, 300),
        st.integers((1 << 32) - 50, (1 << 32) + 50),
    ),
    min_size=1, max_size=80,
)


@needs_numpy
@given(values=INT_LISTS, sort=st.booleans())
@settings(max_examples=200, deadline=None)
def test_numpy_and_stdlib_int_columns_are_the_same_bytes(values, sort):
    if sort:
        values = sorted(values)
    column = bytearray()
    wire._pack_int_column(np.array(values, dtype=np.int64), column)
    stdlib = bytearray()
    saved, wire._np = wire._np, None
    try:
        assert wire._pack_ints(values, stdlib)
        reader = wire._Reader(memoryview(bytes(stdlib)), 0)
        assert wire._read_int_array(reader) == values
    finally:
        wire._np = saved
    assert bytes(column) == bytes(stdlib)
    reader = wire._Reader(memoryview(bytes(column)), 0)
    assert wire._read_int_column(reader).tolist() == values
    # A list long enough for numpy decodes to the same Python ints.
    long = values * (wire._NUMPY_MIN // len(values) + 1)
    assert wire.loads(wire.dumps(long)) == long
    assert wire.loads(wire.dumps(tuple(long))) == tuple(long)


# ----------------------------------------------------------------------
# Whole runs: same digests on either plane, and the record's no-go zones
# ----------------------------------------------------------------------


def _run_digest(system, steps):
    system.run(steps)
    return (
        [
            (r.superstep, r.migrations_announced, r.cut_edges,
             tuple(r.sizes), r.computed_vertices,
             r.traffic.local_messages, r.traffic.remote_messages,
             struct.pack("<d", r.traffic.compute_units))
            for r in system.reports
        ],
        {v: bits(x) for v, x in system.values.items()},
        set(system.halted),
    )


def _config(**overrides):
    return PregelConfig(num_workers=4, seed=5, quiet_window=5, **overrides)


class _DecliningPageRank(PageRank):
    """A kernel that declines odd-sized blocks: some shards go scalar."""

    def compute(self, ctx, messages):
        super().compute(ctx, messages)

    def compute_batch(self, block):
        if len(block) % 2:
            return None
        return super().compute_batch(block)


@needs_numpy
@pytest.mark.parametrize("program", [PageRank, _DecliningPageRank,
                                     ConnectedComponents])
@pytest.mark.parametrize("continuous", [True, False])
def test_sharded_run_on_columns_equals_the_dict_plane_run(
    program, continuous, monkeypatch, scalar_twin
):
    config = _config(continuous=continuous)
    # The dict plane whole: scalar loop, per-message objects end to end.
    with Coordinator(mesh_3d(5), scalar_twin(program()), config) as system:
        want = _run_digest(system, 8)
    # The serial oracle pins the timeline (its one-block mailbox order
    # differs from a sharded run's, so values agree only to rounding).
    serial = _run_digest(PregelSystem(mesh_3d(5), program(), config), 8)
    assert serial[0] == want[0] and serial[2] == want[2]
    delivered = []
    fold = MessageRouter._deliver_columns
    monkeypatch.setattr(
        MessageRouter, "_deliver_columns",
        lambda self, chunks: delivered.append(1) or fold(self, chunks),
    )
    with Coordinator(mesh_3d(5), program(), config) as system:
        assert _run_digest(system, 8) == want
    if program is not _DecliningPageRank:
        assert delivered, "the columnar plane never carried a superstep"


def _forbid_records(monkeypatch):
    def refuse(self):
        raise AssertionError("a MessageColumns was built on the dict plane")

    monkeypatch.setattr(MessageColumns, "__post_init__", refuse)


def test_label_ids_never_build_the_record(monkeypatch):
    _forbid_records(monkeypatch)
    edges = [(f"v{i}", f"v{(i + d) % 30}") for i in range(30) for d in (1, 2)]
    serial = _run_digest(
        PregelSystem(Graph(edges=edges), PageRank(), _config()), 6
    )
    with Coordinator(Graph(edges=edges), PageRank(), _config()) as system:
        assert _run_digest(system, 6)[0] == serial[0]


def test_without_the_kernel_no_record_is_built(monkeypatch, scalar_twin):
    # A kernel-less program (on the numpy-free leg, every program): int
    # ids, dict plane only.
    _forbid_records(monkeypatch)
    serial = _run_digest(PregelSystem(mesh_3d(4), PageRank(), _config()), 6)
    program = scalar_twin(PageRank())
    with Coordinator(mesh_3d(4), program, _config()) as system:
        assert _run_digest(system, 6)[0] == serial[0]
    assert messages._np is np


@pytest.fixture(scope="module")
def socket_pool():
    with LocalWorkerPool(2) as pool:
        yield pool


# What each golden scenario's ids allow: all-int ids stay columnar,
# mesh-growth adds ``"grow:<n>"`` label vertices (shards holding one fall
# back, so supersteps mix planes), cdr-weekly has label ids only.
GOLDEN_PLANES = {
    "grid-rewire": {MessageColumns},
    "mesh-growth": {MessageColumns, list},
    "cdr-weekly": {list},
}
# ... and which shard representation computes them: all-int ids keep every
# shard an array store, the first ``"grow:<n>"`` label demotes the stores
# mid-run, label ids never leave dict state.
GOLDEN_SHARDS = {
    "grid-rewire": {"store"},
    "mesh-growth": {"store", "dict"},
    "cdr-weekly": {"dict"},
}


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("name", sorted(GOLDEN_PLANES))
def test_goldens_replay_on_the_message_plane(name, executor, socket_pool,
                                             monkeypatch):
    """The committed fixtures, untouched, with the plane's use — and the
    shard representation that computed each superstep — observed."""
    planes = set()
    absorb = MessageRouter.absorb

    def watching(self, entries, source_worker=None):
        if len(entries):
            planes.add(type(entries))
        absorb(self, entries, source_worker)

    monkeypatch.setattr(MessageRouter, "absorb", watching)
    shards = set()  # seen for shards that run in this process only
    run_superstep = Shard.run_superstep

    def running(self, task):
        if len(self):  # an empty shard computes nothing either way
            shards.add("dict" if self.store is None else "store")
        return run_superstep(self, task)

    monkeypatch.setattr(Shard, "run_superstep", running)
    in_process = executor == "inline"
    if executor == "socket":
        executor = SocketExecutor(socket_pool.addresses)
    digest = play_scenario(
        get_scenario(name), engine="pregel", executor=executor
    ).superstep_digest()
    fixture = Path(__file__).parent / "golden" / f"pregel-{name}.json"
    assert digest == json.loads(fixture.read_text(encoding="utf-8"))
    columnar = np is not None
    assert planes == (GOLDEN_PLANES[name] if columnar else {list})
    if in_process:
        # The numpy-free leg is the dict shard, whole.
        assert shards == (GOLDEN_SHARDS[name] if columnar else {"dict"})
