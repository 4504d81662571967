"""Property: incremental metrics ≡ full recompute under any interleaving.

The incremental engine maintains loads (and, via ``PartitionState``, cut and
sizes) as deltas per admitted move and applied event.  These tests drive an
:class:`AdaptiveRunner` through arbitrary interleavings of event batches and
adaptive iterations — on both decision paths, under both the paper's vertex
balance and the degree-sensitive edge balance — and assert the maintained
values are *bit-identical* to from-scratch recomputation, and that a run
audited after every op (``AdaptiveRunner.audit()`` re-derives and
cross-checks everything) replays the exact same timeline.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AdaptiveConfig, AdaptiveRunner, EdgeBalance, VertexBalance
from repro.core.heuristic import GreedyMaxNeighbours
from repro.graph import AddEdge, AddVertex, Graph, RemoveEdge, RemoveVertex
from repro.partitioning import HashPartitioner, balanced_capacities

class PortableGreedy(GreedyMaxNeighbours):
    """The paper's rule, but not the exact type the sweep gate accepts: a
    runner holding it decides on the portable per-vertex path."""


VERTEX_IDS = st.integers(min_value=0, max_value=15)
NEW_IDS = st.integers(min_value=16, max_value=23)  # arrivals beyond the base


def event_strategy():
    ids = st.one_of(VERTEX_IDS, NEW_IDS)
    edge_pair = st.tuples(ids, ids).filter(lambda p: p[0] != p[1])
    return st.one_of(
        st.builds(AddVertex, ids),
        st.builds(RemoveVertex, ids),
        edge_pair.map(lambda p: AddEdge(*p)),
        edge_pair.map(lambda p: RemoveEdge(*p)),
    )


# An op is either one adaptive iteration or a batch of graph events.
OPS = st.lists(
    st.one_of(
        st.just("step"),
        st.lists(event_strategy(), min_size=1, max_size=6),
    ),
    max_size=10,
)

EDGES = st.sets(
    st.tuples(VERTEX_IDS, VERTEX_IDS).filter(lambda p: p[0] != p[1]),
    min_size=3,
    max_size=25,
)

BALANCES = st.sampled_from(["vertex", "edge"])
PATHS = st.sampled_from(["portable", "sweep"])


def _make_balance(name):
    return VertexBalance() if name == "vertex" else EdgeBalance()


def _make_runner(path, edges, seed, balance_name):
    """A runner on the ``"sweep"`` path (vectorised decisions, bulk ingest
    where they apply) or the ``"portable"`` one (per-vertex decisions, the
    per-event ingest loop)."""
    graph = Graph(edges=list(edges))
    caps = balanced_capacities(graph.num_vertices, 3, slack=1.3)
    state = HashPartitioner().partition(graph, 3, list(caps))
    config = AdaptiveConfig(
        seed=seed,
        quiet_window=5,
        heuristic=PortableGreedy() if path == "portable" else GreedyMaxNeighbours(),
        balance=_make_balance(balance_name),
    )
    runner = AdaptiveRunner(graph, state, config)
    if path == "portable":
        runner._ingestor = None
    return runner


def _drive(runner, ops, audit=False):
    for op in ops:
        if op == "step":
            runner.step()
        else:
            runner.apply_events(op)
        if audit:
            runner.audit()


def _recomputed_loads(runner):
    balance = runner.config.balance
    loads = [0.0] * runner.state.num_partitions
    for v, pid in runner.state.assignment_items():
        loads[pid] += balance.load_of(runner.graph, v)
    return loads


@given(
    edges=EDGES,
    ops=OPS,
    seed=st.integers(0, 20),
    balance_name=BALANCES,
    path=PATHS,
)
@settings(max_examples=120, deadline=None)
def test_incremental_metrics_equal_full_recompute(
    edges, ops, seed, balance_name, path
):
    runner = _make_runner(path, edges, seed, balance_name)
    _drive(runner, ops)
    # Cut and sizes: PartitionState's delta bookkeeping vs full recount.
    runner.state.validate()
    # Loads: the incremental engine vs a from-scratch rebuild — exact
    # equality, not approximate (loads are integer-valued under both
    # shipped policies, so delta maintenance must be bit-exact).
    assert runner.metrics.loads == _recomputed_loads(runner)
    # The audit API itself must pass.
    assert runner.metrics.cross_check()


@given(
    edges=EDGES,
    ops=OPS,
    seed=st.integers(0, 20),
    balance_name=BALANCES,
)
@settings(max_examples=60, deadline=None)
def test_recompute_mode_replays_identical_timeline(
    edges, ops, seed, balance_name
):
    plain = _make_runner("sweep", edges, seed, balance_name)
    audited = _make_runner("sweep", edges, seed, balance_name)
    _drive(plain, ops)
    _drive(audited, ops, audit=True)
    assert list(plain.timeline) == list(audited.timeline)
    assert plain.loads == audited.loads
    assert plain.state.cut_edges == audited.state.cut_edges


@given(
    edges=EDGES,
    ops=OPS,
    seed=st.integers(0, 20),
)
@settings(max_examples=60, deadline=None)
def test_backends_stay_identical_under_interleaving(edges, ops, seed):
    """The two decision-and-ingest paths replay one timeline."""
    portable = _make_runner("portable", edges, seed, "vertex")
    swept = _make_runner("sweep", edges, seed, "vertex")
    _drive(portable, ops)
    _drive(swept, ops)
    assert list(portable.timeline) == list(swept.timeline)
    assert portable.state.cut_edges == swept.state.cut_edges
    assert portable.state.sizes == swept.state.sizes
    swept.graph.validate()  # interning + CSR mirror survive the churn
