"""The one graph's interning and CSR mirror, and the two decision paths.

Structurally, :class:`Graph` must stay indistinguishable from a plain
dict-of-sets under arbitrary mutation sequences — same vertex order, same
neighbour-set iteration order — while its slots, id table and CSR mirror
stay exact.  Behaviourally, the vectorised sweep over the mirror must give
bit-identical AdaptiveRunner / Pregel timelines to the portable per-vertex
path for fixed seeds; :class:`PortableGreedy` selects that path (the
sweep's exact-type gate rejects it)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.sweep as sweep_module
from repro.core import AdaptiveConfig, AdaptiveRunner, EdgeBalance
from repro.core.heuristic import GreedyMaxNeighbours
from repro.core.sweep import CompactSweeper, make_sweeper

# The batch fast path needs numpy; without it every pair below runs the
# portable per-vertex path on both sides.
HAS_NUMPY = sweep_module._np is not None
needs_numpy = pytest.mark.skipif(
    not HAS_NUMPY, reason="the vectorised sweeper requires numpy"
)
from repro.generators import mesh_3d, powerlaw_cluster_graph, ring_lattice
from repro.graph import AddEdge, AddVertex, Graph, RemoveEdge, RemoveVertex
from repro.graph.compact import CompactGraph
from repro.partitioning import HashPartitioner, balanced_capacities
from repro.partitioning.base import PartitionState


class PortableGreedy(GreedyMaxNeighbours):
    """The paper's rule, unchanged — but not the exact type the sweep
    gate accepts, so a runner holding it takes the portable path."""


VERTEX_IDS = st.integers(min_value=0, max_value=25)

OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("add_vertex"), VERTEX_IDS),
        st.tuples(st.just("remove_vertex"), VERTEX_IDS),
        st.tuples(st.just("add_edge"), VERTEX_IDS, VERTEX_IDS),
        st.tuples(st.just("remove_edge"), VERTEX_IDS, VERTEX_IDS),
        st.tuples(st.just("sync")),  # force a dirty-region CSR repair
    ),
    max_size=120,
)


class DictOfSets:
    """The model: a bare dict of neighbour sets with the graph's mutation
    semantics and none of its interning or mirror."""

    def __init__(self):
        self.adj = {}

    def add_vertex(self, v):
        if v in self.adj:
            return False
        self.adj[v] = set()
        return True

    def remove_vertex(self, v):
        neighbours = self.adj.pop(v, None)
        if neighbours is None:
            return False
        for w in neighbours:
            self.adj[w].discard(v)
        return True

    def add_edge(self, u, v):
        self.add_vertex(u)
        self.add_vertex(v)
        if v in self.adj[u]:
            return False
        self.adj[u].add(v)
        self.adj[v].add(u)
        return True

    def remove_edge(self, u, v):
        if v not in self.adj.get(u, ()):
            return False
        self.adj[u].discard(v)
        self.adj[v].discard(u)
        return True

    def ensure_csr(self):
        pass


def apply_op(graph, op):
    kind = op[0]
    if kind == "add_vertex":
        return graph.add_vertex(op[1])
    if kind == "remove_vertex":
        return graph.remove_vertex(op[1])
    if kind == "add_edge":
        if op[1] == op[2]:
            return None  # self-loops raise; the model has no rule for them
        return graph.add_edge(op[1], op[2])
    if kind == "remove_edge":
        return graph.remove_edge(op[1], op[2])
    if kind == "sync":
        graph.ensure_csr()
        return None
    raise AssertionError(kind)


def assert_same_topology(model, graph):
    adj = model.adj
    assert graph.num_vertices == len(adj)
    assert 2 * graph.num_edges == sum(map(len, adj.values()))
    assert list(graph.vertices()) == list(adj)
    for v, neighbours in adj.items():
        assert graph.degree(v) == len(neighbours)
        assert list(graph.neighbors(v)) == list(neighbours)  # same order
    assert sorted(graph.edges()) == sorted(
        (u, v) for u, ns in adj.items() for v in ns if u < v
    )


class TestStructuralEquivalence:
    @given(ops=OPERATIONS)
    @settings(max_examples=80, deadline=None)
    def test_random_mutation_sequences(self, ops):
        model = DictOfSets()
        graph = Graph()
        for op in ops:
            assert apply_op(model, op) == apply_op(graph, op)
        assert_same_topology(model, graph)
        graph.validate()

    @given(ops=OPERATIONS)
    @settings(max_examples=40, deadline=None)
    def test_degree_histogram_and_isolated(self, ops):
        model = DictOfSets()
        graph = Graph()
        for op in ops:
            apply_op(model, op)
            apply_op(graph, op)
        degrees = [len(ns) for ns in model.adj.values()]
        assert graph.degree_histogram() == {
            d: degrees.count(d) for d in degrees
        }
        isolated = [v for v, ns in model.adj.items() if not ns]
        assert list(graph.isolated_vertices()) == isolated
        assert graph.num_isolated == len(isolated)
        assert graph.average_degree() == (
            sum(degrees) / len(degrees) if degrees else 0.0
        )


class TestCsrMirror:
    def test_in_place_patch_after_edge_removal(self):
        g = mesh_3d(3)
        g.ensure_csr()
        assert g.remove_edge(0, 1)
        starts, lens, _ = g.ensure_csr()
        assert lens[g.slot_of(0)] == g.degree(0)
        g.validate()

    def test_relocation_when_capacity_exceeded(self):
        g = Graph([(0, 1)])
        g.ensure_csr()
        # Grow vertex 0's neighbourhood past its reserved headroom.
        for w in range(2, 40):
            g.add_edge(0, w)
        g.validate()  # validate() re-ensures and checks the mirror

    def test_garbage_triggers_full_rebuild(self):
        g = Graph([(i, i + 1) for i in range(50)])
        g.ensure_csr()
        for i in range(0, 50, 2):
            g.remove_vertex(i)
        g.ensure_csr()
        for i in range(100, 140):
            g.add_edge(i, i + 1)
        g.validate()

    def test_slot_recycling(self):
        g = Graph([(0, 1), (1, 2)])
        slot = g.slot_of(2)
        g.remove_vertex(2)
        g.add_vertex(99)
        assert g.slot_of(99) == slot  # freed slot is reused
        assert g.id_of(slot) == 99
        g.validate()


def same_build(graph, other):
    assert list(graph) == list(other)
    for v in graph:
        assert list(graph.neighbors(v)) == list(other.neighbors(v))
    assert graph.slot_ids == other.slot_ids


class TestBridgesAndRegistry:
    """What is left of the bridges and the registry: derived graphs, and
    the retired class name the perf ledger still imports."""

    def test_copy_and_subgraph_stay_compact(self):
        """Derived graphs intern densely and mirror like any other."""
        g = mesh_3d(3)
        g.ensure_csr()
        clone = g.copy()
        assert list(clone) == list(g) and clone.slot_ids == g.slot_ids
        assert all(clone.neighbors(v) == g.neighbors(v) for v in g)
        assert not clone._csr_built  # a copy mirrors on its own demand
        clone.ensure_csr()
        clone.validate()
        sub = g.subgraph(range(9))
        assert sub.slot_ids == list(range(9))
        sub.ensure_csr()
        sub.validate()

    def test_generators_accept_backend(self):
        """``graph_cls=`` still builds through the retired name the perf
        ledger imports — the very same class."""
        assert CompactGraph is Graph
        same_build(mesh_3d(3, graph_cls=CompactGraph), mesh_3d(3))
        same_build(
            powerlaw_cluster_graph(60, m=2, seed=1, graph_cls=CompactGraph),
            powerlaw_cluster_graph(60, m=2, seed=1),
        )


PIDS = st.integers(min_value=0, max_value=2)
ID_LISTS = st.lists(VERTEX_IDS, max_size=5, unique=True)

STATE_OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("add_vertex"), VERTEX_IDS),
        st.tuples(st.just("remove_vertex"), VERTEX_IDS),
        st.tuples(st.just("add_edge"), VERTEX_IDS, VERTEX_IDS),
        st.tuples(st.just("assign"), VERTEX_IDS, PIDS),
        st.tuples(st.just("move"), VERTEX_IDS, PIDS),
        st.tuples(st.just("bulk_move"), ID_LISTS, PIDS),
        st.tuples(st.just("assign_many"), ID_LISTS, PIDS, st.booleans()),
        st.tuples(st.just("grow"), st.integers(min_value=1, max_value=40)),
    ),
    max_size=60,
)


def apply_state_op(graph, state, op, fresh_ids):
    """One step of the owner-array interleaving; every branch keeps the
    documented call contracts (state told before the graph drops a vertex,
    ``assign_many`` only for brand-new isolated vertices)."""
    kind = op[0]
    if kind == "add_vertex":
        graph.add_vertex(op[1])
    elif kind == "remove_vertex":
        state.remove_vertex(op[1])
        graph.remove_vertex(op[1])  # frees the slot for recycling
    elif kind == "add_edge":
        if op[1] != op[2] and graph.add_edge(op[1], op[2]):
            state.on_edge_added(op[1], op[2])
    elif kind == "assign":
        if op[1] in graph and op[1] not in state:
            state.assign(op[1], op[2])
    elif kind == "move":
        if op[1] in state:
            state.move(op[1], op[2])
    elif kind == "bulk_move":
        items = [
            (v, state.partition_of(v), op[2])
            for v in op[1]
            if v in state and state.partition_of(v) != op[2]
        ]
        oracle = state.copy()
        for v, _, new_pid in items:
            oracle.move(v, new_pid)
        state.apply_bulk_moves(items, oracle.cut_edges - state.cut_edges)
    elif kind == "assign_many":
        arrivals = [next(fresh_ids) for _ in op[1]]
        graph.add_vertices(arrivals)
        placements = [(v, op[2]) for v in arrivals]
        taken = next(iter(state.assignment_items()), None)
        if op[3] and taken is not None:
            # A mid-batch raise: the items before it stay applied.
            with pytest.raises(ValueError, match="already assigned"):
                state.assign_many(placements + [(taken[0], 0)])
        else:
            state.assign_many(placements)
    elif kind == "grow":
        graph.add_vertices([next(fresh_ids) for _ in range(op[1])])
    else:
        raise AssertionError(kind)


class TestOwnerKeptArrays:
    """The derived arrays live with their owners: the graph's id → slot
    table and the state's partition column are exact after *any*
    interleaving of the calls that change them — nobody has to be told."""

    @given(ops=STATE_OPERATIONS)
    @settings(max_examples=150, deadline=None)
    def test_column_and_table_exact_under_any_interleaving(self, ops):
        import itertools

        graph = Graph([(0, 1), (1, 2)])
        state = PartitionState(graph, 3)
        assert graph.id_table() is not None  # build it: deltas from here on
        fresh_ids = itertools.count(26)  # beyond VERTEX_IDS: forces growth
        for op in ops:
            apply_state_op(graph, state, op, fresh_ids)
            column = state.partition_column()
            assert len(column) >= graph.num_slots
            assert {
                graph.id_of(slot): pid
                for slot, pid in enumerate(column)
                if pid >= 0
            } == dict(state.assignment_items())
            table = graph.id_table()
            assert {
                v: slot for v, slot in enumerate(table) if slot >= 0
            } == graph.slot_index
        graph.validate()
        state.validate()

    def test_validate_catches_a_wrong_column_entry(self):
        graph = Graph([(0, 1), (1, 2)])
        state = HashPartitioner().partition(graph, 2)
        state.validate()
        slot = graph.slot_of(1)
        state.partition_column()[slot] = 1 - state.partition_of(1)
        with pytest.raises(AssertionError, match="partition column drift"):
            state.validate()

    def test_validate_catches_a_wrong_table_entry(self):
        graph = Graph([(0, 1), (1, 2)])
        graph.id_table()[2] = graph.slot_of(0)
        with pytest.raises(AssertionError, match="id table drift"):
            graph.validate()

    def test_copy_renumbers_slots_over_holes(self):
        graph = Graph([(0, 1), (1, 2), (2, 3)])
        graph.remove_vertex(1)
        clone = graph.copy()
        assert list(clone.vertices()) == list(graph.vertices())
        assert clone.num_slots == 3 and graph.num_slots == 4
        assert clone.id_table().tolist() == [0, -1, 1, 2]
        clone.validate()


def _runner(graph, seed=0, k=4, **config_kw):
    caps = balanced_capacities(graph.num_vertices, k, 1.10)
    state = HashPartitioner().partition(graph, k, list(caps))
    return AdaptiveRunner(graph, state, AdaptiveConfig(seed=seed, **config_kw))


def _portable_runner(graph, seed=0, **config_kw):
    """The oracle: per-vertex decisions read from the adjacency sets, and
    the per-event ingest loop."""
    config_kw.setdefault("heuristic", PortableGreedy())
    runner = _runner(graph, seed=seed, **config_kw)
    assert runner._sweeper is None
    runner._ingestor = None
    return runner


def _paired_runners(make, seed=0, **config_kw):
    """``(portable, swept)`` runners over two copies of one graph."""
    graph = make()
    return (
        _portable_runner(graph.copy(), seed=seed, **config_kw),
        _runner(graph, seed=seed, **config_kw),
    )


class TestRunnerTimelineEquivalence:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    @pytest.mark.parametrize(
        "make",
        [
            lambda: mesh_3d(6),
            lambda: powerlaw_cluster_graph(250, m=2, seed=1),
        ],
        ids=["mesh", "powerlaw"],
    )
    def test_identical_timelines_fixed_seed(self, make, seed):
        portable, swept = _paired_runners(make, seed=seed)
        if HAS_NUMPY:
            assert swept._sweeper is not None  # the fast path is engaged
        for _ in range(50):
            assert portable.step() == swept.step()
        assert dict(portable.state.assignment_items()) == dict(
            swept.state.assignment_items()
        )
        assert portable.state.cut_edges == swept.state.cut_edges
        assert portable.loads == swept.loads
        swept.state.validate()  # bulk-move cut bookkeeping stayed exact

    @pytest.mark.parametrize("heuristic", ["hysteresis", "capacity-weighted"])
    def test_non_greedy_heuristics_use_generic_path(self, heuristic):
        portable, swept = _paired_runners(
            lambda: mesh_3d(5), seed=2, heuristic=heuristic
        )
        assert swept._sweeper is None  # only the exact greedy rule batches
        for _ in range(30):
            assert portable.step() == swept.step()

    def test_edge_balance_matches(self):
        portable, swept = _paired_runners(
            lambda: powerlaw_cluster_graph(200, m=2, seed=0),
            seed=4,
            balance=EdgeBalance(slack=1.2),
        )
        for _ in range(30):
            assert portable.step() == swept.step()
        assert portable.loads == swept.loads

    def test_dynamic_events_match(self):
        portable, swept = _paired_runners(lambda: mesh_3d(5), seed=0)
        events = [
            AddVertex(900),
            AddEdge(900, 3),
            AddEdge(900, 17),
            RemoveVertex(5),
            RemoveEdge(0, 1),
            AddEdge(901, 902),
            AddVertex(5),
            AddEdge(5, 900),
        ]
        for _ in range(8):
            assert portable.step() == swept.step()
        assert portable.apply_events(events) == swept.apply_events(events)
        for _ in range(30):
            assert portable.step() == swept.step()
        assert dict(portable.state.assignment_items()) == dict(
            swept.state.assignment_items()
        )
        swept.graph.validate()
        swept.state.validate()

    def test_convergence_time_matches(self):
        portable, swept = _paired_runners(lambda: mesh_3d(6), seed=7)
        portable.run_until_convergence(max_iterations=400)
        swept.run_until_convergence(max_iterations=400)
        assert portable.converged == swept.converged
        assert portable.convergence_time == swept.convergence_time
        assert list(portable.timeline) == list(swept.timeline)

    def test_generic_path_on_compact_matches_when_numpy_absent(
        self, monkeypatch
    ):
        monkeypatch.setattr(sweep_module, "_np", None)
        portable, swept = _paired_runners(lambda: mesh_3d(5), seed=0)
        assert swept._sweeper is None
        for _ in range(20):
            assert portable.step() == swept.step()


class TestPregelEquivalence:
    def test_superstep_reports_match_across_backends(self):
        """The serial Pregel system's central decisions: the portable
        path and the sweep over the mirror report the same supersteps."""
        from repro.pregel import PregelConfig, PregelSystem, VertexProgram

        class Echo(VertexProgram):
            def initial_value(self, vertex_id, graph):
                return 0

            def compute(self, ctx, messages):
                ctx.send_to_neighbors(1)

        reports = []
        for heuristic in (PortableGreedy(), GreedyMaxNeighbours()):
            system = PregelSystem(
                mesh_3d(5),
                Echo(),
                PregelConfig(num_workers=4, seed=0, heuristic=heuristic),
            )
            reports.append(system.run(25))
        for portable_report, swept_report in zip(*reports):
            assert portable_report.cut_edges == swept_report.cut_edges
            assert portable_report.sizes == swept_report.sizes
            assert (
                portable_report.migrations_announced
                == swept_report.migrations_announced
            )
            assert (
                portable_report.migrations_requested
                == swept_report.migrations_requested
            )


@needs_numpy
class TestSweeperInternals:
    def test_supports_requires_exact_greedy(self):
        class Sneaky(GreedyMaxNeighbours):
            def desired_partition(self, current, counts, remaining):
                return current

        assert CompactSweeper.supports(GreedyMaxNeighbours())
        assert not CompactSweeper.supports(Sneaky())
        assert not CompactSweeper.supports(PortableGreedy())

    def test_external_state_move_is_seen_by_the_next_sweep(self):
        """A move made behind the runner's back is a move like any other:
        the next sweep decides against it, exactly as the portable path."""
        portable, swept = _paired_runners(lambda: mesh_3d(4), seed=0)
        for runner in (portable, swept):
            runner.step()
            state = runner.state
            vertex = next(iter(state.assignment_items()))[0]
            state.move(vertex, (state.partition_of(vertex) + 1) % 4)
            runner.metrics.rebuild()  # loads follow the unreported move
            runner._active.update(runner.graph.neighbors(vertex))
        for _ in range(10):
            assert portable.step() == swept.step()
        swept.state.validate()

    def test_sweep_then_growth_never_raises_buffer_error(self):
        """No numpy view of an owner's array outlives the call that took
        it: a live view would make the next resize raise BufferError."""
        g = mesh_3d(4)
        runner = _runner(g, seed=0)
        pending = runner._sweeper.decisions(list(g.vertices()))
        next_id = g.num_vertices
        for round_index in range(6):
            runner.step()
            # Grow every owner array: id table, partition column, CSR.
            grown = range(next_id, next_id + 40 * (round_index + 1))
            runner.apply_events([AddEdge(v, v % 64) for v in grown])
            next_id = grown.stop
        assert len(list(pending)) > 0  # an unconsumed generator pins nothing
        g.validate()
        runner.state.validate()

    def test_make_sweeper_on_non_int_ids(self):
        edges = [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")]
        g = Graph(edges)
        caps = balanced_capacities(g.num_vertices, 2, 2.0)
        state = HashPartitioner().partition(g, 2, list(caps))
        assert make_sweeper(g, state, GreedyMaxNeighbours()) is not None
        runner = AdaptiveRunner(g, state, AdaptiveConfig(seed=0))
        other = Graph(edges)
        other_state = HashPartitioner().partition(other, 2, list(caps))
        portable = AdaptiveRunner(
            other, other_state, AdaptiveConfig(seed=0, heuristic=PortableGreedy())
        )
        for _ in range(20):
            assert portable.step() == runner.step()


class TestIdLookupDeltaMaintenance:
    """The graph's dense id → slot table must survive streaming churn
    exactly — it is written by the same methods that change the interning,
    so there is nothing to rebuild and nothing to tell."""

    def _churn_events(self, graph, rng, next_id):
        vertices = list(graph.vertices())
        return [
            AddVertex(next_id),
            AddEdge(next_id, rng.choice(vertices)),
            RemoveVertex(rng.choice(vertices)),
        ]

    def test_no_rebuild_under_streaming_churn(self):
        import random

        g = mesh_3d(6)
        runner = _runner(g, seed=1)
        for _ in range(3):
            runner.step()
        table = g.id_table()
        assert table is not None
        rng = random.Random(0)
        next_id = 216
        for _ in range(150):
            runner.apply_events(self._churn_events(g, rng, next_id))
            next_id += 1
            runner.step()
        assert g.id_table() is table, "interning churn replaced the id table"
        g.validate()  # the table is exact: table == slot_index
        runner.metrics.cross_check()

    def test_churn_timeline_matches_dense_backend(self):
        """Delta maintenance must not change a single decision: the sweep
        under churn replays the portable path's timeline."""
        import random

        def run(runner):
            rng = random.Random(7)
            next_id = 216
            stats = []
            for _ in range(40):
                runner.apply_events(
                    self._churn_events(runner.graph, rng, next_id)
                )
                next_id += 1
                stats.append(runner.step())
            return stats

        portable, swept = _paired_runners(lambda: mesh_3d(6), seed=5)
        assert run(portable) == run(swept)

    def test_sparse_ids_fall_back_to_dict_path(self):
        # An id far beyond 4x the vertex count ends table eligibility.
        self._assert_arrival_retires_the_table(10_000_000, 10_000_001)

    def test_non_int_arrival_falls_back_safely(self):
        self._assert_arrival_retires_the_table("late-comer", "later-comer")

    def _assert_arrival_retires_the_table(self, arrival, departure):
        """An id outside the dense regime retires the table for good; the
        timeline stays the portable path's either way."""
        portable, swept = _paired_runners(lambda: mesh_3d(4), seed=0)
        g = swept.graph
        assert portable.step() == swept.step()
        assert g.id_table() is not None
        rounds = [
            [AddVertex(arrival), AddEdge(arrival, 0)],
            [AddVertex(departure), RemoveVertex(arrival)],
            [AddEdge(3, 17)],
        ]
        for events in rounds:
            assert portable.apply_events(events) == swept.apply_events(events)
            assert g.id_table() is None  # … and it never comes back
            for _ in range(3):
                assert portable.step() == swept.step()
        g.validate()
        swept.state.validate()
        swept.metrics.cross_check()

    def test_unwitnessed_interning_is_seen_by_the_next_sweep(self):
        """Interning nobody told the runner about is interning like any
        other: the table and the column already hold it."""
        g = mesh_3d(4)
        runner = _runner(g, seed=0)
        runner.step()
        g.add_vertex(900)
        g.add_edge(900, 0)
        runner.state.assign(900, 0)
        runner.metrics.rebuild()
        runner._active.add(900)
        runner.step()
        if g.id_table() is not None:
            assert g.id_table()[900] == g.slot_index[900]
        g.validate()
        runner.state.validate()

    @needs_numpy
    def test_aborted_removal_never_yields_wrong_slots(self):
        """A removal that reaches the state but never the graph leaves the
        vertex interned — and the table says so."""
        g = mesh_3d(3)
        runner = _runner(g, seed=0, k=2)
        runner.step()
        victim = next(iter(g.vertices()))
        runner.state.remove_vertex(victim)  # … and the graph never hears
        g.add_vertex(2000)
        runner.state.assign(2000, 0)
        slots = runner._sweeper._candidate_slots([victim, 2000])
        assert slots[0] == g.slot_index[victim]  # not a stale -1
        assert slots[1] == g.slot_index[2000]
        g.validate()
        runner.state.validate()


# ----------------------------------------------------------------------
# Bulk set-up: constructor / add_edges / ring_lattice against the
# per-edge oracle.
# ----------------------------------------------------------------------

def mirrored(edges=None, vertices=None):
    """A graph whose CSR mirror exists before it is filled, so every
    mutation after the first build goes down the marking path."""
    graph = Graph()
    graph.ensure_csr()
    graph.add_vertices(vertices or ())
    graph.add_edges(edges or ())
    return graph


# Each bulk build against the per-item oracle, before the first mirror
# build (nothing marked) and after it (marks, then a dirty-region patch).
BUILDS = [Graph, mirrored]


def per_edge_build(cls, vertices, pairs):
    """The per-item oracle: one add_vertex / add_edge call each, in order."""
    graph = cls()
    for v in vertices:
        graph.add_vertex(v)
    for u, v in pairs:
        graph.add_edge(u, v)
    return graph


def csr_bytes(graph):
    starts, lens, indices = graph.ensure_csr()
    return bytes(starts), bytes(lens), list(graph._csr_cap), bytes(indices)


def assert_built_alike(bulk, oracle):
    assert list(bulk) == list(oracle)
    for v in oracle:
        assert list(bulk.neighbors(v)) == list(oracle.neighbors(v))
    assert bulk.num_edges == oracle.num_edges
    assert bulk.num_isolated == oracle.num_isolated
    assert bulk.slot_ids == oracle.slot_ids
    assert csr_bytes(bulk) == csr_bytes(oracle)
    table = bulk.id_table()
    assert (None if table is None else bytes(table)) == (
        None if oracle.id_table() is None else bytes(oracle.id_table())
    )
    bulk.validate()
    oracle.validate()


EDGE_IDS = st.one_of(
    st.integers(min_value=0, max_value=30),
    st.sampled_from(["a", "b", "c", "d"]),
)


class TestBulkBuild:
    @pytest.mark.parametrize("cls", BUILDS)
    def test_failed_add_edges_keeps_the_counters_exact(self, cls):
        g = cls()
        with pytest.raises(ValueError, match="self-loop"):
            g.add_edges([(1, 2), (2, 3), (4, 4)])
        assert (g.num_edges, g.num_isolated) == (2, 0)
        g.validate()

    @pytest.mark.parametrize("cls", BUILDS)
    @pytest.mark.parametrize("n, k", [(3, 1), (5, 2), (7, 3), (10, 4), (64, 3)])
    def test_ring_lattice_matches_the_per_edge_build(self, cls, n, k):
        pairs = [(v, (v + i) % n) for v in range(n) for i in range(1, k + 1)]
        assert_built_alike(
            ring_lattice(n, k, graph_cls=cls),
            per_edge_build(cls, range(n), pairs),
        )

    @pytest.mark.parametrize("cls", BUILDS)
    @given(
        pairs=st.lists(st.tuples(EDGE_IDS, EDGE_IDS), max_size=80),
        extra=st.lists(EDGE_IDS, max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_constructor_matches_the_per_edge_build(self, cls, pairs, extra):
        pairs = [(u, v) for u, v in pairs if u != v]
        pairs += [(v, u) for u, v in pairs[::3]]  # reversed duplicates
        assert_built_alike(
            cls(vertices=extra, edges=pairs),
            per_edge_build(cls, extra, pairs),
        )

    def test_marks_start_at_the_first_build(self):
        g = Graph(edges=[(0, 1), (1, 2)])
        assert not g._dirty and g.dirty_slot_count == g.num_slots
        g.add_edge(2, 5)  # no mutator marks before the first build ...
        assert not g._dirty
        g.ensure_csr()  # ... which covers every slot, then marks start
        assert not g._dirty
        g.add_edges([(2, 3)])
        g.add_vertex(9)
        assert sorted(g._dirty) == sorted(g.slot_of(v) for v in (2, 3, 9))
        g.validate()

    @pytest.mark.parametrize(
        "mutate, touched",
        [
            (lambda g: g.add_vertex(9), [9]),
            (lambda g: g.remove_vertex(1), [0, 1, 2]),
            (lambda g: g.add_edge(2, 5), [2, 5]),
            (lambda g: g.remove_edge(0, 1), [0, 1]),
            (lambda g: g.add_edges([(2, 3)]), [2, 3]),
            (lambda g: g.remove_edges([(1, 2)]), [1, 2]),
        ],
        ids=[
            "add_vertex", "remove_vertex", "add_edge", "remove_edge",
            "add_edges", "remove_edges",
        ],
    )
    def test_every_mutator_marks_only_after_the_first_build(
        self, mutate, touched
    ):
        g = Graph(edges=[(0, 1), (1, 2)])
        mutate(g)
        assert not g._dirty  # unbuilt: nothing to repair, nothing marked
        g = Graph(edges=[(0, 1), (1, 2)])
        g.ensure_csr()
        slots = {v: g.slot_of(v) for v in (0, 1, 2)}
        mutate(g)
        slots.update((v, g.slot_of(v)) for v in touched if v in g)
        assert g._dirty == {slots[v] for v in touched}
        g.validate()  # the patch repairs exactly what was marked
