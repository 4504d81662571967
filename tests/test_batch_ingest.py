"""Batched event ingestion: batch-vs-loop equivalence and the bulk APIs.

The contract under test is the one :mod:`repro.core.ingest` documents:
dispatching ``AdaptiveRunner.apply_events`` through the array path must be
**bit-identical** to the per-event loop — same changed counts, same
assignment, same metrics, same active set, and (because neither path draws
randomness) the same RNG stream for every subsequent iteration.  The
property tests replay arbitrary event interleavings — duplicate adds,
removes of absent edges, add/remove cancellations inside one batch,
implicit endpoint creation, vertex events splitting edge runs — through
paired runners and compare everything observable.

The golden timelines pin the same equivalence on full catalog scenarios
(in both the bulk-ingest and the per-event leg); these tests cover the
adversarial corners fixtures cannot reach.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ingest
from repro.core.balance import EdgeBalance
from repro.core.runner import AdaptiveConfig, AdaptiveRunner
from repro.graph import AddEdge, AddVertex, Graph, RemoveEdge, RemoveVertex
from repro.graph.events import EventBatch
from repro.partitioning import HashPartitioner, balanced_capacities

needs_numpy = pytest.mark.skipif(
    ingest._np is None, reason="batched ingestion needs numpy"
)

INT_IDS = st.integers(min_value=0, max_value=13)
STR_IDS = st.sampled_from(["s0", "s1", "s2", "s3"])
MIXED_IDS = st.one_of(INT_IDS, STR_IDS)


def event_strategy(ids):
    pair = st.tuples(ids, ids).filter(lambda p: p[0] != p[1])
    return st.one_of(
        pair.map(lambda p: AddEdge(*p)),
        pair.map(lambda p: RemoveEdge(*p)),
        st.builds(AddVertex, ids),
        st.builds(RemoveVertex, ids),
    )


def seed_edges(ids):
    return st.sets(
        st.tuples(ids, ids).filter(lambda p: p[0] != p[1]), max_size=20
    )


def _paired_runners(per_event_loop, edges, heuristic="greedy", seed=3):
    """Two identical runners: the bulk path and the per-event oracle."""
    runners = []
    for _ in range(2):
        graph = Graph(edges=list(edges))
        caps = balanced_capacities(max(1, graph.num_vertices), 3, 1.10)
        state = HashPartitioner().partition(graph, 3, list(caps))
        config = AdaptiveConfig(seed=seed, heuristic=heuristic)
        runners.append(AdaptiveRunner(graph, state, config))
    batch, loop = runners
    assert batch._ingestor is not None, "batch path must engage"
    return batch, per_event_loop(loop)


def _assert_equivalent(batch, loop):
    assert batch.state.cut_edges == loop.state.cut_edges
    assert batch.state.sizes == loop.state.sizes
    assert dict(batch.state.assignment_items()) == dict(
        loop.state.assignment_items()
    )
    assert batch.metrics.loads == loop.metrics.loads
    assert batch.active_vertices == loop.active_vertices
    assert set(batch.graph.vertices()) == set(loop.graph.vertices())
    assert {v: set(batch.graph.neighbors(v)) for v in batch.graph.vertices()} == {
        v: set(loop.graph.neighbors(v)) for v in loop.graph.vertices()
    }
    batch.graph.validate()
    batch.state.validate()
    batch.metrics.cross_check()


@needs_numpy
class TestBatchLoopEquivalence:
    @given(
        edges=seed_edges(INT_IDS),
        rounds=st.lists(
            st.lists(event_strategy(INT_IDS), max_size=30), max_size=4
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_int_ids_identical_across_paths(
        self, per_event_loop, edges, rounds
    ):
        batch, loop = _paired_runners(per_event_loop, edges)
        for events in rounds:
            assert batch.apply_events(events) == loop.apply_events(events)
            # One iteration per round: the shared RNG stream, the active
            # set and the sweeper mirror all feed the step — any batch
            # drift surfaces as diverging IterationStats.
            assert batch.step() == loop.step()
        _assert_equivalent(batch, loop)
        assert list(batch.timeline) == list(loop.timeline)

    @given(
        edges=seed_edges(MIXED_IDS),
        rounds=st.lists(
            st.lists(event_strategy(MIXED_IDS), max_size=25), max_size=3
        ),
    )
    @settings(max_examples=75, deadline=None)
    def test_mixed_ids_identical_across_paths(
        self, per_event_loop, edges, rounds
    ):
        """String ids force the dict-lookup slot path; same contract."""
        batch, loop = _paired_runners(per_event_loop, edges)
        for events in rounds:
            assert batch.apply_events(events) == loop.apply_events(events)
            assert batch.step() == loop.step()
        _assert_equivalent(batch, loop)

    @given(
        edges=seed_edges(INT_IDS),
        rounds=st.lists(
            st.lists(event_strategy(INT_IDS), max_size=25), max_size=3
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_non_greedy_heuristic_identical_across_paths(
        self, per_event_loop, edges, rounds
    ):
        """No sweeper (hysteresis heuristic): the bulk path needs none."""
        batch, loop = _paired_runners(
            per_event_loop, edges, heuristic="hysteresis"
        )
        assert batch._sweeper is None
        for events in rounds:
            assert batch.apply_events(events) == loop.apply_events(events)
            assert batch.step() == loop.step()
        _assert_equivalent(batch, loop)

    def test_cancelling_batch_leaves_graph_untouched_but_counts_changes(
        self, per_event_loop
    ):
        batch, loop = _paired_runners(per_event_loop, [(0, 1)])
        events = [AddEdge(2, 3), RemoveEdge(2, 3), AddEdge(0, 1),
                  RemoveEdge(0, 1), AddEdge(0, 1)]
        assert batch.apply_events(events) == loop.apply_events(events) == 4
        _assert_equivalent(batch, loop)
        assert batch.graph.has_edge(0, 1)
        assert not batch.graph.has_edge(2, 3)
        assert 2 in batch.graph and 3 in batch.graph  # implicit creation

    def test_self_loop_add_falls_back_and_raises_like_the_loop(
        self, per_event_loop
    ):
        batch, loop = _paired_runners(per_event_loop, [(0, 1)])
        events = [AddEdge(1, 2), AddEdge(3, 3)]
        with pytest.raises(ValueError, match="self-loop"):
            batch.apply_events(events)
        with pytest.raises(ValueError, match="self-loop"):
            loop.apply_events(events)
        # Both paths applied the prefix before raising — identical state.
        assert batch.graph.has_edge(1, 2) and loop.graph.has_edge(1, 2)
        assert dict(batch.state.assignment_items()) == dict(
            loop.state.assignment_items()
        )

    def test_unknown_event_type_falls_back_to_the_loop(self, per_event_loop):
        batch, _ = _paired_runners(per_event_loop, [(0, 1)])
        with pytest.raises(TypeError, match="unknown graph event"):
            batch.apply_events([AddEdge(1, 2), object()])
        assert batch.graph.has_edge(1, 2)  # prefix applied, loop semantics


class TestIngestorGating:
    def _runner(self, **config_fields):
        graph = Graph([(0, 1), (1, 2)])
        caps = balanced_capacities(graph.num_vertices, 2, 1.10)
        state = HashPartitioner().partition(graph, 2, list(caps))
        return AdaptiveRunner(graph, state, AdaptiveConfig(**config_fields))

    def test_degree_sensitive_balance_falls_back(self):
        assert self._runner(balance=EdgeBalance())._ingestor is None


class TestEventBatch:
    def test_segments_split_on_vertex_events(self):
        batch = EventBatch.from_events(
            [AddEdge(0, 1), RemoveEdge(0, 1), AddVertex(9),
             AddEdge(2, 3), RemoveVertex(9)]
        )
        assert not batch.unsupported
        assert [s[0] for s in batch.segments] == [
            "edges", "loop", "edges", "loop"
        ]
        kinds, us, vs = batch.segments[0][1:]
        assert kinds == [True, False] and us == [0, 0] and vs == [1, 1]
        assert batch.num_events == 5
        assert batch.num_edge_events == 3

    def test_self_loop_add_marks_unsupported(self):
        assert EventBatch.from_events([AddEdge(1, 1)]).unsupported

    def test_self_loop_remove_is_supported(self):
        batch = EventBatch.from_events([RemoveEdge(1, 1)])
        assert not batch.unsupported  # the loop treats it as a no-op

    def test_unknown_event_marks_unsupported(self):
        assert EventBatch.from_events([AddEdge(0, 1), "bogus"]).unsupported


def mirrored(edges=()):
    """A graph whose CSR mirror is built, so bulk ops take the marking
    path and ``validate`` checks the patched mirror."""
    graph = Graph(edges)
    graph.ensure_csr()
    return graph


class TestBulkGraphOps:
    @pytest.mark.parametrize("graph_cls", [Graph, mirrored])
    def test_add_edges_flags_and_counters(self, graph_cls):
        graph = graph_cls([(0, 1)])
        flags = graph.add_edges([(0, 1), (1, 2), (2, 3), (1, 2)])
        assert flags == [False, True, True, False]
        assert graph.num_edges == 3
        assert graph.num_isolated == 0
        graph.validate()

    @pytest.mark.parametrize("graph_cls", [Graph, mirrored])
    def test_remove_edges_flags_and_isolation(self, graph_cls):
        graph = graph_cls([(0, 1), (1, 2)])
        flags = graph.remove_edges([(0, 1), (0, 1), (5, 6), (2, 1)])
        assert flags == [True, False, False, True]
        assert graph.num_edges == 0
        assert graph.num_isolated == 3
        graph.validate()

    @pytest.mark.parametrize("graph_cls", [Graph, mirrored])
    def test_add_vertices_counts_new_only(self, graph_cls):
        graph = graph_cls([(0, 1)])
        assert graph.add_vertices([0, 7, 8, 7]) == 2
        assert graph.num_vertices == 4

    def test_compact_add_edges_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph().add_edges([(4, 4)])

    def test_compact_bulk_ops_keep_csr_consistent(self):
        graph = Graph([(0, 1), (1, 2)])
        graph.ensure_csr()
        graph.add_edges([(2, 3), (3, 4), (0, 2)])
        graph.remove_edges([(0, 1)])
        graph.validate()  # validates the CSR mirror against adjacency

    def test_dirty_slot_count_tracks_pending_repairs(self):
        graph = Graph([(0, 1)])
        assert graph.dirty_slot_count == graph.num_slots  # never built
        graph.ensure_csr()
        assert graph.dirty_slot_count == 0
        graph.add_edges([(1, 2)])
        assert graph.dirty_slot_count == 2  # endpoint slots of the new edge
        graph.ensure_csr()
        assert graph.dirty_slot_count == 0


class TestBulkStateAndPlacement:
    def _state(self, k=3):
        graph = Graph([(0, 1), (1, 2)])
        caps = balanced_capacities(graph.num_vertices, k, 2.0)
        return graph, HashPartitioner().partition(graph, k, list(caps))

    def test_assign_many_matches_sequential_assign(self):
        graph, state = self._state()
        twin = state.copy()
        graph.add_vertices([10, 11, 12])
        state.assign_many([10, 11, 12], [0, 2, 1])
        for v, pid in [(10, 0), (11, 2), (12, 1)]:
            twin.assign(v, pid)
        assert dict(state.assignment_items()) == dict(twin.assignment_items())
        assert state.sizes == twin.sizes
        assert state.cut_edges == twin.cut_edges
        assert state.partition_column() == twin.partition_column()
        state.validate()

    def test_assign_many_rejects_reassignment_and_bad_pid(self):
        graph, state = self._state()
        with pytest.raises(ValueError, match="already assigned"):
            state.assign_many([0], [1])
        graph.add_vertex(99)
        with pytest.raises(ValueError, match="out of range"):
            state.assign_many([99], [7])

    def test_assign_many_partial_application_keeps_the_column_exact(self):
        # A mid-batch failure leaves the items before it applied — in the
        # dict, the sizes and the partition column alike.
        graph, state = self._state()
        graph.add_vertices([30, 31])
        with pytest.raises(ValueError, match="already assigned"):
            state.assign_many([30, 0], [0, 1])  # vertex 0 pre-assigned
        assert state.partition_of(30) == 0
        assert state.partition_column()[graph.slot_of(30)] == 0
        assert state.partition_column()[graph.slot_of(31)] == -1
        state.validate()

    def test_apply_cut_delta(self):
        _, state = self._state()
        before = state.cut_edges
        state.apply_cut_delta(4)
        state.apply_cut_delta(-4)
        assert state.cut_edges == before

    def test_hash_place_many_matches_sequential_place(self):
        graph, state = self._state()
        twin = state.copy()
        new = [20, 21, "w", 23]
        graph.add_vertices(new)
        placements = HashPartitioner().place_many(state, new)
        for v in new:
            HashPartitioner().place(twin, v)
        assert dict(state.assignment_items()) == dict(twin.assignment_items())
        assert placements == [(v, twin.partition_of(v)) for v in new]


@needs_numpy
class TestSweeperBulkHooks:
    """The arrays the bulk path reads (the graph's id table, the state's
    partition column) stay exact through it with nobody telling them."""

    def _runner(self):
        graph = Graph([(i, i + 1) for i in range(8)])
        caps = balanced_capacities(graph.num_vertices, 3, 1.10)
        state = HashPartitioner().partition(graph, 3, list(caps))
        return AdaptiveRunner(graph, state, AdaptiveConfig(seed=0))

    def test_batch_placements_keep_mirror_and_table_warm(self):
        runner = self._runner()
        table = runner.graph.id_table()
        assert table is not None  # built at construction, off the hot path
        # A growth round: new endpoints appear via implicit edge creation.
        runner.apply_events([AddEdge(100, 0), AddEdge(101, 4), AddEdge(102, 7)])
        assert runner.graph.id_table() is table  # extended, never rebuilt
        runner.graph.validate()  # table == slot_index
        runner.state.validate()  # column == assignment
        runner.step()
        runner.metrics.cross_check()

    def test_lookup_slots_flags_absent_ids(self):
        runner = self._runner()
        slots = runner.graph.slots_of([0, 5, 4096, -3])
        assert slots[0] == runner.graph.slot_of(0)
        assert slots[1] == runner.graph.slot_of(5)
        assert slots[2] == -1 and slots[3] == -1
