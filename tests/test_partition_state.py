"""Unit tests for PartitionState bookkeeping."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import Graph
from repro.partitioning import (
    HashPartitioner,
    PartitionState,
    balanced_capacities,
)


class TestBalancedCapacities:
    def test_paper_110_percent(self):
        caps = balanced_capacities(900, 9, slack=1.10)
        assert caps == [110] * 9

    def test_rounds_up(self):
        caps = balanced_capacities(10, 3, slack=1.0)
        assert caps == [4, 4, 4]

    def test_validation(self):
        with pytest.raises(ValueError):
            balanced_capacities(10, 0)
        with pytest.raises(ValueError):
            balanced_capacities(10, 2, slack=0.5)


class TestAssignment:
    def test_assign_and_lookup(self, triangle):
        state = PartitionState(triangle, 2)
        state.assign(0, 0)
        assert state.partition_of(0) == 0
        assert state.partition_of_or_none(1) is None
        assert 0 in state
        assert 1 not in state

    def test_double_assign_rejected(self, triangle):
        state = PartitionState(triangle, 2)
        state.assign(0, 0)
        with pytest.raises(ValueError):
            state.assign(0, 1)

    def test_bad_pid_rejected(self, triangle):
        state = PartitionState(triangle, 2)
        with pytest.raises(ValueError):
            state.assign(0, 2)
        with pytest.raises(ValueError):
            state.assign(0, -1)

    def test_capacity_enforcement_optional(self, triangle):
        state = PartitionState(triangle, 2, capacities=[1, 10])
        state.assign(0, 0)
        state.assign(1, 0)  # not enforced by default
        assert state.size(0) == 2

    def test_capacity_enforcement_on(self, triangle):
        state = PartitionState(triangle, 2, capacities=[1, 10])
        state.assign(0, 0)
        with pytest.raises(ValueError):
            state.assign(1, 0, enforce_capacity=True)

    def test_capacities_length_checked(self, triangle):
        with pytest.raises(ValueError):
            PartitionState(triangle, 3, capacities=[1, 2])

    def test_default_capacity_infinite(self, triangle):
        state = PartitionState(triangle, 2)
        assert state.remaining_capacity(0) == math.inf

    def test_sizes_and_members(self, triangle):
        state = PartitionState(triangle, 2)
        state.assign(0, 0)
        state.assign(1, 1)
        state.assign(2, 1)
        assert state.sizes == [1, 2]
        assert state.members(1) == {1, 2}
        assert len(state) == 3


class TestCutTracking:
    def test_cut_counts_on_assign(self, triangle):
        state = PartitionState(triangle, 2)
        state.assign(0, 0)
        state.assign(1, 1)  # edge 0-1 cut
        assert state.cut_edges == 1
        state.assign(2, 0)  # edge 1-2 cut, edge 0-2 internal
        assert state.cut_edges == 2

    def test_move_updates_cut(self, triangle):
        state = PartitionState(triangle, 2)
        state.assign(0, 0)
        state.assign(1, 1)
        state.assign(2, 0)
        state.move(1, 0)
        assert state.cut_edges == 0
        assert state.sizes == [3, 0]

    def test_move_to_same_partition_noop(self, triangle):
        state = PartitionState(triangle, 2)
        state.assign(0, 0)
        state.move(0, 0)
        assert state.size(0) == 1

    def test_cut_ratio(self, triangle):
        state = PartitionState(triangle, 2)
        state.assign(0, 0)
        state.assign(1, 1)
        state.assign(2, 1)
        assert state.cut_ratio() == pytest.approx(2 / 3)

    def test_cut_ratio_empty_graph(self):
        state = PartitionState(Graph(), 2)
        assert state.cut_ratio() == 0.0

    def test_remove_vertex_updates_cut(self, triangle):
        state = PartitionState(triangle, 2)
        state.assign(0, 0)
        state.assign(1, 1)
        state.assign(2, 1)
        assert state.remove_vertex(0) == 0
        assert state.cut_edges == 0
        assert state.remove_vertex(0) is None

    def test_edge_mutation_notifications(self):
        g = Graph(vertices=[0, 1, 2])
        state = PartitionState(g, 2)
        state.assign(0, 0)
        state.assign(1, 1)
        state.assign(2, 0)
        g.add_edge(0, 1)
        state.on_edge_added(0, 1)
        assert state.cut_edges == 1
        g.add_edge(0, 2)
        state.on_edge_added(0, 2)
        assert state.cut_edges == 1
        g.remove_edge(0, 1)
        state.on_edge_removed(0, 1)
        assert state.cut_edges == 0

    def test_neighbour_partition_counts(self, two_cliques):
        state = PartitionState(two_cliques, 2)
        for v in range(4):
            state.assign(v, 0)
        for v in range(4, 8):
            state.assign(v, 1)
        counts = state.neighbour_partition_counts(3)  # bridge vertex
        assert counts == {0: 3, 1: 1}

    def test_neighbour_counts_ignore_unassigned(self, triangle):
        state = PartitionState(triangle, 2)
        state.assign(0, 0)
        assert state.neighbour_partition_counts(1) == {0: 1}

    def test_incremental_matches_recompute_after_churn(self, small_mesh):
        from repro.utils import make_rng

        rng = make_rng(0, "churn")
        state = PartitionState(small_mesh, 4)
        vertices = list(small_mesh.vertices())
        for v in vertices:
            state.assign(v, rng.randrange(4))
        for _ in range(500):
            v = vertices[rng.randrange(len(vertices))]
            state.move(v, rng.randrange(4))
        assert state.cut_edges == state.recompute_cut_edges()
        state.validate()


class TestMetricsAndCopy:
    def test_imbalance_perfect(self, two_cliques):
        state = PartitionState(two_cliques, 2)
        for v in range(4):
            state.assign(v, 0)
        for v in range(4, 8):
            state.assign(v, 1)
        assert state.imbalance() == 1.0

    def test_imbalance_skewed(self, two_cliques):
        state = PartitionState(two_cliques, 2)
        for v in range(8):
            state.assign(v, 0)
        assert state.imbalance() == 2.0

    def test_imbalance_empty(self, triangle):
        assert PartitionState(triangle, 2).imbalance() == 1.0

    def test_copy_independent(self, triangle):
        state = PartitionState(triangle, 2)
        state.assign(0, 0)
        state.assign(1, 1)
        state.assign(2, 1)
        clone = state.copy()
        clone.move(1, 0)
        clone.move(2, 0)
        assert state.partition_of(1) == 1
        assert clone.partition_of(1) == 0
        assert state.sizes != clone.sizes
        assert state.cut_edges == 2 and clone.cut_edges == 0

    def test_validate_catches_drift(self, triangle):
        state = PartitionState(triangle, 2)
        state.assign(0, 0)
        state._cut_edges = 99
        with pytest.raises(AssertionError):
            state.validate()

    def test_validate_catches_size_drift(self, triangle):
        state = PartitionState(triangle, 2)
        state.assign(0, 0)
        state._sizes[1] += 1
        with pytest.raises(AssertionError, match="size drift"):
            state.validate()
        # A dict entry no size counts (its partition out of range) too.
        state._sizes[1] -= 1
        state._assignment[1] = 5
        with pytest.raises(AssertionError, match="size drift"):
            state.validate()

    def test_validate_catches_column_drift(self, triangle):
        state = PartitionState(triangle, 2)
        state.assign(0, 0)
        state.assign(1, 1)
        state.validate()
        for slot, pid in ((triangle.slot_of(1), 0), (triangle.slot_of(2), 1)):
            column = state.partition_column()
            before, column[slot] = column[slot], pid
            with pytest.raises(AssertionError, match=f"column drift at slots \\[{slot}\\]"):
                state.validate()
            column[slot] = before
        state.validate()

    def test_num_partitions_validation(self, triangle):
        with pytest.raises(ValueError):
            PartitionState(triangle, 0)


# ----------------------------------------------------------------------
# The bulk load: one assign_many == the per-vertex assign loop
# ----------------------------------------------------------------------

LABELS = st.sampled_from(["a", "b", "c", "hub", "v:1", "v:2"])


@st.composite
def graphs(draw):
    """A small graph over int, label or mixed ids, isolated vertices and
    the empty graph included, with an id space to draw arrivals from."""
    ids = draw(st.sampled_from([
        st.integers(0, 30), LABELS, st.one_of(st.integers(0, 30), LABELS),
    ]))
    edges = draw(st.lists(st.tuples(ids, ids), max_size=40))
    isolated = draw(st.lists(ids, max_size=6))
    graph = Graph(vertices=isolated)
    graph.add_edges((u, v) for u, v in edges if u != v)
    return graph, ids


def _loop(graph, k, vertices, pids, state=None):
    state = PartitionState(graph, k) if state is None else state
    for vertex, pid in zip(vertices, pids):
        state.assign(vertex, pid)
    return state


def _same_state(bulk, loop):
    assert list(bulk.assignment_items()) == list(loop.assignment_items())
    assert bulk.sizes == loop.sizes
    assert bulk.cut_edges == loop.cut_edges
    assert bulk.partition_column().tobytes() == loop.partition_column().tobytes()
    assert bulk.validate() and loop.validate()


@given(drawn=graphs(), k=st.integers(1, 5), data=st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_assign_many_equals_the_assign_loop(drawn, k, data):
    """From empty, and onto a state that already holds a prefix whose
    edges reach the new vertices (old–new and new–new cut edges)."""
    graph, _ = drawn
    vertices = list(graph.vertices())
    pids = data.draw(st.lists(
        st.integers(0, k - 1), min_size=len(vertices), max_size=len(vertices)
    ))
    bulk = PartitionState(graph, k)
    bulk.assign_many(vertices, pids)
    _same_state(bulk, _loop(graph, k, vertices, pids))
    cut = data.draw(st.integers(0, len(vertices)))
    bulk = _loop(graph, k, vertices[:cut], pids[:cut])
    bulk.assign_many(vertices[cut:], pids[cut:])
    _same_state(bulk, _loop(graph, k, vertices, pids))


@given(drawn=graphs(), k=st.integers(1, 5), data=st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_hash_partition_and_place_many_equal_the_place_loop(drawn, k, data):
    """The initial placement and ingest's arrivals (isolated new vertices
    placed before their first edge) through the one bulk path."""
    graph, ids = drawn
    vertices = list(graph.vertices())
    loop = PartitionState(graph, k)
    for vertex in vertices:
        HashPartitioner().place(loop, vertex)
    _same_state(HashPartitioner().partition(graph, k), loop)
    bulk = HashPartitioner().partition(graph, k)
    arrivals = [v for v in data.draw(st.lists(ids, max_size=8, unique=True))
                if v not in graph]
    graph.add_vertices(arrivals)
    placements = HashPartitioner().place_many(bulk, arrivals)
    for vertex in arrivals:
        HashPartitioner().place(loop, vertex)
    assert placements == [(v, loop.partition_of(v)) for v in arrivals]
    _same_state(bulk, loop)
