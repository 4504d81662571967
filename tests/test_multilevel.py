"""Unit tests for the multilevel (METIS-like) partitioner."""

import pytest

from repro.generators import mesh_3d
from repro.partitioning import HashPartitioner, MultilevelPartitioner
from repro.partitioning.multilevel.coarsen import coarsen_once, coarsen_to_size
from repro.partitioning.multilevel.initial import (
    greedy_bisection,
    pseudo_peripheral_vertex,
)
from repro.partitioning.multilevel.refine import fm_refine
from repro.partitioning.multilevel.weighted import WeightedGraph
from repro.utils import make_rng


def lift(graph):
    return WeightedGraph.from_graph(graph)


class TestWeightedGraph:
    def test_from_graph_weights(self, triangle):
        wg = lift(triangle)
        assert wg.num_vertices == 3
        assert wg.total_vertex_weight == 3
        assert all(w == 1 for _, __, w in wg.edges())

    def test_parallel_edges_accumulate(self):
        wg = WeightedGraph()
        wg.add_vertex("a")
        wg.add_vertex("b")
        wg.add_edge("a", "b", 2)
        wg.add_edge("a", "b", 3)
        assert wg.neighbors("a")["b"] == 5

    def test_self_edge_ignored(self):
        wg = WeightedGraph()
        wg.add_vertex("a")
        wg.add_edge("a", "a", 5)
        assert wg.weighted_degree("a") == 0

    def test_duplicate_vertex_rejected(self):
        wg = WeightedGraph()
        wg.add_vertex("a")
        with pytest.raises(ValueError):
            wg.add_vertex("a")

    def test_cut_weight(self, triangle):
        wg = lift(triangle)
        assignment = {0: 0, 1: 1, 2: 1}
        assert wg.cut_weight(assignment) == 2


class TestCoarsening:
    def test_preserves_total_vertex_weight(self, small_mesh):
        wg = lift(small_mesh)
        level = coarsen_once(wg, make_rng(0))
        assert level.coarse.total_vertex_weight == wg.total_vertex_weight

    def test_shrinks_vertex_count(self, small_mesh):
        wg = lift(small_mesh)
        level = coarsen_once(wg, make_rng(0))
        assert level.coarse.num_vertices < wg.num_vertices
        # heavy-edge matching roughly halves a mesh
        assert level.coarse.num_vertices <= 0.75 * wg.num_vertices

    def test_projection_covers_all_fine_vertices(self, small_mesh):
        wg = lift(small_mesh)
        level = coarsen_once(wg, make_rng(1))
        coarse_assignment = {v: 0 for v in level.coarse.vertices()}
        projected = level.project(coarse_assignment)
        assert set(projected) == set(wg.vertices())

    def test_cut_preserved_under_projection(self, small_mesh):
        # The coarse cut of an assignment equals the fine cut of its projection.
        wg = lift(small_mesh)
        level = coarsen_once(wg, make_rng(2))
        rng = make_rng(3)
        coarse_assignment = {
            v: rng.randrange(2) for v in level.coarse.vertices()
        }
        fine_assignment = level.project(coarse_assignment)
        assert wg.cut_weight(fine_assignment) == level.coarse.cut_weight(
            coarse_assignment
        )

    def test_coarsen_to_size(self, small_mesh):
        wg = lift(small_mesh)
        levels = coarsen_to_size(wg, 30, make_rng(0))
        assert levels
        assert levels[-1].coarse.num_vertices <= max(
            30, int(0.95 * levels[-1].fine.num_vertices)
        )


class TestInitialBisection:
    def test_pseudo_peripheral_has_max_eccentricity(self):
        # On a 5³ mesh the diameter is 3·(5−1)=12 and only corners reach it;
        # the repeated-BFS walk must land on such a peripheral vertex
        # (possibly the start itself when the start is already a corner).
        g = mesh_3d(5)
        wg = lift(g)
        start = (2 * 5 + 2) * 5 + 2  # the centre vertex
        far = pseudo_peripheral_vertex(wg, start)
        distances = {far: 0}
        frontier = [far]
        while frontier:
            nxt = []
            for v in frontier:
                for w in wg.neighbors(v):
                    if w not in distances:
                        distances[w] = distances[v] + 1
                        nxt.append(w)
            frontier = nxt
        assert max(distances.values()) == 12

    def test_bisection_is_total_and_near_target(self, small_mesh):
        wg = lift(small_mesh)
        assignment = greedy_bisection(
            wg, wg.total_vertex_weight / 2, make_rng(0)
        )
        assert set(assignment) == set(wg.vertices())
        weight0 = sum(
            wg.vertex_weight[v] for v, s in assignment.items() if s == 0
        )
        assert abs(weight0 - wg.total_vertex_weight / 2) < 0.2 * wg.total_vertex_weight

    def test_empty_graph(self):
        assert greedy_bisection(WeightedGraph(), 1, make_rng(0)) == {}

    def test_disconnected_graph_fully_assigned(self):
        wg = WeightedGraph()
        for v in range(6):
            wg.add_vertex(v)
        wg.add_edge(0, 1)
        wg.add_edge(2, 3)  # components: {0,1},{2,3},{4},{5}
        assignment = greedy_bisection(wg, 3, make_rng(0))
        assert set(assignment) == set(range(6))


class TestRefinement:
    def test_never_worsens_cut(self, small_mesh):
        wg = lift(small_mesh)
        rng = make_rng(5)
        assignment = {v: rng.randrange(2) for v in wg.vertices()}
        before = wg.cut_weight(assignment)
        after = fm_refine(wg, assignment, wg.total_vertex_weight / 2)
        assert after <= before
        assert after == wg.cut_weight(assignment)

    def test_substantial_improvement_from_random(self, small_mesh):
        wg = lift(small_mesh)
        rng = make_rng(6)
        assignment = {v: rng.randrange(2) for v in wg.vertices()}
        before = wg.cut_weight(assignment)
        after = fm_refine(wg, assignment, wg.total_vertex_weight / 2)
        assert after < 0.7 * before

    def test_balance_respected(self, small_mesh):
        wg = lift(small_mesh)
        rng = make_rng(7)
        assignment = {v: rng.randrange(2) for v in wg.vertices()}
        tolerance = 0.05
        fm_refine(
            wg, assignment, wg.total_vertex_weight / 2, tolerance=tolerance
        )
        weight0 = sum(
            wg.vertex_weight[v] for v, s in assignment.items() if s == 0
        )
        band = tolerance * wg.total_vertex_weight
        assert abs(weight0 - wg.total_vertex_weight / 2) <= band + 1


class TestKWay:
    @pytest.mark.parametrize("k", [2, 3, 5, 9])
    def test_produces_k_nonempty_partitions(self, small_mesh, k):
        state = MultilevelPartitioner(seed=0).partition(small_mesh, k)
        assert len(state) == small_mesh.num_vertices
        assert all(size > 0 for size in state.sizes)
        state.validate()

    def test_beats_hash_substantially_on_mesh(self):
        g = mesh_3d(8)
        hsh = HashPartitioner().partition(g, 9)
        metis = MultilevelPartitioner(seed=0).partition(g, 9)
        assert metis.cut_ratio() < 0.5 * hsh.cut_ratio()

    def test_reasonable_balance(self):
        g = mesh_3d(8)
        state = MultilevelPartitioner(seed=0).partition(g, 9)
        assert state.imbalance() < 1.35

    def test_deterministic(self, small_powerlaw):
        a = MultilevelPartitioner(seed=2).partition(small_powerlaw, 4)
        b = MultilevelPartitioner(seed=2).partition(small_powerlaw, 4)
        assert dict(a.assignment_items()) == dict(b.assignment_items())

    def test_works_on_powerlaw(self, small_powerlaw):
        state = MultilevelPartitioner(seed=0).partition(small_powerlaw, 4)
        assert len(state) == small_powerlaw.num_vertices
        hsh = HashPartitioner().partition(small_powerlaw, 4)
        assert state.cut_ratio() < hsh.cut_ratio()

    def test_single_partition(self, triangle):
        state = MultilevelPartitioner().partition(triangle, 1)
        assert state.sizes == [3]
        assert state.cut_edges == 0
