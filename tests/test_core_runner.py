"""Unit and behavioural tests for the AdaptiveRunner (static graphs)."""

import pytest

from repro.core import AdaptiveConfig, AdaptiveRunner, EdgeBalance, run_to_convergence
from repro.generators import erdos_renyi_graph, mesh_3d
from repro.partitioning import (
    HashPartitioner,
    RandomPartitioner,
    balanced_capacities,
)


def hash_state(graph, k=4, slack=1.10):
    caps = balanced_capacities(graph.num_vertices, k, slack)
    return HashPartitioner().partition(graph, k, list(caps))


class TestConfig:
    def test_willingness_range(self):
        with pytest.raises(ValueError):
            AdaptiveConfig(willingness=1.5)
        with pytest.raises(ValueError):
            AdaptiveConfig(willingness=-0.1)

    def test_heuristic_by_name(self):
        cfg = AdaptiveConfig(heuristic="greedy")
        assert cfg.heuristic.name == "greedy"

    def test_bad_heuristic_type(self):
        with pytest.raises(TypeError):
            AdaptiveConfig(heuristic=42)


class TestSingleStep:
    def test_step_produces_stats(self, small_mesh):
        state = hash_state(small_mesh)
        runner = AdaptiveRunner(small_mesh, state, AdaptiveConfig(seed=0))
        stats = runner.step()
        assert stats.iteration == 1
        assert stats.migrations >= 0
        assert stats.cut_edges == state.cut_edges
        assert stats.migrations <= stats.wanted_migrations

    def test_zero_willingness_freezes(self, small_mesh):
        state = hash_state(small_mesh)
        before = dict(state.assignment_items())
        runner = AdaptiveRunner(
            small_mesh, state, AdaptiveConfig(willingness=0.0, seed=0)
        )
        for _ in range(5):
            stats = runner.step()
            assert stats.migrations == 0
        assert dict(state.assignment_items()) == before

    def test_full_willingness_moves_each_round(self, small_mesh):
        state = hash_state(small_mesh)
        runner = AdaptiveRunner(
            small_mesh, state, AdaptiveConfig(willingness=1.0, seed=0)
        )
        stats = runner.step()
        assert stats.migrations > 0

    def test_migrations_never_overfill(self, small_mesh):
        # Hash loading may already exceed a tight capacity; the quota
        # mechanism guarantees migrations never push a partition *further*
        # over: each partition stays under max(capacity, initial size).
        from repro.core import VertexBalance

        state = hash_state(small_mesh, k=4, slack=1.05)
        initial_sizes = state.sizes
        runner = AdaptiveRunner(
            small_mesh,
            state,
            AdaptiveConfig(seed=1, balance=VertexBalance(slack=1.05)),
        )
        caps = runner.capacities
        for _ in range(40):
            runner.step()
            for pid in range(4):
                assert state.size(pid) <= max(caps[pid], initial_sizes[pid])

    def test_runner_syncs_state_capacities_with_policy(self, small_mesh):
        # The balance policy is the source of truth; a stale vector set by
        # the initial partitioner must be overwritten at construction.
        state = hash_state(small_mesh, k=4, slack=3.0)
        runner = AdaptiveRunner(small_mesh, state, AdaptiveConfig(seed=0))
        assert state.capacities == runner.capacities

    def test_cut_bookkeeping_stays_exact(self, small_mesh):
        state = hash_state(small_mesh)
        runner = AdaptiveRunner(small_mesh, state, AdaptiveConfig(seed=2))
        for _ in range(15):
            runner.step()
        assert state.cut_edges == state.recompute_cut_edges()


class TestConvergence:
    def test_converges_and_improves_mesh(self):
        graph = mesh_3d(8)
        state = hash_state(graph, k=4)
        initial = state.cut_ratio()
        runner, timeline = run_to_convergence(
            graph, state, AdaptiveConfig(seed=0, quiet_window=10)
        )
        assert runner.converged
        assert runner.convergence_time is not None
        assert state.cut_ratio() < 0.5 * initial
        # exponential decay: later iterations migrate less than early ones
        early = sum(s.migrations for s in timeline[:5])
        late = sum(s.migrations for s in timeline[-5:])
        assert late < early

    def test_deterministic_given_seed(self):
        results = []
        for _ in range(2):
            graph = mesh_3d(6)
            state = hash_state(graph)
            runner, _ = run_to_convergence(
                graph, state, AdaptiveConfig(seed=7, quiet_window=10)
            )
            results.append(
                (dict(state.assignment_items()), runner.convergence_time)
            )
        assert results[0] == results[1]

    def test_seeds_change_outcome(self):
        finals = set()
        for seed in (0, 1):
            graph = mesh_3d(6)
            state = hash_state(graph)
            run_to_convergence(
                graph, state, AdaptiveConfig(seed=seed, quiet_window=10)
            )
            finals.add(state.cut_edges)
        # different seeds explore different local optima (almost surely)
        assert len(finals) >= 1  # sanity; exact equality is not required

    def test_max_iterations_bound(self, small_mesh):
        state = hash_state(small_mesh)
        runner = AdaptiveRunner(
            small_mesh, state, AdaptiveConfig(seed=0, quiet_window=500)
        )
        runner.run_until_convergence(max_iterations=12)
        assert runner.iteration == 12
        assert not runner.converged

    def test_random_graph_barely_improves(self):
        # ER graphs have no locality to exploit; improvement stays modest.
        graph = erdos_renyi_graph(300, num_edges=1200, seed=0)
        state = hash_state(graph, k=4)
        initial = state.cut_ratio()
        run_to_convergence(graph, state, AdaptiveConfig(seed=0, quiet_window=10))
        mesh = mesh_3d(7)
        mesh_state = hash_state(mesh, k=4)
        mesh_initial = mesh_state.cut_ratio()
        run_to_convergence(
            mesh, mesh_state, AdaptiveConfig(seed=0, quiet_window=10)
        )
        er_gain = initial - state.cut_ratio()
        mesh_gain = mesh_initial - mesh_state.cut_ratio()
        assert mesh_gain > er_gain

    def test_initial_strategy_insensitivity(self):
        # §4.2.1: the heuristic reaches similar quality from HSH and RND.
        finals = []
        for partitioner in (HashPartitioner(), RandomPartitioner(seed=0)):
            graph = mesh_3d(7)
            caps = balanced_capacities(graph.num_vertices, 4)
            state = partitioner.partition(graph, 4, caps)
            run_to_convergence(
                graph, state, AdaptiveConfig(seed=0, quiet_window=10)
            )
            finals.append(state.cut_ratio())
        assert abs(finals[0] - finals[1]) < 0.10


class TestNeighbourChasing:
    """§2.3: 'Local symmetries in the graph may cause pairs ... of neighbour
    vertices [to] independently decide to "chase each other" in the same
    iteration'.  At s = 1 the pathology is permanent; at s = 0.5 it
    resolves."""

    def _pair_runner(self, willingness, seed=0):
        from repro.graph import Graph

        graph = Graph([("a", "b")])
        state = hash_state(graph, k=2, slack=2.0)
        # Force the symmetric configuration: a and b in different partitions.
        if state.partition_of("a") == state.partition_of("b"):
            state.move("b", 1 - state.partition_of("b"))
        from repro.core import VertexBalance

        return AdaptiveRunner(
            graph,
            state,
            AdaptiveConfig(
                willingness=willingness,
                seed=seed,
                quiet_window=10,
                balance=VertexBalance(slack=2.0),
            ),
        )

    def test_full_willingness_oscillates_forever(self):
        runner = self._pair_runner(willingness=1.0)
        for _ in range(50):
            stats = runner.step()
            assert stats.migrations == 2  # both vertices swap every round
        assert not runner.converged

    def test_intermediate_willingness_resolves(self):
        runner = self._pair_runner(willingness=0.5)
        runner.run_until_convergence(max_iterations=500)
        assert runner.converged
        state = runner.state
        assert state.partition_of("a") == state.partition_of("b")
        assert state.cut_edges == 0


class TestActiveSetOptimisation:
    def test_active_set_shrinks(self, small_mesh):
        state = hash_state(small_mesh)
        runner = AdaptiveRunner(small_mesh, state, AdaptiveConfig(seed=0))
        assert runner.active_count == small_mesh.num_vertices
        for _ in range(20):
            runner.step()
        assert runner.active_count < small_mesh.num_vertices


class TestEdgeBalanceMode:
    def test_edge_loads_respected(self, small_powerlaw):
        k = 4
        policy = EdgeBalance(slack=1.2)
        caps = policy.capacities(small_powerlaw, k)
        state = HashPartitioner().partition(small_powerlaw, k, list(caps))
        runner = AdaptiveRunner(
            small_powerlaw,
            state,
            AdaptiveConfig(seed=0, balance=policy),
        )
        for _ in range(30):
            runner.step()
        for pid in range(k):
            assert runner.loads[pid] <= caps[pid] + 1e-6

    def test_edge_balance_evens_edge_distribution(self, small_powerlaw):
        k = 4
        policy = EdgeBalance(slack=1.1)
        caps = policy.capacities(small_powerlaw, k)
        state = HashPartitioner().partition(small_powerlaw, k, list(caps))
        runner = AdaptiveRunner(
            small_powerlaw, state, AdaptiveConfig(seed=0, balance=policy)
        )
        runner.run_until_convergence(max_iterations=120)
        loads = runner.loads
        mean_load = sum(loads) / k
        assert max(loads) <= 1.35 * mean_load
