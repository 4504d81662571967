"""System tests for the Pregel facade: BSP semantics, background
partitioning, stream mutations, failure recovery."""

import pytest

from repro.apps import PageRank
from repro.generators import mesh_3d
from repro.graph import AddEdge, AddVertex, RemoveEdge, RemoveVertex
from repro.pregel import FaultPlan, PregelConfig, PregelSystem, VertexProgram


class EchoProgram(VertexProgram):
    """Sends its superstep number to neighbours; value = last messages."""

    def initial_value(self, vertex_id, graph):
        return []

    def compute(self, ctx, messages):
        ctx.value = messages
        ctx.send_to_neighbors(ctx.superstep)


class SilentProgram(VertexProgram):
    """Computes nothing and sends nothing."""

    def initial_value(self, vertex_id, graph):
        return 0

    def compute(self, ctx, messages):
        ctx.vote_to_halt()


def make_system(graph=None, adaptive=True, seed=0, k=4, **kw):
    graph = graph or mesh_3d(6)
    config = PregelConfig(num_workers=k, adaptive=adaptive, seed=seed, **kw)
    return PregelSystem(graph, EchoProgram(), config)


class TestBspSemantics:
    def test_messages_arrive_next_superstep(self):
        system = make_system()
        system.run_superstep()
        # superstep 1 sent "1"; nothing received yet during superstep 1
        assert all(v == [] for v in system.values.values())
        system.run_superstep()
        # during superstep 2 every vertex sees its neighbours' "1"s
        some_vertex = next(iter(system.graph.vertices()))
        assert set(system.values[some_vertex]) == {1}

    def test_superstep_counter(self):
        system = make_system()
        reports = system.run(3)
        assert [r.superstep for r in reports] == [1, 2, 3]

    def test_compute_counts_all_vertices_in_continuous_mode(self):
        system = make_system()
        report = system.run_superstep()
        assert report.computed_vertices == system.graph.num_vertices

    def test_halted_vertices_skipped_without_messages(self):
        graph = mesh_3d(3)
        system = PregelSystem(
            graph,
            SilentProgram(),
            PregelConfig(num_workers=2, adaptive=False, continuous=False),
        )
        first = system.run_superstep()
        second = system.run_superstep()
        assert first.computed_vertices == graph.num_vertices
        assert second.computed_vertices == 0

    def test_run_until_quiescent_stops(self):
        graph = mesh_3d(3)
        system = PregelSystem(
            graph,
            SilentProgram(),
            PregelConfig(num_workers=2, adaptive=False, continuous=False),
        )
        reports = system.run_until_quiescent(max_supersteps=50)
        assert len(reports) < 50

    def test_traffic_recorded_per_superstep(self):
        system = make_system(adaptive=False)
        reports = system.run(2)
        # messages sent at superstep 1 deliver at its barrier
        assert reports[0].traffic.total_messages > 0
        assert reports[0].traffic.compute_units > 0


class TestBackgroundPartitioning:
    def test_cut_ratio_improves(self):
        system = make_system(adaptive=True, seed=1)
        initial = system.state.cut_ratio()
        system.run(40)
        assert system.state.cut_ratio() < 0.7 * initial
        system.state.validate()

    def test_static_mode_never_migrates(self):
        system = make_system(adaptive=False)
        reports = system.run(10)
        assert all(r.migrations_announced == 0 for r in reports)
        assert all(r.traffic.migrations == 0 for r in reports)

    def test_no_migrations_at_first_superstep_without_capacity_info(self):
        # Capacity info needs one barrier to propagate... we publish the
        # initial vector at construction, so migrations may start at
        # superstep 1; what must hold is the deferral: announcements at
        # superstep t become physical transfers at t+1.
        system = make_system(adaptive=True, seed=2)
        first = system.run_superstep()
        second = system.run_superstep()
        assert first.traffic.migrations == 0
        assert second.traffic.migrations == first.migrations_announced

    def test_remote_messages_drop_after_convergence(self):
        system = make_system(adaptive=True, seed=3)
        reports = system.run(50)
        early_remote = reports[1].traffic.remote_messages
        late_remote = reports[-1].traffic.remote_messages
        assert late_remote < early_remote

    def test_migrations_decay(self):
        system = make_system(adaptive=True, seed=4)
        reports = system.run(60)
        early = sum(r.migrations_announced for r in reports[:10])
        late = sum(r.migrations_announced for r in reports[-10:])
        assert late < early

    def test_capacity_and_notification_overhead_counted(self):
        system = make_system(adaptive=True, seed=5)
        reports = system.run(3)
        assert reports[0].traffic.capacity_messages > 0

    def test_partitioning_converges_flag(self):
        system = make_system(adaptive=True, seed=6, quiet_window=5)
        system.run(80)
        assert system.partitioning_converged


class TestStreamMutations:
    def test_add_edge_applied_at_barrier(self):
        system = make_system(adaptive=False)
        system.inject_events([AddEdge("x", "y")])
        assert "x" not in system.graph  # not yet
        report = system.run_superstep()
        assert report.mutations_applied == 1
        assert system.graph.has_edge("x", "y")
        assert system.state.partition_of_or_none("x") is not None
        assert system.values["x"] == []

    def test_remove_vertex_cleans_everything(self):
        system = make_system(adaptive=False)
        victim = next(iter(system.graph.vertices()))
        system.run_superstep()
        system.inject_events([RemoveVertex(victim)])
        system.run_superstep()
        assert victim not in system.graph
        assert victim not in system.values
        assert system.state.partition_of_or_none(victim) is None
        assert system.state.cut_edges == system.state.recompute_cut_edges()

    def test_messages_to_removed_vertex_dropped(self):
        system = make_system(adaptive=False)
        victim = next(iter(system.graph.vertices()))
        system.run_superstep()  # everyone messaged neighbours
        system.inject_events([RemoveVertex(victim)])
        system.run_superstep()  # delivery + removal at barrier
        report = system.run_superstep()
        assert report.superstep == 3  # no crash processing inboxes

    def test_mutations_reset_convergence(self):
        system = make_system(adaptive=True, seed=7, quiet_window=5)
        system.run(60)
        assert system.partitioning_converged
        system.inject_events([AddVertex("fresh")])
        system.run_superstep()
        assert not system.partitioning_converged

    def test_remove_edge(self):
        system = make_system(adaptive=False)
        u, v = next(iter(system.graph.edges()))
        system.inject_events([RemoveEdge(u, v)])
        system.run_superstep()
        assert not system.graph.has_edge(u, v)
        assert system.state.cut_edges == system.state.recompute_cut_edges()

    def test_duplicate_events_counted_once(self):
        system = make_system(adaptive=False)
        system.inject_events([AddVertex("z"), AddVertex("z")])
        report = system.run_superstep()
        assert report.mutations_applied == 1


class TestFaultRecovery:
    def test_failure_restores_checkpointed_values(self):
        graph = mesh_3d(4)
        plan = FaultPlan().add(6, 0)
        system = PregelSystem(
            graph,
            PageRank(),
            PregelConfig(
                num_workers=2, adaptive=False, seed=0, checkpoint_interval=5
            ),
            fault_plan=plan,
        )
        system.run(5)
        values_at_checkpoint = dict(system.values)
        report = system.run_superstep()  # superstep 6: worker 0 dies
        assert report.failed_worker == 0
        assert report.traffic.recovery_events == 1
        for v, pid in system.state.assignment_items():
            if pid == 0:
                assert system.values[v] == values_at_checkpoint[v]

    def test_a_run_without_a_plan_takes_no_snapshot(self):
        system = PregelSystem(
            mesh_3d(3),
            PageRank(),
            PregelConfig(num_workers=2, seed=0, checkpoint_interval=2),
        )
        system.run(6)
        assert system.checkpointer.last_checkpoint_superstep is None

    def test_snapshots_stop_after_the_last_scheduled_failure(self):
        system = PregelSystem(
            mesh_3d(3),
            PageRank(),
            PregelConfig(num_workers=2, seed=0, checkpoint_interval=2),
            fault_plan=FaultPlan().add(3, 0),
        )
        system.run(2)
        assert system.checkpointer.last_checkpoint_superstep == 2
        system.run(6)
        assert system.checkpointer.last_checkpoint_superstep == 2

    def test_failure_drops_inflight_messages(self):
        graph = mesh_3d(4)
        plan = FaultPlan().add(2, 1)
        system = PregelSystem(
            graph,
            EchoProgram(),
            PregelConfig(num_workers=2, adaptive=False, seed=0),
            fault_plan=plan,
        )
        system.run(3)
        # messages produced during superstep 2 were lost at its barrier:
        # during superstep 3 every inbox is empty
        assert all(v == [] for v in system.values.values())

    def test_partitioning_survives_failure(self):
        graph = mesh_3d(5)
        plan = FaultPlan().add(4, 0)
        system = PregelSystem(
            graph,
            EchoProgram(),
            PregelConfig(num_workers=3, adaptive=True, seed=1),
            fault_plan=plan,
        )
        system.run(10)
        system.state.validate()
        assert len(system.state) == graph.num_vertices


class TestReportContents:
    def test_sizes_sum_to_vertices(self):
        system = make_system()
        report = system.run_superstep()
        assert sum(report.sizes) == system.graph.num_vertices

    def test_per_worker_compute_length(self):
        system = make_system(k=5)
        report = system.run_superstep()
        assert len(report.per_worker_compute) == 5
        assert sum(report.per_worker_compute) == pytest.approx(
            report.traffic.compute_units
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PregelConfig(num_workers=0)
        with pytest.raises(ValueError):
            PregelConfig(willingness=2.0)
