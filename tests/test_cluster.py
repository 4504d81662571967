"""The sharded execution layer: executors, determinism, shard consistency.

The suite runs its cross-executor cases on every backend named in
``REPRO_CLUSTER_EXECUTORS`` (comma-separated; default inline, process and
socket) — the CI executor-matrix job sets it to exercise each backend in
isolation.
"""

import atexit
import gc
import os
import signal
import time

import pytest

from repro.apps.connected_components import ConnectedComponents
from repro.apps.pagerank import PageRank
from repro.cluster import (
    EXECUTORS,
    Coordinator,
    ExecutorCapabilities,
    InlineExecutor,
    LocalWorkerPool,
    ProcessExecutor,
    SocketExecutor,
    make_executor,
    wire,
)
from repro.cluster.shard import Shard
from repro.cluster.worker import WorkerFleet
from repro.generators import mesh_3d, powerlaw_cluster_graph
from repro.graph.events import AddEdge, AddVertex, RemoveEdge, RemoveVertex
from repro.pregel.fault import FaultPlan
from repro.pregel.system import PregelConfig, PregelSystem
from repro.pregel.vertex import VertexProgram

EXECUTOR_NAMES = [
    name.strip()
    for name in os.environ.get(
        "REPRO_CLUSTER_EXECUTORS", "inline,process,socket"
    ).split(",")
    if name.strip()
]

_POOL = None


def _socket_addresses():
    """One shared localhost worker pool for the whole test process."""
    global _POOL
    if _POOL is None:
        _POOL = LocalWorkerPool(2)
        atexit.register(_POOL.close)
    return _POOL.addresses


def _executor(name):
    # Small worker counts keep the suite light; determinism must not
    # depend on them (shard-id merge order is the invariant).
    if name == "process":
        return ProcessExecutor(workers=2)
    if name == "socket":
        return SocketExecutor(_socket_addresses())
    return InlineExecutor()


def _report_digest(reports):
    return [
        (
            r.superstep,
            r.migrations_requested,
            r.migrations_announced,
            r.migrations_blocked,
            r.cut_edges,
            tuple(r.sizes),
            r.computed_vertices,
            r.mutations_applied,
            r.failed_worker,
            tuple(r.per_worker_compute),
            r.traffic.local_messages,
            r.traffic.remote_messages,
            r.traffic.migrations,
            r.traffic.capacity_messages,
            r.traffic.compute_units,
        )
        for r in reports
    ]


def _churn_run(executor_name, metrics="incremental", check_each_step=False):
    """A 14-superstep run with churn, migrations and one worker failure."""
    graph = mesh_3d(6)
    config = PregelConfig(
        num_workers=4, seed=3, quiet_window=5, metrics=metrics
    )
    fault_plan = FaultPlan().add(9, 2)
    system = Coordinator(
        graph,
        PageRank(),
        config,
        fault_plan=fault_plan,
        executor=_executor(executor_name),
    )
    try:
        for step in range(14):
            if step == 4:
                system.inject_events(
                    [
                        AddVertex(1000),
                        AddEdge(1000, 0),
                        RemoveVertex(43),
                        AddEdge(1000, 87),
                        AddEdge(1001, 1002),
                        RemoveEdge(0, 1),
                    ]
                )
            if step == 7:
                system.inject_events([RemoveVertex(1001), AddEdge(1002, 5)])
            system.run_superstep()
            if check_each_step:
                system.shard_consistency_check()
        return (
            _report_digest(system.reports),
            dict(system.values),
            dict(system.state.assignment_items()),
            set(system.halted),
        )
    finally:
        system.close()


class TestCrossExecutorDeterminism:
    def test_churn_run_identical_across_executors(self):
        """Reports, values, placement and halt state match bit-for-bit."""
        results = {name: _churn_run(name) for name in EXECUTOR_NAMES}
        reference_name = EXECUTOR_NAMES[0]
        reference = results[reference_name]
        for name, result in results.items():
            for got, want, what in zip(
                result,
                reference,
                ("reports", "values", "assignment", "halted"),
            ):
                assert got == want, (
                    f"{what} diverged between {name} and {reference_name}"
                )

    @pytest.mark.parametrize("executor_name", EXECUTOR_NAMES)
    def test_shard_state_consistent_throughout(self, executor_name):
        _churn_run(executor_name, check_each_step=True)

    @pytest.mark.parametrize("executor_name", EXECUTOR_NAMES)
    def test_metrics_modes_identical_and_cross_checked(self, executor_name):
        """Shard-merged incremental metrics == per-superstep recompute.

        ``metrics="recompute"`` re-derives loads/sizes/cut from scratch at
        every barrier and raises on drift, so a green recompute run *is*
        the property; equality of the two timelines shows the audit is
        observationally free.
        """
        incremental = _churn_run(executor_name, metrics="incremental")
        recompute = _churn_run(executor_name, metrics="recompute")
        assert incremental == recompute

    def test_worker_count_does_not_change_results(self):
        graph = mesh_3d(5)

        def run(executor):
            system = Coordinator(
                graph.copy(),
                PageRank(),
                PregelConfig(num_workers=6, seed=1, quiet_window=5),
                executor=executor,
            )
            try:
                system.run(6)
                return _report_digest(system.reports), dict(system.values)
            finally:
                system.close()

        reference = run(InlineExecutor())
        for workers in (1, 3, 5):
            assert run(ProcessExecutor(workers=workers)) == reference


class TestAgainstSerialReference:
    @pytest.mark.parametrize("executor_name", EXECUTOR_NAMES)
    def test_reports_match_single_process_system(self, executor_name):
        """On a static graph the sharded system IS the serial system.

        Superstep reports (counts, cut, sizes, traffic) match bit-for-bit;
        vertex values may differ in float summation order when a vertex
        receives from several workers, so they are compared only through an
        order-insensitive program below.
        """
        config = PregelConfig(num_workers=4, seed=2, quiet_window=5)
        serial = PregelSystem(mesh_3d(5), PageRank(), config)
        serial.run(8)
        clustered = Coordinator(
            mesh_3d(5), PageRank(), config, executor=_executor(executor_name)
        )
        try:
            clustered.run(8)
            assert _report_digest(clustered.reports) == _report_digest(
                serial.reports
            )
        finally:
            clustered.close()

    def test_values_match_for_order_insensitive_programs(self):
        graph_factory = lambda: powerlaw_cluster_graph(120, m=2, seed=3)  # noqa: E731
        config = PregelConfig(num_workers=4, seed=2, quiet_window=5)
        serial = PregelSystem(graph_factory(), ConnectedComponents(), config)
        serial.run(10)
        clustered = Coordinator(
            graph_factory(),
            ConnectedComponents(),
            config,
            executor=InlineExecutor(),
        )
        try:
            clustered.run(10)
            assert clustered.values == serial.values
            assert clustered.halted == serial.halted
        finally:
            clustered.close()

    def test_a_plain_vertex_program_runs_sharded_on_listed_patches(self):
        """A program that is no ``BatchedVertexProgram`` declares neither a
        kernel dtype nor a ``value_width``: its patches pack listed, its
        shards are dict shards, and it still IS the serial system."""
        config = PregelConfig(num_workers=3, seed=1, quiet_window=5)
        serial = PregelSystem(mesh_3d(4), _PlainDegreeSum(), config)
        serial.run(5)
        executor = InlineExecutor()
        with Coordinator(
            mesh_3d(4), _PlainDegreeSum(), config, executor=executor
        ) as clustered:
            clustered.run(5)
            assert _report_digest(clustered.reports) == _report_digest(
                serial.reports
            )
            assert clustered.values == serial.values
            clustered.shard_consistency_check()
            snapshots = executor.snapshot().values()
            assert not any(snapshot.typed for snapshot in snapshots)
            assert all(shard.store is None for shard in executor._shards.values())

    def test_non_continuous_mode_reaches_quiescence(self):
        config = PregelConfig(
            num_workers=3, seed=0, continuous=False, adaptive=False
        )
        system = Coordinator(mesh_3d(4), ConnectedComponents(), config)
        try:
            reports = system.run_until_quiescent(max_supersteps=200)
            assert len(reports) < 200
            assert len(system.halted) == system.graph.num_vertices
            components = set(system.values.values())
            assert len(components) == 1  # the mesh is connected
        finally:
            system.close()


class _PlainDegreeSum(VertexProgram):
    """A bare ``VertexProgram`` (int values, no kernel, no combiner)."""

    name = "plain-degree-sum"

    def initial_value(self, vertex_id, graph):
        return 0

    def compute(self, ctx, messages):
        ctx.value = ctx.value + sum(messages) + ctx.degree()
        ctx.send_to_neighbors(1)


class _HangingShard:
    """Picklable shard stand-in whose compute never returns.

    It also shrugs off SIGTERM, so reaping it exercises the full stop
    escalation: bounded ack wait → own exit → terminate → kill.  It
    touches ``wedged`` once it is past the point of no return.
    """

    def __init__(self, wedged):
        self.wedged = wedged

    def run_superstep(self, task):  # pragma: no cover - runs in the worker
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        open(self.wedged, "w").close()
        time.sleep(3600)

    def apply_patch(self, patch):  # pragma: no cover - runs in the worker
        pass

    def snapshot(self):
        return ({}, set())


class _ExplodingProgram(PageRank):
    """Module-level (picklable) program that fails during compute."""

    def compute(self, ctx, messages):
        raise RuntimeError("boom in worker")


class _ShardBomb(PageRank):
    """Module-level (picklable) program that fails on one vertex at one
    superstep, so only the shard holding that vertex raises."""

    def __init__(self, vertex, superstep):
        super().__init__()
        self.bomb = (vertex, superstep)

    def compute(self, ctx, messages):
        if (ctx.vertex_id, ctx.superstep) == self.bomb:
            raise RuntimeError("boom in one shard")
        super().compute(ctx, messages)


def _merged_state(system):
    """Everything the coordinator's delta fold writes, copied."""
    router, aggregators = system.router, system.aggregators
    return (
        dict(system.values),
        set(system.halted),
        dict(aggregators._current),
        dict(aggregators._previous),
        dict(router._outbox),
        list(router._columns),
        system.superstep,
        list(system.reports),
    )


class _ErringShard:
    """Picklable shard stub whose compute always fails worker-side."""

    def run_superstep(self, task):  # pragma: no cover - runs in the worker
        raise RuntimeError("boom in worker")

    def apply_patch(self, patch):  # pragma: no cover - runs in the worker
        pass

    def snapshot(self):
        return ("snapshot", "err")


class _StubShard:
    """Picklable shard stub with distinguishable step/snapshot replies."""

    def __init__(self, sid):
        self.sid = sid

    def run_superstep(self, task):
        return ("delta", self.sid)

    def apply_patch(self, patch):
        pass

    def snapshot(self):
        return ("snapshot", self.sid)


class _LambdaCombinerProgram(PageRank):
    """A program whose combiner cannot be pickled (lambda)."""

    def combiner(self):
        return lambda a, b: a + b


class TestExecutors:
    def test_make_executor_resolution(self):
        assert isinstance(make_executor(None), InlineExecutor)
        assert isinstance(make_executor("inline"), InlineExecutor)
        assert isinstance(make_executor("process"), ProcessExecutor)
        instance = InlineExecutor()
        assert make_executor(instance) is instance
        assert sorted(EXECUTORS) == ["inline", "process", "socket"]
        for unknown in ("gpu", "thread"):
            with pytest.raises(ValueError, match="unknown executor"):
                make_executor(unknown)

    def test_process_executor_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            ProcessExecutor(workers=0)

    def test_executor_context_manager_and_idempotent_stop(self):
        with ProcessExecutor(workers=1) as executor:
            shard = Shard(0, PageRank(), None, True)
            executor.start({0: shard})
            # an empty shard's snapshot: the empty patch, through the wire
            assert executor.snapshot() == {0: shard.snapshot()}
            assert not any(map(len, vars(shard.snapshot()).values()))
        executor.stop()  # second stop must be a no-op

    def test_process_executor_surfaces_worker_failures(self, spawned):
        system = Coordinator(
            mesh_3d(3),
            _ExplodingProgram(),
            PregelConfig(num_workers=2, seed=0),
            executor=ProcessExecutor(workers=2),
        )
        try:
            assert [proc.poll() for proc in spawned] == [None, None]
            # The program raises inside the worker process; the traceback
            # must surface as a coordinator-side RuntimeError.
            with pytest.raises(RuntimeError, match="shard worker 0"):
                system.run_superstep()
        finally:
            system.close()
        # The failure killed nobody: each worker served its one session
        # to the stop and then exited by itself.
        assert [proc.poll() for proc in spawned] == [0, 0]

    def test_unpicklable_shard_state_fails_fast_without_leaking(
        self, spawned
    ):
        # The lambda combiner cannot cross the wire; construction must
        # raise (any pickling error) and leave no worker processes behind.
        with pytest.raises(Exception, match="pickle"):
            Coordinator(
                mesh_3d(3),
                _LambdaCombinerProgram(),
                PregelConfig(num_workers=2, seed=0),
                executor=ProcessExecutor(workers=2),
            )
        assert len(spawned) == 2
        assert all(proc.poll() is not None for proc in spawned)

    def test_stop_reaps_a_hard_stuck_worker(self, tmp_path, monkeypatch):
        # A worker wedged in compute (and ignoring SIGTERM) must not hang
        # stop(): every wait is bounded and escalation ends in kill().
        monkeypatch.setattr(WorkerFleet, "_EXIT_TIMEOUT", 0.3)
        wedged = tmp_path / "wedged"
        executor = ProcessExecutor(workers=1)
        executor._ACK_TIMEOUT = 0.1
        executor.start({0: _HangingShard(str(wedged))})
        proc = executor._fleet.procs[0]
        # Dispatch the never-returning step without awaiting the reply
        # (executor.step() would block on it forever, like a real caller
        # abandoning a stuck superstep would have).
        executor._sockets[0].sendall(wire.frame(("step", {0: (None, None)})))
        deadline = time.monotonic() + 30
        while not wedged.exists():
            assert time.monotonic() < deadline, "worker never took the step"
            time.sleep(0.01)
        assert proc.poll() is None  # alive, wedged, deaf to SIGTERM
        started = time.monotonic()
        executor.stop()
        assert time.monotonic() - started < 10, "stop() hung on a stuck worker"
        assert proc.returncode == -signal.SIGKILL  # the last resort it took
        executor.stop()  # idempotent after escalation too

    def test_dropped_executor_is_reaped_by_the_finalizer(self):
        executor = ProcessExecutor(workers=1)
        executor.start({0: Shard(0, PageRank(), None, True)})
        proc = executor._fleet.procs[0]
        assert proc.poll() is None
        reaper = executor._reaper
        del executor
        gc.collect()
        assert not reaper.alive  # finalizer ran at collection
        assert proc.poll() is not None  # and waited the worker out

    def test_dead_worker_surfaces_clear_error_then_stops_cleanly(self):
        executor = ProcessExecutor(workers=1)
        executor.start({0: Shard(0, PageRank(), None, True)})
        proc = executor._fleet.procs[0]
        proc.kill()
        proc.wait(timeout=10)
        with pytest.raises(
            RuntimeError,
            match=r"shard worker 0 \(.*exited with code -9\) died",
        ):
            executor.snapshot()
        executor.stop()  # a dead peer must not break the teardown

    def test_close_is_part_of_coordinator_context_manager(self):
        with Coordinator(
            mesh_3d(3),
            PageRank(),
            PregelConfig(num_workers=2, seed=0),
            executor=ProcessExecutor(workers=1),
        ) as system:
            system.run(2)
        # Exiting the context stopped the workers; a fresh close is a no-op.
        system.close()


class TestCapabilityProtocol:
    def test_declared_capability_records(self):
        assert InlineExecutor.capabilities == ExecutorCapabilities()
        assert ProcessExecutor.capabilities == ExecutorCapabilities(
            releases_gil=True, requires_picklable=True
        )
        assert SocketExecutor.capabilities == ExecutorCapabilities(
            releases_gil=True, remote=True, requires_picklable=True
        )

    def test_validate_rejects_a_missing_or_wrong_typed_record(self):
        class NoRecord(InlineExecutor):
            capabilities = {"remote": False}

        with pytest.raises(TypeError, match="ExecutorCapabilities"):
            make_executor(NoRecord())

    def test_honest_subclass_passes_validation(self):
        """An executor owes the coordinator every shard's delta, not an
        order: a backend whose ``step`` hands them back in descending
        shard order replays a plain inline run exactly, because the
        coordinator sorts before it merges."""

        class Descending(InlineExecutor):
            steps = 0

            def step(self, tasks, patches):
                self.steps += 1
                deltas = super().step(tasks, patches)
                return {
                    sid: deltas[sid] for sid in sorted(deltas, reverse=True)
                }

        def digest(executor):
            with Coordinator(
                mesh_3d(4), PageRank(), config, executor=executor
            ) as system:
                system.run(3)
                return _report_digest(system.reports), dict(system.values)

        config = PregelConfig(num_workers=3, seed=0)
        descending = make_executor(Descending())
        assert digest(descending) == digest(None)
        assert descending.steps == 3

    @pytest.mark.parametrize("executor_name", EXECUTOR_NAMES)
    def test_a_failing_shard_leaves_the_merged_state_untouched(
        self, executor_name
    ):
        """A superstep merges whole or not at all: when the middle shard
        raises inside ``step`` — after shard 0 computed, inline; beside
        shards 0 and 2, remote — every field the fold writes is as it was
        when ``step`` was called.  (The pending patches were consumed.)"""
        config = PregelConfig(num_workers=3, seed=0, adaptive=False)
        placement = PregelSystem(mesh_3d(4), PageRank(), config).state
        bomb = min(
            v for v, pid in placement.assignment_items() if pid == 1
        )
        with Coordinator(
            mesh_3d(4), _ShardBomb(bomb, superstep=3), config,
            executor=_executor(executor_name),
        ) as system:
            system.run(2)
            at_call = []
            step = system.executor.step

            def watched(tasks, patches):
                at_call.append(_merged_state(system))
                return step(tasks, patches)

            system.executor.step = watched
            with pytest.raises(RuntimeError, match="boom in one shard"):
                system.run_superstep()
            assert len(at_call) == 1 and at_call[0][0]
            assert _merged_state(system) == at_call[0]


class TestExecutorRegressions:
    """Pinned fixes for the executor-layer bug sweep."""

    @pytest.mark.parametrize(
        "factory", [ProcessExecutor, SocketExecutor], ids=lambda f: f.name
    )
    def test_pooled_executors_reject_nonpositive_worker_counts(self, factory):
        # workers=0 used to fall through an `or`-style default and
        # silently size the pool as if unset.
        for bad in (0, -2):
            with pytest.raises(ValueError, match="at least one"):
                factory(workers=bad)

    def test_coordinator_close_is_safe_before_the_executor_exists(self):
        # close() on a coordinator whose __init__ never got as far as
        # creating the executor must be a no-op, not an AttributeError —
        # callers run close() in finally blocks around construction.
        system = Coordinator.__new__(Coordinator)
        system.close()

    def test_worker_failure_does_not_desync_the_reply_protocol(self):
        # One reply per touched worker per command is the protocol
        # invariant: a failed step used to raise on worker 0's error
        # *before* reading worker 1's reply, so the next command consumed
        # the stale step delta as its own answer.
        with ProcessExecutor(workers=2) as executor:
            executor.start({0: _ErringShard(), 1: _StubShard(1)})
            with pytest.raises(RuntimeError, match="shard worker 0 failed"):
                executor.step({0: None, 1: None}, {})
            # The snapshot must see snapshot replies, not the abandoned
            # barrier's queued step delta.
            assert executor.snapshot() == {
                0: ("snapshot", "err"),
                1: ("snapshot", 1),
            }

    def test_all_worker_failures_surface_the_first_one(self):
        with ProcessExecutor(workers=2) as executor:
            executor.start({0: _ErringShard(), 1: _ErringShard()})
            with pytest.raises(RuntimeError, match="shard worker 0 failed"):
                executor.step({0: None, 1: None}, {})
            executor.stop()
