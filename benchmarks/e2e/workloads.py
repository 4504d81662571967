"""The four workloads: sizes, one fresh repeat of each, and the checks.

Every repeat builds its inputs from the seed, times set-up and the run
separately (closed loop: the next round's events are injected only after
the previous superstep returned), and ends with the untimed correctness
checks.  Layers are measured from outside: ``perf_counter`` pairs around
public calls, the program's own ``Tracer``/``MetricsRegistry`` handed in
through ``Coordinator(tracer=, metrics_registry=)``, and the bench-local
probe executors — nothing in ``src/repro`` is patched.
"""

import copy
import gc
import hashlib
import json
import statistics
from contextlib import ExitStack
from dataclasses import dataclass, field
from time import perf_counter
from types import SimpleNamespace

from repro.apps.fem_simulation import CombinedCardiacFemSimulation
from repro.apps.pagerank import PageRank
from repro.cluster import Coordinator, InlineExecutor, SocketExecutor
from repro.core import AdaptiveConfig, AdaptiveRunner
from repro.core.balance import VertexBalance
from repro.generators import mesh_3d
from repro.generators.random_graphs import ring_lattice
from repro.graph.compact import CompactGraph
from repro.graph.stream import batch_by_time
from repro.obs import MetricsRegistry, Tracer
from repro.partitioning import HashPartitioner, balanced_capacities
from repro.pregel.system import PregelConfig
from repro.scenarios.churn import rolling_window_churn
from repro.scenarios.engine import ScenarioResult

from benchmarks.e2e import catalog
from benchmarks.e2e.calibrate import HostClock, to_reference_speed
from benchmarks.e2e.probe import (
    ProbeExecutor,
    TimedSocketExecutor,
    replay_codec,
)
from benchmarks.e2e.spans import Breakdown
from benchmarks.e2e.workers import WorkerFleet, worker_count

PARTITIONS = 8
SLACK = 1.10
QUIET_WINDOW = 10
MAX_SETTLE_ITERATIONS = 500

# Contract-budget sizes: the driver makes ~92 runs in 3420 s and a noisy
# host stretches each by a third, so one run of one workload has ~20 s for
# two fresh repeats.  Against the issue's sizing pass this cuts supersteps
# and rounds (never vertices): churn 34 -> 12 supersteps, fem 40 -> 16,
# core churn rate 10000/s -> 3000/s.
SIZES = {
    "full": {
        "churn": {"vertices": 50_000, "each_side": 3, "rate": 1000.0,
                  "duration": 4.0, "horizon": 4.0, "window": 2.0,
                  "steps_per_round": 2, "cooldown_rounds": 2},
        "fem": {"side": 30, "substeps": 2, "supersteps": 16},
        "core": {"vertices": 500_000, "each_side": 3, "rate": 3000.0,
                 "duration": 30.0, "horizon": 10.0, "window": 5.0},
    },
    # --smoke: every code path in well under 30 s; numbers mean nothing.
    "smoke": {
        "churn": {"vertices": 2_000, "each_side": 3, "rate": 100.0,
                  "duration": 6.0, "horizon": 4.0, "window": 2.0,
                  "steps_per_round": 2, "cooldown_rounds": 1},
        "fem": {"side": 8, "substeps": 2, "supersteps": 6},
        "core": {"vertices": 10_000, "each_side": 3, "rate": 300.0,
                 "duration": 12.0, "horizon": 4.0, "window": 2.0},
    },
}


def sizes_for(profile, scale=1.0):
    """The profile's sizes with vertex counts multiplied by ``scale``."""
    sizes = copy.deepcopy(SIZES[profile])
    if scale != 1.0:
        sizes["churn"]["vertices"] = round(sizes["churn"]["vertices"] * scale)
        sizes["core"]["vertices"] = round(sizes["core"]["vertices"] * scale)
        sizes["fem"]["side"] = round(sizes["fem"]["side"] * scale ** (1 / 3))
    return sizes


@dataclass
class Ops:
    """Attempted and failed operations of one workload run.

    An op is one superstep or iteration, one event batch, or one
    end-of-run check; a raised exception or a mismatch is a failure.
    """

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def ok(self):
        """Count one operation that completed."""
        self.attempted += 1

    def fail(self, message):
        """Count one failed operation and keep why."""
        self.attempted += 1
        self.failed += 1
        self.errors.append(message)

    def check(self, what, passed, detail=""):
        """Count one end-of-run check."""
        if passed:
            self.ok()
        else:
            self.fail(f"{what}: {detail}" if detail else what)

    def attempt(self, what, function):
        """Run one raising check (``validate()``-style) as an op."""
        try:
            function()
        except AssertionError as exc:
            self.fail(f"{what}: {exc}")
            return False
        self.ok()
        return True


@dataclass
class Repeat:
    """What one fresh repeat measured.

    ``sample`` maps metric name to this repeat's value, ``steps`` holds the
    per-step wall-clock (pooled across repeats for the percentiles) and
    ``digest`` pins what the program computed.
    """

    sample: dict
    steps: list
    digest: object


def _at_reference_speed(sample, steps, digest, clock):
    """Close one repeat: every raw duration and rate in ``sample``, scaled
    by the repeat's effective host speed (``steps`` were scaled one by one
    as they ran; see :mod:`benchmarks.e2e.calibrate`)."""
    speed = clock.speed()
    scaled = {
        name: to_reference_speed(value, catalog.BY_NAME[name].unit, speed)
        for name, value in sample.items()
    }
    scaled["host.speed"] = speed
    return Repeat(scaled, steps, digest)


def _timeline_sha(name, seed, reports):
    """sha256 over the fields ``ScenarioResult.superstep_digest()`` pins."""
    result = ScenarioResult(
        SimpleNamespace(name=name, seed=seed), "compact", True, [], 0,
        engine="pregel", reports=reports,
    )
    text = json.dumps(result.superstep_digest(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _ring(spec):
    return ring_lattice(
        spec["vertices"], spec["each_side"], graph_cls=CompactGraph
    )


def _churn_rounds(graph, seed, spec):
    """The rolling-window stream sliced into per-round event lists."""
    stream = rolling_window_churn(
        graph, seed=seed, rate=spec["rate"], duration=spec["duration"],
        horizon=spec["horizon"],
    )
    rounds = [events for _, events in batch_by_time(stream, spec["window"])]
    return rounds, len(stream)


# ----------------------------------------------------------------------
# The three pregel workloads
# ----------------------------------------------------------------------


def _churn_plan(graph, seed, sizes, sample):
    """PageRank under rolling-window churn: rounds, then cooldown."""
    spec = sizes["churn"]
    started = perf_counter()
    rounds, events = _churn_rounds(graph, seed, spec)
    sample["scenarios.stream_build_s"] = perf_counter() - started
    sample["scenarios.events"] = events
    sample["scenarios.rounds"] = len(rounds)
    rounds += [[] for _ in range(spec["cooldown_rounds"])]
    return PageRank(), rounds, spec["steps_per_round"]


def _fem_plan(graph, seed, sizes, sample):
    """The scalar FEM program: no churn, a fixed number of supersteps."""
    spec = sizes["fem"]
    program = CombinedCardiacFemSimulation(
        substeps=spec["substeps"], stimulus_vertices={0}
    )
    return program, [[]], spec["supersteps"]


# workload -> (timeline name, graph builder, plan builder, remote workers?).
# The two churn workloads share a timeline name: their digests must be equal.
_PREGEL = {
    catalog.INLINE: (
        "churn", lambda sizes: _ring(sizes["churn"]), _churn_plan, False,
    ),
    catalog.SOCKET: (
        "churn", lambda sizes: _ring(sizes["churn"]), _churn_plan, True,
    ),
    catalog.FEM: (
        "fem",
        lambda sizes: mesh_3d(sizes["fem"]["side"], graph_cls=CompactGraph),
        _fem_plan,
        False,
    ),
}


def pregel_repeat(workload, seed, sizes, ops, traced=False):
    """One fresh repeat of a pregel workload; returns its :class:`Repeat`.

    With ``traced`` the run carries a ``Tracer`` and a probe executor and
    the sample gains the span-, probe- and replay-derived layer metrics.
    """
    timeline, build_graph, make_plan, remote = _PREGEL[workload]
    sample = {}
    gc.collect()
    setup_started = perf_counter()
    graph = build_graph(sizes)
    sample["graph.build_s"] = perf_counter() - setup_started
    sample["graph.vertices"] = graph.num_vertices
    sample["graph.edges"] = graph.num_edges
    program, rounds, steps_per_round = make_plan(graph, seed, sizes, sample)
    config = PregelConfig(
        num_workers=PARTITIONS, balance=VertexBalance(slack=SLACK),
        seed=seed, quiet_window=QUIET_WINDOW,
    )
    tracer = Tracer() if traced else None
    registry = MetricsRegistry()
    with ExitStack() as stack:
        if remote:
            started = perf_counter()
            fleet = stack.enter_context(WorkerFleet(worker_count()))
            sample["cluster.worker.spawn_s"] = perf_counter() - started
            executor_cls = TimedSocketExecutor if traced else SocketExecutor
            executor = executor_cls(fleet.addresses)
        else:
            executor = ProbeExecutor() if traced else InlineExecutor()
        started = perf_counter()
        system = stack.enter_context(Coordinator(
            graph, program, config, executor=executor, tracer=tracer,
            metrics_registry=registry,
        ))
        sample["cluster.coordinator.init_s"] = perf_counter() - started
        sample["setup_s"] = perf_counter() - setup_started
        if traced:
            tracer.clear()  # set-up frames are not part of the run

        steps = []
        inject_s = 0.0
        clock = HostClock()
        gc.collect()
        for events in rounds:
            if events:
                _, raw, _ = clock.timed(system.inject_events, events)
                inject_s += raw
                ops.ok()
            for _ in range(steps_per_round):
                _, _, scaled = clock.timed(system.run_superstep)
                steps.append(scaled)
                ops.ok()
        run_s = clock.raw_seconds
        spans = list(tracer.spans) if traced else []

        reports = system.reports
        _pregel_sample(sample, reports, run_s, steps, inject_s, registry)
        sample["final_cut_ratio"] = system.state.cut_ratio()
        if "scenarios.events" in sample:
            sample["events_per_s"] = sample["scenarios.events"] / run_s
        if remote:
            _wire_counters(sample, executor, len(steps))
            sample["cluster.worker.peak_rss_mb"] = fleet.peak_rss_mb()
        if traced:
            _traced_sample(
                sample, spans, executor, remote, program.combiner(), ops
            )
        digest = _timeline_sha(timeline, seed, reports)
        ops.attempt("shard_consistency_check", system.shard_consistency_check)
        ops.attempt("PartitionState.validate", system.state.validate)
        _cross_check(sample, system.metrics, ops)
    return _at_reference_speed(sample, steps, digest, clock)


def _pregel_sample(sample, reports, run_s, steps, inject_s, registry):
    """End-to-end numbers plus the layers the reports alone account for."""
    computed = sum(r.computed_vertices for r in reports)
    sample["run_s"] = run_s
    sample["steps_per_s"] = len(steps) / run_s
    sample["vertex_updates_per_s"] = computed / run_s
    sample["pregel.compute.vertices"] = computed
    if inject_s:
        sample["pregel.system.inject_s"] = inject_s
        sample["pregel.system.mutations"] = sum(
            r.mutations_applied for r in reports
        )
    local = sum(r.traffic.local_messages for r in reports)
    remote = sum(r.traffic.remote_messages for r in reports)
    sample["pregel.messages.local"] = local
    sample["pregel.messages.remote"] = remote
    sample["pregel.messages.remote_share"] = remote / (local + remote)
    requested = sum(r.migrations_requested for r in reports)
    announced = sum(r.migrations_announced for r in reports)
    sample["pregel.migration.requested"] = requested
    sample["pregel.migration.announced"] = announced
    sample["pregel.migration.blocked"] = sum(
        r.migrations_blocked for r in reports
    )
    sample["pregel.migration.admit_ratio"] = (
        announced / requested if requested else 0.0
    )
    sample["pregel.migration.announced_per_s"] = announced / run_s
    sample["pregel.capacity_protocol.messages"] = sum(
        r.traffic.capacity_messages for r in reports
    )
    batched = registry.counter("kernel.batched_blocks").value
    sample["pregel.compute.batched_blocks"] = batched
    sample["pregel.compute.batched_share"] = batched / (
        len(reports) * PARTITIONS
    )


def _wire_counters(sample, executor, supersteps):
    """The socket executor's own byte meters, read before the checks add
    their ``apply``/``snapshot`` frames."""
    sent, received = executor.bytes_sent, executor.bytes_received
    sample["cluster.wire.bytes_sent.step"] = sent.get("step", 0)
    sample["cluster.wire.bytes_received.step"] = received.get("step", 0)
    sample["cluster.wire.bytes_sent.init"] = sent.get("init", 0)
    moved = sum(
        group.get(kind, 0)
        for group in (sent, received) for kind in ("step", "apply")
    )
    sample["wire_bytes_per_step"] = moved / supersteps


def _is_run_span(span):
    """Wire spans count only for ``step`` frames (checks add other kinds)."""
    return span[1] != "wire" or (span[4] or {}).get("kind") == "step"


def _traced_sample(sample, spans, executor, remote, combiner, ops):
    """Layer metrics from the trace, the probe executor and the replay."""
    trace = Breakdown(spans, keep=_is_run_span)
    superstep_s = trace.seconds("coordinator", "superstep")
    window_s = trace.seconds("coordinator", "compute")
    merge_s = trace.seconds("coordinator", "barrier-merge")
    shard_compute_s = trace.seconds("shard", "compute")
    decide_s = trace.seconds("shard", "decide")
    patch_s = trace.seconds("shard", "apply-patch")
    shard_lane_s = shard_compute_s + decide_s + patch_s
    send_s = trace.seconds("wire", "wire-send")
    recv_s = trace.seconds("wire", "wire-recv")
    sample.update({
        "pregel.system.superstep_s": superstep_s,
        "pregel.system.compute_window_s": window_s,
        "pregel.system.barrier_s": trace.seconds("coordinator", "barrier"),
        "pregel.system.barrier_self_s": trace.self_seconds(
            "coordinator", "barrier"
        ),
        "pregel.system.unattributed_share": trace.self_seconds(
            "coordinator", "superstep"
        ) / superstep_s,
        "pregel.compute.shard_s": shard_compute_s,
        "pregel.compute.us_per_vertex": (
            1e6 * shard_compute_s / sample["pregel.compute.vertices"]
        ),
        "pregel.compute.decide_s": decide_s,
        "pregel.migration.arbitrate_s": trace.seconds(
            "coordinator", "arbitrate"
        ),
        "cluster.coordinator.merge_s": merge_s,
        # What the coordinator spends fanning out and gathering beyond the
        # spans inside the compute window: shard work when shards run in
        # this process, wire time when they do not.
        "cluster.coordinator.dispatch_self_s": window_s - merge_s - (
            send_s + recv_s if remote else shard_lane_s
        ),
        "cluster.executor.step_s": executor.step_seconds,
        "obs.spans": len(spans),
    })
    if "pregel.system.inject_s" in sample:
        sample["pregel.system.ingest_s"] = trace.seconds(
            "coordinator", "ingest"
        )
    if remote:
        sample.update({
            "cluster.executor.wait_s": recv_s,
            "cluster.wire.send_s": send_s,
            "cluster.wire.recv_s": recv_s,
            "cluster.wire.frames": (
                trace.spans("wire", "wire-send")
                + trace.spans("wire", "wire-recv")
            ),
            "cluster.worker.compute_s": shard_lane_s,
        })
        workers = executor.worker_count
    else:
        sample.update({
            "cluster.shard.run_superstep_s": executor.run_superstep_seconds,
            "cluster.shard.apply_patch_s": executor.apply_patch_seconds,
            "cluster.shard.delta_build_s": (
                executor.run_superstep_seconds - shard_compute_s - decide_s
            ),
            "cluster.shard.skew": statistics.fmean(executor.skews),
        })
        workers = worker_count()
    replayed, bytes_match = replay_codec(executor.captured, combiner, workers)
    sample.update(replayed)
    ops.check("codec round trip", replayed["cluster.wire.roundtrip_ok"])
    if bytes_match is not None:
        ops.check(
            "codec replay bytes equal the socket executor's step counters",
            bytes_match,
        )


def _cross_check(sample, metrics, ops):
    """``IncrementalMetrics.cross_check()``, timed, as an op."""
    started = perf_counter()
    passed = ops.attempt("IncrementalMetrics.cross_check", metrics.cross_check)
    sample["core.incremental.cross_check_s"] = perf_counter() - started
    sample["core.incremental.cross_check_ok"] = int(passed)


# ----------------------------------------------------------------------
# The logical-engine workload
# ----------------------------------------------------------------------


def core_repeat(seed, sizes, ops):
    """One fresh repeat of ``core-settle-backlog``."""
    spec = sizes["core"]
    sample = {}
    gc.collect()
    setup_started = perf_counter()
    graph = _ring(spec)
    sample["graph.build_s"] = perf_counter() - setup_started
    sample["graph.vertices"] = graph.num_vertices
    sample["graph.edges"] = graph.num_edges
    started = perf_counter()
    rounds, events = _churn_rounds(graph, seed, spec)
    sample["scenarios.stream_build_s"] = perf_counter() - started
    sample["scenarios.events"] = events
    sample["scenarios.rounds"] = len(rounds)
    started = perf_counter()
    capacities = balanced_capacities(graph.num_vertices, PARTITIONS, SLACK)
    state = HashPartitioner().partition(graph, PARTITIONS, list(capacities))
    sample["partitioning.hash_s"] = perf_counter() - started
    started = perf_counter()
    runner = AdaptiveRunner(graph, state, AdaptiveConfig(
        seed=seed, quiet_window=QUIET_WINDOW,
        balance=VertexBalance(slack=SLACK),
    ))
    sample["core.runner.init_s"] = perf_counter() - started
    sample["setup_s"] = perf_counter() - setup_started

    steps = []  # settle: one runner.step(); backlog: apply_events + step
    stats = []
    clock = HostClock()

    def step():
        stat, raw, scaled = clock.timed(runner.step)
        stats.append(stat)
        ops.ok()
        return raw, scaled

    # Phase settle: hash start -> converged, the paper's convergence time.
    gc.collect()
    while not runner.converged:
        if runner.iteration >= MAX_SETTLE_ITERATIONS:
            raise RuntimeError(
                f"no convergence in {MAX_SETTLE_ITERATIONS} iterations"
            )
        steps.append(step()[1])
    settle_s = step_s = clock.raw_seconds
    # Phase backlog: each buffered round lands at once, then one step.
    apply_s = 0.0
    changed = 0
    for batch in rounds:
        changed_now, applied_raw, applied = clock.timed(
            runner.apply_events, batch
        )
        changed += changed_now
        apply_s += applied_raw
        ops.ok()
        stepped_raw, stepped = step()
        step_s += stepped_raw
        steps.append(applied + stepped)
    run_s = clock.raw_seconds
    backlog_s = run_s - settle_s

    decisions = sum(s.active_vertices for s in stats)
    migrations = sum(s.migrations for s in stats)
    wanted = sum(s.wanted_migrations for s in stats)
    sample.update({
        "run_s": run_s,
        "settle_s": settle_s,
        "steps_per_s": len(stats) / run_s,
        "vertex_updates_per_s": decisions / run_s,
        "events_per_s": events / backlog_s,
        "final_cut_ratio": state.cut_ratio(),
        "core.runner.step_s": step_s,
        "core.runner.iterations": len(stats),
        "core.runner.migrations": migrations,
        "core.runner.wanted": wanted,
        "core.runner.blocked": sum(s.blocked_migrations for s in stats),
        "core.runner.admit_ratio": migrations / wanted if wanted else 0.0,
        "core.sweep.decisions": decisions,
        "core.sweep.us_per_decision": 1e6 * step_s / decisions,
        "core.sweep.migration_yield": migrations / decisions,
        "core.ingest.apply_s": apply_s,
        "core.ingest.events": events,
        "core.ingest.changed": changed,
        "core.ingest.changed_ratio": changed / events,
        "core.ingest.events_per_s": events / apply_s,
    })
    digest = {
        "iterations": len(stats),
        "sizes": list(state.sizes),
        "cut_edges": state.cut_edges,
    }
    ops.attempt("PartitionState.validate", state.validate)
    _cross_check(sample, runner.metrics, ops)
    return _at_reference_speed(sample, steps, digest, clock)


def run_repeat(workload, seed, sizes, ops, traced=False):
    """One fresh repeat of ``workload`` (the core workload has no tracer:
    its layers are this driver's own timers)."""
    if workload == catalog.CORE:
        return core_repeat(seed, sizes, ops)
    return pregel_repeat(workload, seed, sizes, ops, traced)
