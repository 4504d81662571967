"""Every workload and metric the ledger declares, in one table.

``BENCHMARK.json`` at the repo root is the contract file the driver reads;
it has no room for *which workloads a metric applies to* or *which
end-to-end number a layer metric should move*.  This module holds that
richer table, and ``--smoke`` asserts the two agree in both directions.

Three kinds of metric:

* ``END_TO_END`` — defined on every workload and never zero, so the driver
  can gate each (workload, metric) pair on its ``bound``;
* ``WORKLOAD_E2E`` — end-to-end numbers that exist only on some workloads
  (a wire byte count on an inline run would be a constant 0).  The contract
  lists them with the per-layer metrics (no driver bound);
  ``benchmarks.e2e.diff`` gates them on the bounds below;
* ``PER_LAYER`` — one repo module each, no bound, each naming the
  end-to-end metric and workloads it is expected to move (``moves``).
"""

from dataclasses import dataclass

INLINE = "churn-inline"
SOCKET = "churn-socket"
FEM = "fem-scalar"
CORE = "core-settle-backlog"

ALL = (INLINE, SOCKET, FEM, CORE)
PREGEL = (INLINE, SOCKET, FEM)
CHURN = (INLINE, SOCKET)
EVENTS = (INLINE, SOCKET, CORE)
LOCAL = (INLINE, FEM)

# Why each workload exists (the one-line form BENCHMARK.json carries; the
# README has the full table).  Sizes are the contract-budget sizes.
WORKLOADS = {
    INLINE: (
        "The deployment loop with zero transport (50k-vertex ring, k=8, "
        "12 supersteps, ~5k churn events): kernel, messages, barrier and "
        "shard patches do all the work, cluster.wire none."
    ),
    SOCKET: (
        "Identical scenario and seed over 2 real `repro worker` processes: "
        "churn-socket minus churn-inline is the transport cost (codec, "
        "framing, TCP, worker)."
    ),
    FEM: (
        "27k-vertex cardiac FEM mesh, 16 supersteps, no compute_batch: the "
        "scalar per-vertex loop, tuple values and tuple messages that the "
        "batched path bypasses."
    ),
    CORE: (
        "Logical engine only (500k-vertex ring, k=8): settle from a hash "
        "start, then 8 buffered churn rounds (~116k events); sweep reads "
        "against CSR writes, no pregel or wire."
    ),
}

# How long one contract run measures (BENCHMARK.json's ``run_seconds``).
RUN_SECONDS = 10

# A per-layer metric that is reported but expected to move nothing today.
NONE_TODAY = "none-today"

END_TO_END = "end_to_end"
WORKLOAD_E2E = "workload_e2e"
PER_LAYER = "per_layer"


@dataclass(frozen=True)
class Metric:
    """One declared metric.

    ``bound`` is the share of the baseline median by which the metric may
    get worse before it is a regression (0.0 = exact: any change is one);
    ``None`` for per-layer metrics.  ``moves`` is ``(end-to-end metric,
    workloads)`` — the prediction a later optimisation is checked against.
    """

    name: str
    unit: str
    better: str
    kind: str
    workloads: tuple = ALL
    bound: float = None
    moves: object = None


def _e2e(name, unit, better, bound):
    return Metric(name, unit, better, END_TO_END, ALL, bound)


def _we2e(name, unit, better, bound, workloads):
    return Metric(name, unit, better, WORKLOAD_E2E, workloads, bound)


def _layer(name, unit, better, workloads, moves):
    return Metric(name, unit, better, PER_LAYER, workloads, None, moves)


METRICS = (
    # -- end to end, every workload (driver-gated) -------------------------
    _e2e("setup_s", "s", "lower", 0.25),
    _e2e("run_s", "s", "lower", 0.25),
    _e2e("steps_per_s", "1/s", "higher", 0.25),
    _e2e("vertex_updates_per_s", "1/s", "higher", 0.25),
    _e2e("peak_rss_mb", "MiB", "lower", 0.10),
    _e2e("final_cut_ratio", "ratio", "lower", 0.10),
    # -- end to end, some workloads (gated by benchmarks.e2e.diff) ---------
    _we2e("step_ms_p50", "ms", "lower", 0.25, PREGEL),
    _we2e("step_ms_p90", "ms", "lower", 0.25, PREGEL),
    _we2e("events_per_s", "1/s", "higher", 0.25, EVENTS),
    _we2e("settle_s", "s", "lower", 0.25, (CORE,)),
    _we2e("wire_bytes_per_step", "B", "lower", 0.0, (SOCKET,)),
    _we2e("failed_share", "ratio", "lower", 0.0, ALL),
    # -- graph / scenarios / partitioning (driver-side timers) -------------
    _layer("graph.build_s", "s", "lower", ALL, ("setup_s", ALL)),
    _layer("graph.vertices", "count", "higher", ALL, ("setup_s", ALL)),
    _layer("graph.edges", "count", "higher", ALL, ("setup_s", ALL)),
    _layer("scenarios.stream_build_s", "s", "lower", EVENTS,
           ("setup_s", EVENTS)),
    _layer("scenarios.events", "count", "higher", EVENTS,
           ("events_per_s", EVENTS)),
    _layer("scenarios.rounds", "count", "higher", EVENTS,
           ("events_per_s", EVENTS)),
    _layer("partitioning.hash_s", "s", "lower", (CORE,),
           ("setup_s", (CORE,))),
    # -- core: the logical engine ------------------------------------------
    _layer("core.runner.init_s", "s", "lower", (CORE,), ("setup_s", (CORE,))),
    _layer("core.runner.step_s", "s", "lower", (CORE,), ("settle_s", (CORE,))),
    _layer("core.runner.iterations", "count", "lower", (CORE,),
           ("settle_s", (CORE,))),
    _layer("core.runner.migrations", "count", "lower", (CORE,),
           ("settle_s", (CORE,))),
    _layer("core.runner.wanted", "count", "lower", (CORE,),
           ("settle_s", (CORE,))),
    _layer("core.runner.blocked", "count", "lower", (CORE,),
           ("settle_s", (CORE,))),
    _layer("core.runner.admit_ratio", "ratio", "higher", (CORE,),
           ("settle_s", (CORE,))),
    _layer("core.sweep.decisions", "count", "lower", (CORE,),
           ("vertex_updates_per_s", (CORE,))),
    _layer("core.sweep.us_per_decision", "us", "lower", (CORE,),
           ("settle_s", (CORE,))),
    _layer("core.sweep.migration_yield", "ratio", "higher", (CORE,),
           ("settle_s", (CORE,))),
    _layer("core.ingest.apply_s", "s", "lower", (CORE,),
           ("events_per_s", (CORE,))),
    _layer("core.ingest.events", "count", "higher", (CORE,),
           ("events_per_s", (CORE,))),
    _layer("core.ingest.changed", "count", "higher", (CORE,),
           ("events_per_s", (CORE,))),
    _layer("core.ingest.changed_ratio", "ratio", "higher", (CORE,),
           ("events_per_s", (CORE,))),
    _layer("core.ingest.events_per_s", "1/s", "higher", (CORE,),
           ("events_per_s", (CORE,))),
    _layer("core.incremental.cross_check_s", "s", "lower", ALL,
           ("failed_share", ALL)),
    _layer("core.incremental.cross_check_ok", "count", "higher", ALL,
           ("failed_share", ALL)),
    # -- pregel: the superstep -----------------------------------------------
    _layer("pregel.system.superstep_s", "s", "lower", PREGEL,
           ("step_ms_p50", LOCAL)),
    _layer("pregel.system.compute_window_s", "s", "lower", PREGEL,
           ("step_ms_p50", LOCAL)),
    _layer("pregel.system.barrier_s", "s", "lower", PREGEL,
           ("step_ms_p50", LOCAL)),
    _layer("pregel.system.barrier_self_s", "s", "lower", PREGEL,
           ("step_ms_p50", LOCAL)),
    _layer("pregel.system.ingest_s", "s", "lower", CHURN,
           ("step_ms_p50", CHURN)),
    _layer("pregel.system.inject_s", "s", "lower", CHURN,
           ("events_per_s", CHURN)),
    _layer("pregel.system.mutations", "count", "higher", CHURN,
           ("events_per_s", CHURN)),
    _layer("pregel.system.unattributed_share", "ratio", "lower", PREGEL,
           ("step_ms_p50", LOCAL)),
    _layer("pregel.compute.shard_s", "s", "lower", PREGEL,
           ("step_ms_p50", LOCAL)),
    _layer("pregel.compute.vertices", "count", "higher", PREGEL,
           ("vertex_updates_per_s", PREGEL)),
    _layer("pregel.compute.us_per_vertex", "us", "lower", PREGEL,
           ("vertex_updates_per_s", LOCAL)),
    _layer("pregel.compute.decide_s", "s", "lower", PREGEL,
           ("step_ms_p50", LOCAL)),
    _layer("pregel.compute.batched_blocks", "count", "higher", PREGEL,
           ("step_ms_p50", CHURN)),
    _layer("pregel.compute.batched_share", "ratio", "higher", PREGEL,
           ("step_ms_p50", CHURN)),
    _layer("pregel.messages.local", "count", "higher", PREGEL,
           ("wire_bytes_per_step", (SOCKET,))),
    _layer("pregel.messages.remote", "count", "lower", PREGEL,
           ("wire_bytes_per_step", (SOCKET,))),
    _layer("pregel.messages.remote_share", "ratio", "lower", PREGEL,
           ("wire_bytes_per_step", (SOCKET,))),
    _layer("pregel.migration.arbitrate_s", "s", "lower", PREGEL,
           ("step_ms_p90", CHURN)),
    _layer("pregel.migration.requested", "count", "lower", PREGEL,
           ("step_ms_p90", CHURN)),
    _layer("pregel.migration.announced", "count", "lower", PREGEL,
           ("step_ms_p90", CHURN)),
    _layer("pregel.migration.blocked", "count", "lower", PREGEL,
           ("step_ms_p90", CHURN)),
    _layer("pregel.migration.admit_ratio", "ratio", "higher", PREGEL,
           ("step_ms_p90", CHURN)),
    _layer("pregel.migration.announced_per_s", "1/s", "higher", PREGEL,
           ("step_ms_p90", CHURN)),
    _layer("pregel.capacity_protocol.messages", "count", "lower", PREGEL,
           NONE_TODAY),  # a count only; moves with snapshot_staleness
    # -- cluster: coordinator, shards, executor, wire, workers -------------
    _layer("cluster.coordinator.init_s", "s", "lower", PREGEL,
           ("setup_s", PREGEL)),
    _layer("cluster.coordinator.merge_s", "s", "lower", PREGEL,
           ("step_ms_p50", (INLINE,))),
    _layer("cluster.coordinator.dispatch_self_s", "s", "lower", PREGEL,
           ("step_ms_p50", (INLINE,))),
    _layer("cluster.shard.run_superstep_s", "s", "lower", LOCAL,
           ("step_ms_p50", LOCAL)),
    _layer("cluster.shard.apply_patch_s", "s", "lower", LOCAL,
           ("step_ms_p50", LOCAL)),
    _layer("cluster.shard.delta_build_s", "s", "lower", LOCAL,
           ("step_ms_p50", LOCAL)),
    _layer("cluster.shard.skew", "ratio", "lower", LOCAL,
           ("steps_per_s", (SOCKET,))),
    _layer("cluster.executor.step_s", "s", "lower", PREGEL,
           ("step_ms_p50", (SOCKET,))),
    _layer("cluster.executor.wait_s", "s", "lower", (SOCKET,),
           ("step_ms_p50", (SOCKET,))),
    _layer("cluster.wire.send_s", "s", "lower", (SOCKET,),
           ("step_ms_p50", (SOCKET,))),
    _layer("cluster.wire.recv_s", "s", "lower", (SOCKET,),
           ("step_ms_p50", (SOCKET,))),
    _layer("cluster.wire.frames", "count", "lower", (SOCKET,),
           ("step_ms_p50", (SOCKET,))),
    _layer("cluster.wire.bytes_sent.step", "B", "lower", (SOCKET,),
           ("wire_bytes_per_step", (SOCKET,))),
    _layer("cluster.wire.bytes_received.step", "B", "lower", (SOCKET,),
           ("wire_bytes_per_step", (SOCKET,))),
    _layer("cluster.wire.bytes_sent.init", "B", "lower", (SOCKET,),
           ("setup_s", (SOCKET,))),
    # codec replay of captured supersteps (what the wire costs, or would)
    _layer("cluster.wire.task_bytes_p50", "B", "lower", PREGEL,
           ("wire_bytes_per_step", (SOCKET,))),
    _layer("cluster.wire.delta_bytes_p50", "B", "lower", PREGEL,
           ("wire_bytes_per_step", (SOCKET,))),
    _layer("cluster.wire.combine_ms_per_step", "ms", "lower", PREGEL,
           ("step_ms_p50", (SOCKET,))),
    _layer("cluster.wire.encode_task_ms_per_step", "ms", "lower", PREGEL,
           ("step_ms_p50", (SOCKET,))),
    _layer("cluster.wire.decode_task_ms_per_step", "ms", "lower", PREGEL,
           ("step_ms_p50", (SOCKET,))),
    _layer("cluster.wire.encode_delta_ms_per_step", "ms", "lower", PREGEL,
           ("step_ms_p50", (SOCKET,))),
    _layer("cluster.wire.decode_delta_ms_per_step", "ms", "lower", PREGEL,
           ("step_ms_p50", (SOCKET,))),
    _layer("cluster.wire.encode_mb_per_s", "MB/s", "higher", PREGEL,
           ("steps_per_s", (SOCKET,))),
    _layer("cluster.wire.decode_mb_per_s", "MB/s", "higher", PREGEL,
           ("steps_per_s", (SOCKET,))),
    _layer("cluster.wire.roundtrip_ok", "count", "higher", PREGEL,
           ("failed_share", PREGEL)),
    _layer("cluster.worker.spawn_s", "s", "lower", (SOCKET,),
           ("setup_s", (SOCKET,))),
    _layer("cluster.worker.compute_s", "s", "lower", (SOCKET,),
           ("step_ms_p50", (SOCKET,))),
    _layer("cluster.worker.peak_rss_mb", "MiB", "lower", (SOCKET,),
           NONE_TODAY),  # worker memory is reported, not gated
    # -- the host: every time above is scaled by this (calibrate.py) -------
    _layer("host.speed", "ratio", "higher", ALL, NONE_TODAY),
    # -- obs: what the traced pass itself costs ----------------------------
    _layer("obs.spans", "count", "lower", PREGEL, NONE_TODAY),
    _layer("obs.trace_overhead_ratio", "ratio", "lower", PREGEL, NONE_TODAY),
)

BY_NAME = {metric.name: metric for metric in METRICS}


def of_kind(*kinds):
    """Declared metrics of the given kinds, in declaration order."""
    return [metric for metric in METRICS if metric.kind in kinds]


def names_for(workload, *kinds):
    """Names of the metrics of ``kinds`` that apply to ``workload``."""
    return [m.name for m in of_kind(*kinds) if workload in m.workloads]


def benchmark_json():
    """The root ``BENCHMARK.json`` payload this catalog implies."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in of_kind(END_TO_END)
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in of_kind(WORKLOAD_E2E, PER_LAYER)
        ],
    }
