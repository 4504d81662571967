"""Cluster executor matrix: the sharded layer's wall-clock claim.

The workload is the paper's superstep-heavy regime: the cardiac FEM kernel
(FitzHugh–Nagumo reaction–diffusion, sub-cycled so per-vertex CPU dominates
messaging — §"each vertex computes more than 32 differential equations") on
a 3-D mesh, with the background partitioner adapting underneath.  The same
run executes on every executor backend:

* ``inline`` — the serial reference;
* ``process`` — four ``repro worker`` subprocesses the executor spawns and
  drives over the socket protocol, with shard affinity.

Asserted at full scale: ``process`` clears **≥2×** over ``inline``
(the ISSUE acceptance bar), and every backend's superstep timeline is
**bit-identical** (the tests enforce the same invariant on the golden
scenarios; the bench re-checks it on the heavy workload).  The speedup
assertion additionally requires the machine to have at least
``PROCESS_WORKERS`` cores — parallel speedup on a single-core box is
physics, not a regression — mirroring how smoke scale skips shape
assertions.

The premise — per-vertex *Python* CPU dominates — needs the scalar
``compute`` loop, so the bench runs :class:`ScalarCardiacFem`: the shipped
program with its batched kernel dropped.  (With the kernel a superstep is
a few array operations and the run is messaging-bound; that configuration
is measured by ``benchmarks/e2e``'s ``fem-scalar`` workload instead.)
"""

import time

from repro.analysis import format_table
from repro.apps.fem_simulation import CombinedCardiacFemSimulation
from repro.cluster import Coordinator, make_executor
from repro.generators import mesh_3d
from repro.obs import MetricsRegistry
from repro.pregel.system import PregelConfig

from benchmarks import _harness
from benchmarks._harness import pick, record_result

MESH_SIDE = pick(16, 6)          # 16³ = 4096 vertices, ~11.5k edges
SUBSTEPS = pick(200, 4)          # reaction sub-cycles per superstep
SUPERSTEPS = pick(12, 4)
PARTITIONS = 8
PROCESS_WORKERS = 4
SPEEDUP_TARGET = 2.0             # asserted at full scale only

class ScalarCardiacFem(CombinedCardiacFemSimulation):
    """The combined FEM program on its scalar per-vertex loop.

    Overriding ``compute`` is what drops the inherited ``compute_batch``
    (``BatchedVertexProgram.__init_subclass__``): same arithmetic, same
    digests, one Python call per vertex per superstep.
    """

    def compute(self, ctx, messages):
        super().compute(ctx, messages)


EXECUTOR_SPECS = [
    ("inline", None),
    ("process", pick(PROCESS_WORKERS, 2)),
]


def _build_system(executor_name, workers, registry):
    graph = mesh_3d(MESH_SIDE)
    # The combined variant folds diffusion messages per worker (the Pregel
    # combiner idiom), so cross-process traffic is per-worker-pair, not
    # per-edge — the configuration a real deployment would run.
    program = ScalarCardiacFem(substeps=SUBSTEPS, stimulus_vertices={0})
    config = PregelConfig(num_workers=PARTITIONS, seed=0, quiet_window=10)
    return Coordinator(
        graph,
        program,
        config,
        executor=make_executor(executor_name, workers),
        metrics_registry=registry,
    )


def _timed_run(executor_name, workers):
    """Build (untimed), run SUPERSTEPS supersteps (timed), return a row.

    Construction stays outside the timer: shard build + worker spawn
    (≈ 0.1 s of interpreter start-up per ``process`` worker) is a one-time
    cost, and the claim under test is per-superstep throughput.
    """
    registry = MetricsRegistry()
    system = _build_system(executor_name, workers, registry)
    try:
        start = time.perf_counter()
        reports = system.run(SUPERSTEPS)
        elapsed = time.perf_counter() - start
        timeline = [
            (
                r.superstep,
                r.migrations_announced,
                r.cut_edges,
                tuple(r.sizes),
                r.computed_vertices,
                tuple(r.per_worker_compute),
                r.traffic.local_messages,
                r.traffic.remote_messages,
                r.traffic.compute_units,
            )
            for r in reports
        ]
        return {
            "executor": executor_name,
            "workers": workers,
            "seconds": elapsed,
            "per_superstep_ms": 1000.0 * elapsed / SUPERSTEPS,
            "timeline": timeline,
            "final_values_sample": sorted(system.values.items())[:5],
            "phases": registry.phase_seconds(),
        }
    finally:
        system.close()


def _experiment():
    rows = [_timed_run(name, workers) for name, workers in EXECUTOR_SPECS]
    inline_row = rows[0]
    for row in rows[1:]:
        assert row["timeline"] == inline_row["timeline"], (
            f"{row['executor']} timeline diverged from inline"
        )
        assert row["final_values_sample"] == inline_row["final_values_sample"]
    phases = inline_row["phases"]  # where the reference run's time went
    for row in rows:
        row["speedup_vs_inline"] = inline_row["seconds"] / row["seconds"]
        del row["timeline"]  # asserted above; too bulky for the artifact
        del row["final_values_sample"]
        del row["phases"]
    return {
        "phases": phases,
        "mesh_side": MESH_SIDE,
        "vertices": MESH_SIDE ** 3,
        "substeps": SUBSTEPS,
        "supersteps": SUPERSTEPS,
        "partitions": PARTITIONS,
        "rows": rows,
    }


def test_cluster_executor_matrix(run_once, capsys):
    results = run_once(_experiment)
    record_result(
        "cluster_executors", results, phases=results.pop("phases")
    )
    with capsys.disabled():
        print()
        print(
            format_table(
                ["executor", "workers", "seconds", "ms/superstep", "speedup"],
                [
                    [
                        r["executor"],
                        r["workers"] or 1,
                        f"{r['seconds']:.2f}",
                        f"{r['per_superstep_ms']:.1f}",
                        f"{r['speedup_vs_inline']:.2f}x",
                    ]
                    for r in results["rows"]
                ],
                title=(
                    f"Sharded FEM workload ({results['vertices']} vertices, "
                    f"{results['substeps']} ODE sub-cycles, identical "
                    "timelines asserted)"
                ),
            )
        )
    if _harness.SMOKE:
        return  # toy scale: IPC overhead drowns the compute signal
    if not _harness.parallel_floor_applies(PROCESS_WORKERS):
        return  # too few cores: parallel speedup is physically unavailable
    process_row = next(
        r for r in results["rows"] if r["executor"] == "process"
    )
    assert process_row["speedup_vs_inline"] >= SPEEDUP_TARGET, process_row
