"""Observability overhead: tracing must be free when off, inert when on.

The instrumentation added for the tracing layer sits on the hottest paths
in the repo — shard compute, the decision phase, the barrier merge — so
its disabled cost is a correctness property, not a tuning nicety.  The
workload is the decision bench's 100k-vertex regime (a 3-D FEM mesh with a
near-idle vertex program, so per-superstep framework overhead *is* the
signal), run twice:

* **untraced** — the default ``NULL_TRACER`` path, timed;
* **traced** — a live :class:`~repro.obs.Tracer` plus metrics registry,
  timed, and its superstep timeline asserted **bit-identical** to the
  untraced run (tracing is measurement, never semantics).

Asserted, at every scale:

* identical timelines (the determinism contract);
* the disabled-path overhead is **<2%** of the untraced wall-clock.  A/B
  wall-clock deltas at this scale are dominated by scheduler noise, so the
  bar is enforced by extrapolation instead: microbenchmark the actual
  disabled-site cost (a ``tracer.span(...)`` scope on the disabled
  tracer, entered and left), multiply by a generous over-count of how often the run hits an
  instrumentation site (2× the traced run's span count), and compare
  *that* against the untraced wall-clock.  The measured A/B delta is
  recorded in the artifact for the trajectory, not asserted.
"""

import time

from repro.analysis import format_table
from repro.cluster import Coordinator, InlineExecutor
from repro.generators import mesh_3d
from repro.obs import NULL_TRACER, MetricsRegistry, Tracer
from repro.pregel.system import PregelConfig
from repro.pregel.vertex import VertexProgram

from benchmarks._harness import pick, record_result

MESH_SIDE = pick(47, 12)         # 47³ ≈ 104k vertices; smoke: 12³ ≈ 1.7k
SUPERSTEPS = pick(10, 4)
PARTITIONS = 8
OVERHEAD_CEILING = 0.02          # disabled tracer: <2% of the hot loop
MICROBENCH_ROUNDS = 200_000


class _Sensor(VertexProgram):
    """A near-idle program: framework overhead is the measured signal."""

    name = "sensor"

    def initial_value(self, vertex_id, graph):
        return 0

    def compute(self, ctx, messages):
        pass

    def compute_cost(self, ctx, messages):
        return 1.0


def _timed_run(tracer=None):
    registry = MetricsRegistry()
    config = PregelConfig(num_workers=PARTITIONS, seed=0, quiet_window=10)
    with Coordinator(
        mesh_3d(MESH_SIDE),
        _Sensor(),
        config,
        executor=InlineExecutor(),
        tracer=tracer,
        metrics_registry=registry,
    ) as system:
        start = time.perf_counter()
        reports = system.run(SUPERSTEPS)
        elapsed = time.perf_counter() - start
        timeline = [
            (
                r.superstep,
                r.migrations_requested,
                r.migrations_announced,
                r.cut_edges,
                tuple(r.sizes),
                r.computed_vertices,
            )
            for r in reports
        ]
        return {
            "seconds": elapsed,
            "timeline": timeline,
            "spans": 0 if tracer is None else len(tracer.spans),
            "phases": registry.phase_seconds(),
        }


def _disabled_site_cost():
    """Seconds per disabled instrumentation site (an uncounted scope)."""
    tracer = NULL_TRACER
    start = time.perf_counter()
    for superstep in range(MICROBENCH_ROUNDS):
        with tracer.span("compute", superstep=superstep):
            pass
    elapsed = time.perf_counter() - start
    assert tracer.spans == []
    return elapsed / MICROBENCH_ROUNDS


def _experiment():
    untraced = _timed_run()
    traced = _timed_run(Tracer())
    assert traced["timeline"] == untraced["timeline"], (
        "tracing changed the superstep timeline"
    )
    assert traced["spans"] > 0, "traced run recorded no spans"
    site_cost = _disabled_site_cost()
    # every traced span is one instrumentation site the disabled path
    # short-circuits; 2x over-counts sites that check but record nothing
    activations = 2 * traced["spans"]
    overhead = site_cost * activations / untraced["seconds"]
    return {
        "mesh_side": MESH_SIDE,
        "vertices": MESH_SIDE ** 3,
        "supersteps": SUPERSTEPS,
        "partitions": PARTITIONS,
        "untraced_seconds": untraced["seconds"],
        "traced_seconds": traced["seconds"],
        "traced_delta": traced["seconds"] - untraced["seconds"],
        "spans": traced["spans"],
        "site_cost_ns": 1e9 * site_cost,
        "estimated_activations": activations,
        "disabled_overhead_fraction": overhead,
        "phases": untraced["phases"],
    }


def test_observability_overhead(run_once, capsys):
    results = run_once(_experiment)
    record_result("observability", results, phases=results["phases"])
    with capsys.disabled():
        print()
        print(
            format_table(
                ["mode", "seconds", "spans"],
                [
                    ["untraced", f"{results['untraced_seconds']:.3f}", 0],
                    ["traced", f"{results['traced_seconds']:.3f}",
                     results["spans"]],
                ],
                title=(
                    f"Tracing overhead ({results['vertices']} vertices, "
                    "identical timelines asserted; disabled-path cost "
                    f"{results['site_cost_ns']:.1f}ns/site x "
                    f"{results['estimated_activations']} sites = "
                    f"{100.0 * results['disabled_overhead_fraction']:.3f}% "
                    "of the untraced run)"
                ),
            )
        )
    assert results["disabled_overhead_fraction"] < OVERHEAD_CEILING, (
        f"disabled tracer costs "
        f"{100.0 * results['disabled_overhead_fraction']:.2f}% of the hot "
        f"loop (ceiling {100.0 * OVERHEAD_CEILING:.0f}%)"
    )
