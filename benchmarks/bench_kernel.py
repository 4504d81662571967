"""Batched vertex kernels: the numpy fast path's wall-clock claim.

The workload is the kernel sweet spot: PageRank on a ring lattice (every
vertex mails every neighbour each superstep, so the per-superstep work is
one dense gather/scatter), run on one worker so the single-thread kernel
speedup is the isolated signal.  The same scenario runs three ways:

* **scalar** — ``REPRO_BATCH_KERNEL=off``, the per-vertex reference loop;
* **batched** — the numpy block kernel (``compute_batch``);
* **plain** — a PageRank subclass that *opts out* (``compute_batch =
  None``), measuring what non-batched programs pay for the dispatch check.

Asserted, at every scale:

* all three superstep timelines and final value maps are **bit-identical**
  (the kernel is an optimisation, never semantics);
* batched clears **≥3×** over scalar at full scale (≥2× smoke);
* the dispatch check costs non-batched programs **<2%** of their
  wall-clock.  A/B deltas at that margin are scheduler noise, so the bar
  is enforced bench_obs-style by extrapolation: microbenchmark the actual
  dispatch site (one attribute read + ``is not None`` branch), multiply by
  a generous over-count of how often a run hits it (2× the computed-vertex
  total, though the check really runs once per *block*), and compare that
  against the plain run's wall-clock.

Timing methodology: construction and a warmup superstep stay outside the
timer, and the garbage collector is frozen (``gc.freeze`` + ``gc.disable``)
around the timed region, pyperf-style — generational GC walks this
big-heap process on every bulk allocation, penalising exactly the
allocation pattern under test; freezing removes that machine-dependent
noise from both legs symmetrically.  Each leg reports its best of
``BEST_OF`` runs.
"""

import gc
import os
import time

from repro.analysis import format_table
from repro.apps.pagerank import PageRank
from repro.cluster import Coordinator, InlineExecutor
from repro.generators import ring_lattice
from repro.obs import MetricsRegistry
from repro.pregel.system import PregelConfig

from benchmarks._harness import pick, record_result

N_VERTICES = pick(100_000, 8_000)
DEGREE = 8                       # ring lattice: 8 neighbours per vertex
WARMUP_SUPERSTEPS = 1
TIMED_SUPERSTEPS = 4
BEST_OF = 3
KERNEL_FLOOR = pick(3.0, 2.0)    # batched vs scalar, single thread
DISPATCH_CEILING = 0.02          # opt-out programs: <2% for the check
MICROBENCH_ROUNDS = 200_000


class _ScalarPageRank(PageRank):
    """PageRank that opts out of the batch kernel (dispatch-cost probe)."""

    compute_batch = None


def _timed_run(kernel, program_factory=PageRank):
    """Build (untimed), warm up, run TIMED_SUPERSTEPS gc-frozen, return a row.

    Construction and the first superstep stay outside the timer: shard
    build is a one-time cost and superstep 1 has no inbox, so the claim
    under test — steady-state per-superstep throughput — starts at
    superstep 2.
    """
    previous = os.environ.get("REPRO_BATCH_KERNEL")
    os.environ["REPRO_BATCH_KERNEL"] = kernel
    try:
        registry = MetricsRegistry()
        config = PregelConfig(num_workers=1, seed=7, adaptive=False)
        with Coordinator(
            ring_lattice(N_VERTICES, DEGREE),
            program_factory(),
            config,
            executor=InlineExecutor(),
            metrics_registry=registry,
        ) as system:
            for _ in range(WARMUP_SUPERSTEPS):
                system.run_superstep()
            gc.collect()
            gc.freeze()
            gc.disable()
            try:
                start = time.perf_counter()
                reports = [
                    system.run_superstep() for _ in range(TIMED_SUPERSTEPS)
                ]
                elapsed = time.perf_counter() - start
            finally:
                gc.enable()
                gc.unfreeze()
            timeline = tuple(
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
            )
            return {
                "seconds": elapsed,
                "timeline": timeline,
                "values": dict(system.values),
                "computed_vertices": sum(r.computed_vertices for r in reports),
                "batched_blocks": registry.counter(
                    "kernel.batched_blocks"
                ).value,
                "phases": registry.phase_seconds(),
            }
    finally:
        if previous is None:
            os.environ.pop("REPRO_BATCH_KERNEL", None)
        else:
            os.environ["REPRO_BATCH_KERNEL"] = previous


def _best_of(label, **kwargs):
    """Best-of-``BEST_OF`` timing; repeats must replay one timeline."""
    runs = [_timed_run(**kwargs) for _ in range(BEST_OF)]
    for rerun in runs[1:]:
        assert rerun["timeline"] == runs[0]["timeline"], (
            f"{label}: repeat diverged from its own first run"
        )
    best = min(runs, key=lambda r: r["seconds"])
    best["leg"] = label
    return best


def _dispatch_site_cost():
    """Seconds per dispatch check on an opted-out program.

    The scalar path pays one attribute read plus an ``is not None``
    branch per block before falling into the reference loop; this times
    exactly that expression.
    """
    program = _ScalarPageRank()
    hits = 0
    start = time.perf_counter()
    for _ in range(MICROBENCH_ROUNDS):
        if program.compute_batch is not None:  # pragma: no cover - opted out
            hits += 1
    elapsed = time.perf_counter() - start
    assert hits == 0
    return elapsed / MICROBENCH_ROUNDS


def _experiment():
    scalar = _best_of("scalar", kernel="off")
    batched = _best_of("batched", kernel="on")
    plain = _best_of("plain", kernel="on", program_factory=_ScalarPageRank)

    # The determinism contract, on the heavy workload: the kernel (and the
    # opt-out path) replay the scalar run bit for bit.
    for row in (batched, plain):
        assert row["timeline"] == scalar["timeline"], (
            f"{row['leg']} timeline diverged from scalar"
        )
        assert row["values"] == scalar["values"], (
            f"{row['leg']} final values diverged from scalar"
        )
    assert batched["batched_blocks"] > 0, "batched leg never took the kernel"
    assert scalar["batched_blocks"] == 0
    assert plain["batched_blocks"] == 0, "opted-out program took the kernel"

    site_cost = _dispatch_site_cost()
    # one check per *block* in reality; 2x the per-vertex total is a
    # deliberately absurd over-count, and the bar still clears
    activations = 2 * plain["computed_vertices"]
    dispatch_overhead = site_cost * activations / plain["seconds"]

    results = {
        "vertices": N_VERTICES,
        "degree": DEGREE,
        "timed_supersteps": TIMED_SUPERSTEPS,
        "best_of": BEST_OF,
        "scalar_seconds": scalar["seconds"],
        "batched_seconds": batched["seconds"],
        "plain_seconds": plain["seconds"],
        "kernel_speedup": scalar["seconds"] / batched["seconds"],
        "batched_blocks": batched["batched_blocks"],
        "site_cost_ns": 1e9 * site_cost,
        "estimated_activations": activations,
        "dispatch_overhead_fraction": dispatch_overhead,
        "phases": batched["phases"],
    }
    return results


def test_batched_kernel_speedup(run_once, capsys):
    """≥3× single-thread kernel speedup, identical timelines, cheap dispatch."""
    results = run_once(_experiment)
    record_result("kernel", results, phases=results["phases"])
    with capsys.disabled():
        print()
        print(
            format_table(
                ["leg", "seconds", "speedup"],
                [
                    ["scalar", f"{results['scalar_seconds']:.3f}", "1.00x"],
                    ["batched", f"{results['batched_seconds']:.3f}",
                     f"{results['kernel_speedup']:.2f}x"],
                    ["plain (opt-out)", f"{results['plain_seconds']:.3f}",
                     f"dispatch {100.0 * results['dispatch_overhead_fraction']:.3f}%"],
                ],
                title=(
                    f"Batched PageRank kernel ({results['vertices']} "
                    f"vertices, {results['timed_supersteps']} timed "
                    "supersteps, identical timelines asserted)"
                ),
            )
        )
    assert results["dispatch_overhead_fraction"] < DISPATCH_CEILING, (
        f"dispatch check costs "
        f"{100.0 * results['dispatch_overhead_fraction']:.2f}% of an "
        f"opted-out run (ceiling {100.0 * DISPATCH_CEILING:.0f}%)"
    )
    assert results["kernel_speedup"] >= KERNEL_FLOOR, (
        f"batched kernel {results['kernel_speedup']:.2f}x < "
        f"{KERNEL_FLOOR:.1f}x floor"
    )
