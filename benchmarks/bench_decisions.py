"""Shard-local decisions: the coordinator's serial-bottleneck claim.

Generated centrally, every superstep's migration decisions — one
neighbour-histogram + heuristic evaluation per active vertex — run between
barriers, a serial section that grows with graph size and defeats the
point of sharding.  The sharded :class:`~repro.cluster.Coordinator` has its
shards evaluate their own residents (vectorised over each shard block), so
its decision work shrinks to slicing the active set and arbitrating quota
over the returned proposals: O(active + proposals), independent of edge
count.

This bench runs the identical 100k-vertex adaptation workload (a 3-D FEM
mesh settling from a hash partitioning, a light vertex program so the
decision phase is the signal) through both and compares the *measured
serial decision wall-time* (the ``phase.decide.seconds`` counter).  The
central number comes from the single-process
:class:`~repro.pregel.system.PregelSystem` — the only place central
generation (``_generate_proposals``) still runs, and the oracle the
sharded timelines are pinned to.

Asserted, including at smoke scale (the bar is the ISSUE acceptance
criterion, relaxed for the CI smoke artifact exactly like
``bench_scale.py``):

* both systems replay **bit-identical** superstep timelines — where
  proposals are generated moves work, never results;
* coordinator-side decision time drops **≥5×** at full scale (**≥2.5×**
  at smoke scale).

The headline central run decides on the portable per-vertex path: it
runs the paper's rule as :class:`_PortableGreedy`, a no-op subclass the
central sweep's exact-type gate rejects.  The shards keep the exact rule
and vectorise over their blocks, which is exactly the decentralisation
dividend the paper's worker-local design buys.  A second central run with
the exact rule (the central path itself vectorised over the graph's CSR
mirror) is recorded in the artifact for reference.
"""

import contextlib
import time

from repro.analysis import format_table
from repro.cluster import Coordinator, InlineExecutor
from repro.core.heuristic import GreedyMaxNeighbours
from repro.generators import mesh_3d
from repro.obs import MetricsRegistry
from repro.pregel.system import PregelConfig, PregelSystem
from repro.pregel.vertex import VertexProgram

from benchmarks import _harness
from benchmarks._harness import pick, record_result

MESH_SIDE = pick(47, 22)         # 47³ ≈ 104k vertices; smoke: 22³ ≈ 10.6k
SUPERSTEPS = pick(10, 5)
PARTITIONS = 8
SPEEDUP_TARGET = 5.0             # full-scale bar (ISSUE acceptance)
SMOKE_SPEEDUP_TARGET = 2.5       # smoke-scaled bar (CI artifact job)


class _Sensor(VertexProgram):
    """A near-idle program: the decision phase is the measured signal."""

    name = "sensor"

    def initial_value(self, vertex_id, graph):
        return 0

    def compute(self, ctx, messages):
        pass

    def compute_cost(self, ctx, messages):
        return 1.0


class _PortableGreedy(GreedyMaxNeighbours):
    """The paper's rule, unchanged; not the exact type the sweep accepts."""


def _timed_run(decisions, heuristic):
    """One run; ``decisions`` is "shard" (Coordinator) or "central" (serial)."""
    graph = mesh_3d(MESH_SIDE)
    config = PregelConfig(
        num_workers=PARTITIONS, seed=0, quiet_window=10, heuristic=heuristic
    )
    registry = MetricsRegistry()
    with contextlib.ExitStack() as stack:
        if decisions == "shard":
            system = stack.enter_context(
                Coordinator(
                    graph, _Sensor(), config, executor=InlineExecutor(),
                    metrics_registry=registry,
                )
            )
        else:
            system = PregelSystem(
                graph, _Sensor(), config, metrics_registry=registry
            )
        start = time.perf_counter()
        reports = system.run(SUPERSTEPS)
        elapsed = time.perf_counter() - start
        phases = registry.phase_seconds()
        return {
            "decisions": decisions,
            "seconds": elapsed,
            "decision_seconds": phases["decide"],
            "migrations": sum(r.migrations_announced for r in reports),
            "phases": phases,
            "timeline": [
                (
                    r.superstep,
                    r.migrations_requested,
                    r.migrations_announced,
                    r.migrations_blocked,
                    r.cut_edges,
                    tuple(r.sizes),
                    r.computed_vertices,
                )
                for r in reports
            ],
        }


def _experiment():
    shard = _timed_run("shard", GreedyMaxNeighbours())
    assert shard["migrations"] > 0, "no adaptation measured"
    timeline = shard.pop("timeline")
    phases = shard.pop("phases")  # the headline run's breakdown
    pairs = {}
    # The central path: "portable" is the headline, "vectorised" the
    # reference (the central sweep over the CSR mirror).
    for path, heuristic in (
        ("portable", _PortableGreedy()),
        ("vectorised", GreedyMaxNeighbours()),
    ):
        central = _timed_run("central", heuristic)
        assert central.pop("timeline") == timeline, (
            f"serial ({path}) and sharded systems diverged"
        )
        del central["phases"]
        pairs[path] = {
            "shard": shard,
            "central": central,
            "decision_speedup": (
                central["decision_seconds"] / shard["decision_seconds"]
            ),
        }
    return {
        "mesh_side": MESH_SIDE,
        "vertices": MESH_SIDE ** 3,
        "supersteps": SUPERSTEPS,
        "partitions": PARTITIONS,
        "pairs": pairs,
        "phases": phases,
    }


def test_decision_phase_decentralisation(run_once, capsys):
    results = run_once(_experiment)
    record_result("decision_phase", results, phases=results.pop("phases"))
    with capsys.disabled():
        print()
        rows = []
        for path, pair in results["pairs"].items():
            for mode in ("central", "shard"):
                row = pair[mode]
                rows.append(
                    [
                        path,
                        mode,
                        f"{row['seconds']:.2f}",
                        f"{1000.0 * row['decision_seconds']:.1f}",
                        row["migrations"],
                    ]
                )
            rows.append(
                [path, "-> decision speedup",
                 f"{pair['decision_speedup']:.1f}x", "", ""]
            )
        print(
            format_table(
                ["central path", "decisions", "total s", "decision ms", "migr"],
                rows,
                title=(
                    f"Decision-phase decentralisation "
                    f"({results['vertices']} vertices, identical timelines "
                    "asserted)"
                ),
            )
        )
    target = SMOKE_SPEEDUP_TARGET if _harness.SMOKE else SPEEDUP_TARGET
    speedup = results["pairs"]["portable"]["decision_speedup"]
    assert speedup >= target, (
        f"serial decision time dropped only {speedup:.1f}x "
        f"(target {target}x)"
    )
