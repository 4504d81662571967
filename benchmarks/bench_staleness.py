"""Relaxed synchrony: what snapshot staleness buys and what it costs.

The paper's protocol re-broadcasts remaining capacities every iteration —
k·(k−1) messages per superstep, the price of strict-BSP decision inputs.
``PregelConfig(snapshot_staleness=s)`` relaxes that: each decision snapshot
is reused for up to ``s`` extra supersteps and the barrier skips the
broadcast whenever the snapshot will be reused, so the metered capacity
traffic drops to one publish per ``s + 1`` supersteps.  Placement deltas
still broadcast every barrier (mirrors stay exact — ``test_staleness.py``
pins that), so the *only* thing that ages is the capacity vector the
heuristic and quota arbitration read.

This bench sweeps the staleness window over the 100k-vertex settling
workload of ``bench_decisions.py`` (3-D FEM mesh, hash-partitioned, a
near-idle vertex program so partitioning work is the signal) and records,
per window: capacity messages, migrations, and cut-ratio trajectory.

Asserted, including at smoke scale:

* capacity traffic shrinks **≥2×** at staleness 4 (the arithmetic floor —
  the publish cadence is deterministic, so this is a regression tripwire
  for the barrier gating);
* adaptation still works at every window: migrations happen and the final
  cut ratio is no worse than the initial one.
"""

import time

from repro.analysis import format_table
from repro.cluster import Coordinator, InlineExecutor
from repro.generators import mesh_3d
from repro.pregel.system import PregelConfig
from repro.pregel.vertex import VertexProgram

from benchmarks._harness import pick, record_result

MESH_SIDE = pick(47, 22)         # 47³ ≈ 104k vertices; smoke: 22³ ≈ 10.6k
SUPERSTEPS = pick(12, 6)
PARTITIONS = 8
STALENESS_SWEEP = (0, 1, 2, 4, 8)
SAVINGS_TARGET = 2.0             # capacity-message ratio k=0 / k=4, both scales


class _Sensor(VertexProgram):
    """A near-idle program: partitioning work is the measured signal."""

    name = "sensor"

    def initial_value(self, vertex_id, graph):
        return 0

    def compute(self, ctx, messages):
        pass

    def compute_cost(self, ctx, messages):
        return 1.0


def _config(staleness):
    return PregelConfig(
        num_workers=PARTITIONS,
        seed=0,
        quiet_window=SUPERSTEPS,
        snapshot_staleness=staleness,
    )


def _staleness_run(staleness):
    with Coordinator(
        mesh_3d(MESH_SIDE),
        _Sensor(),
        _config(staleness),
        executor=InlineExecutor(),
    ) as system:
        start = time.perf_counter()
        reports = system.run(SUPERSTEPS)
        elapsed = time.perf_counter() - start
    return {
        "staleness": staleness,
        "seconds": elapsed,
        "capacity_messages": sum(
            r.traffic.capacity_messages for r in reports
        ),
        "migrations": sum(r.migrations_announced for r in reports),
        "initial_cut_ratio": reports[0].cut_ratio,
        "final_cut_ratio": reports[-1].cut_ratio,
        "final_imbalance": (
            max(reports[-1].sizes) * PARTITIONS / sum(reports[-1].sizes)
        ),
    }


def _experiment():
    sweep = [_staleness_run(s) for s in STALENESS_SWEEP]
    return {
        "mesh_side": MESH_SIDE,
        "vertices": MESH_SIDE ** 3,
        "supersteps": SUPERSTEPS,
        "partitions": PARTITIONS,
        "sweep": sweep,
    }


def test_staleness_sweep(run_once, capsys):
    results = run_once(_experiment)
    record_result("staleness", results)
    sweep = {row["staleness"]: row for row in results["sweep"]}
    with capsys.disabled():
        print()
        rows = [
            [
                row["staleness"],
                row["capacity_messages"],
                row["migrations"],
                f"{row['initial_cut_ratio']:.4f}",
                f"{row['final_cut_ratio']:.4f}",
                f"{row['seconds']:.2f}",
            ]
            for row in results["sweep"]
        ]
        print(
            format_table(
                ["staleness", "cap msgs", "migr", "cut@1",
                 f"cut@{results['supersteps']}", "s"],
                rows,
                title=(
                    f"Snapshot staleness sweep ({results['vertices']} "
                    f"vertices, {results['partitions']} partitions)"
                ),
            )
        )
    for row in results["sweep"]:
        assert row["migrations"] > 0, (
            f"staleness {row['staleness']}: adaptation stalled entirely"
        )
        assert row["final_cut_ratio"] <= row["initial_cut_ratio"], (
            f"staleness {row['staleness']}: cut ratio regressed "
            f"({row['initial_cut_ratio']:.4f} -> "
            f"{row['final_cut_ratio']:.4f})"
        )
    savings = sweep[0]["capacity_messages"] / sweep[4]["capacity_messages"]
    assert savings >= SAVINGS_TARGET, (
        f"staleness 4 cut capacity traffic only {savings:.2f}x "
        f"(target {SAVINGS_TARGET}x)"
    )
