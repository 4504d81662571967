"""Dynamic-scenario benchmarks — the paper's paired-cluster experiment plus
the incremental-metrics speedup bar.

Two experiments:

* **Paired clusters** (§5 methodology): every catalog scenario replays twice
  against the *identical* event stream — adaptive vs static hash — and the
  adaptive side must end with a cut ratio no worse than static's.
* **Incremental metrics**: a 50k-vertex rolling-window churn run timed under
  ``metrics="incremental"`` (deltas per event/move) vs ``metrics="recompute"``
  (full cut/size/load recomputation every round, the pre-scenario behaviour
  kept as the debug cross-check).  Timelines are asserted identical; the
  speedup must clear ≥2× at full scale (the ISSUE acceptance bar).
"""

import time

from repro.analysis import format_table
from repro.core import AdaptiveConfig, AdaptiveRunner, VertexBalance
from repro.graph.stream import batch_by_time
from repro.partitioning import HashPartitioner, balanced_capacities
from repro.scenarios import (
    SCENARIOS,
    ChurnSpec,
    GraphSpec,
    get_scenario,
    play_scenario,
    scaled,
)

from benchmarks import _harness
from benchmarks._harness import pick, record_result

MAX_ROUNDS = pick(None, 6)   # smoke truncates every stream
SPEEDUP_TARGET = 2.0         # asserted at full scale only
ROLLING_VERTICES = pick(50_000, 2_000)

# The headline churn workload: a 50k-vertex community ring whose edges
# arrive continuously and expire on a rolling horizon (the telco regime).
ROLLING_SCENARIO = scaled(
    get_scenario("rolling-window"),
    name="rolling-window-50k",
    graph=GraphSpec(
        "ring",
        {"num_vertices": ROLLING_VERTICES, "neighbours_each_side": 3},
    ),
    churn=ChurnSpec(
        "rolling-window",
        {
            "rate": pick(60.0, 10.0),
            "duration": pick(60.0, 12.0),
            "horizon": 15.0,
        },
    ),
    window=2.0,
    settle_iterations=pick(30, 10),
)


def _paired(scenario):
    """Replay one scenario on both paired clusters; return the summary row."""
    adaptive = play_scenario(scenario, max_rounds=MAX_ROUNDS)
    static = play_scenario(scenario, adaptive=False, max_rounds=MAX_ROUNDS)
    return {
        "scenario": scenario.name,
        "regime": scenario.regime,
        "rounds": len(adaptive),
        "adaptive_final_cut": adaptive.final_cut_ratio(),
        "adaptive_peak_cut": adaptive.peak_cut_ratio(),
        "static_final_cut": static.final_cut_ratio(),
        "migrations": adaptive.total_migrations(),
    }


def test_scenario_paired_clusters(run_once, capsys):
    results = run_once(
        lambda: [_paired(SCENARIOS[name]) for name in sorted(SCENARIOS)]
    )
    record_result("scenarios_paired", results)
    with capsys.disabled():
        print()
        print(
            format_table(
                ["scenario", "regime", "rounds", "adaptive cut", "static cut",
                 "migrations"],
                [
                    [r["scenario"], r["regime"], r["rounds"],
                     f"{r['adaptive_final_cut']:.4f}",
                     f"{r['static_final_cut']:.4f}", r["migrations"]]
                    for r in results
                ],
                title="Paired clusters: adaptive vs static hash per churn regime",
            )
        )
    if _harness.SMOKE:
        return  # truncated streams: the end-of-run comparison is meaningless
    for row in results:
        # Adaptation must never lose to static placement of the same stream
        # (tiny epsilon: both are stochastic processes over the same seed).
        assert (
            row["adaptive_final_cut"] <= row["static_final_cut"] + 0.02
        ), row


def _timed_churn(metrics):
    """One rolling-window churn run; returns (churn_seconds, rounds, runner).

    Graph build, initial partition, settle and stream generation stay
    outside the timer: they are identical under both metrics modes, and the
    claim under test is about the per-round cost of the churn loop.
    """
    scenario = ROLLING_SCENARIO
    graph = scenario.build_graph()
    caps = balanced_capacities(
        graph.num_vertices, scenario.num_partitions, scenario.slack
    )
    state = HashPartitioner().partition(
        graph, scenario.num_partitions, list(caps)
    )
    runner = AdaptiveRunner(
        graph,
        state,
        AdaptiveConfig(
            willingness=scenario.willingness,
            quiet_window=scenario.quiet_window,
            seed=scenario.seed,
            balance=VertexBalance(slack=scenario.slack),
            metrics=metrics,
        ),
    )
    runner.run_until_convergence(max_iterations=scenario.settle_iterations)
    stream = scenario.build_stream(graph)
    rounds = 0
    start = time.perf_counter()
    for _, events in batch_by_time(stream, scenario.window):
        runner.apply_events(events)
        for _ in range(scenario.steps_per_round):
            runner.step()
        rounds += 1
    elapsed = time.perf_counter() - start
    return elapsed, rounds, runner


def _speedup_experiment():
    incremental_s, rounds, inc_runner = _timed_churn("incremental")
    recompute_s, _, rec_runner = _timed_churn("recompute")
    # The modes must be observationally identical — recompute only audits.
    assert list(inc_runner.timeline) == list(rec_runner.timeline), (
        "metrics modes diverged"
    )
    return {
        "vertices": ROLLING_VERTICES,
        "edges": inc_runner.graph.num_edges,
        "rounds": rounds,
        "incremental_s": incremental_s,
        "recompute_s": recompute_s,
        "speedup": recompute_s / incremental_s,
        "final_cut_ratio": inc_runner.state.cut_ratio(),
    }


def test_incremental_metrics_speedup(run_once, capsys):
    results = run_once(_speedup_experiment)
    record_result("scenarios_incremental_speedup", results)
    with capsys.disabled():
        print()
        print(
            format_table(
                ["|V|", "|E|", "rounds", "incremental s", "recompute s",
                 "speedup"],
                [[results["vertices"], results["edges"], results["rounds"],
                  f"{results['incremental_s']:.3f}",
                  f"{results['recompute_s']:.3f}",
                  f"{results['speedup']:.2f}"]],
                title=(
                    "Rolling-window churn: incremental metrics vs per-round "
                    "full recompute (identical timelines)"
                ),
            )
        )
    if _harness.SMOKE:
        return  # toy scale: the fixed per-round overheads drown the signal
    assert results["speedup"] >= SPEEDUP_TARGET, results
