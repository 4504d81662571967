"""Dynamic-scenario benchmarks — the paper's paired-cluster experiment plus
the incremental-metrics speedup bar.

Two experiments:

* **Paired clusters** (§5 methodology): every catalog scenario replays twice
  against the *identical* event stream — adaptive vs static hash — and the
  adaptive side must end with a cut ratio no worse than static's.
* **Incremental metrics**: a 50k-vertex rolling-window churn scenario
  replayed plainly (deltas per event/move) vs with ``audit=True`` (the
  graph check and a full cut/size/load recount after every round, the
  per-round cost the incremental engine avoids).  Timelines are asserted
  identical; the audited replay must take ≥2× as long at full scale.
"""

import time

from repro.analysis import format_table
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


def _timed_play(audit):
    """One whole rolling-window replay; returns (seconds, result).  Build,
    settle and stream generation are timed on both legs alike."""
    start = time.perf_counter()
    result = play_scenario(ROLLING_SCENARIO, audit=audit)
    return time.perf_counter() - start, result


def _speedup_experiment():
    plain_s, plain = _timed_play(audit=False)
    audited_s, audited = _timed_play(audit=True)
    # Auditing only reads: the two replays must be observationally identical.
    assert plain.digest() == audited.digest(), "audited replay diverged"
    return {
        "vertices": ROLLING_VERTICES,
        "edges": plain.rounds[-1].num_edges,
        "rounds": len(plain),
        "plain_s": plain_s,
        "audited_s": audited_s,
        "speedup": audited_s / plain_s,
        "final_cut_ratio": plain.final_cut_ratio(),
    }


def test_incremental_metrics_speedup(run_once, capsys):
    results = run_once(_speedup_experiment)
    record_result("scenarios_incremental_speedup", results)
    with capsys.disabled():
        print()
        print(
            format_table(
                ["|V|", "|E|", "rounds", "plain s", "audited s",
                 "speedup"],
                [[results["vertices"], results["edges"], results["rounds"],
                  f"{results['plain_s']:.3f}",
                  f"{results['audited_s']:.3f}",
                  f"{results['speedup']:.2f}"]],
                title=(
                    "Rolling-window churn: incremental metrics vs an audit "
                    "(full recount) every round (identical timelines)"
                ),
            )
        )
    if _harness.SMOKE:
        return  # toy scale: the fixed per-round overheads drown the signal
    assert results["speedup"] >= SPEEDUP_TARGET, results
