"""Million-vertex rolling-window ingestion: batched vs per-event churn.

The paper's workloads arrive as change streams over graphs with millions of
vertices; what gates that scale in this reproduction is how fast
``AdaptiveRunner.apply_events`` drains a round's events.  This bench builds
a 1M-vertex community ring, generates one rolling-window arrival stream
(edges arrive continuously and expire ``horizon`` seconds later), and
ingests the identical rounds twice — through the :mod:`repro.core.ingest`
array path the runner picks on this configuration, and through the
per-event loop (the fallback every other configuration takes; forced here,
bench-locally, by clearing the runner's ingestor) — asserting the results
are *identical* and the batch path is faster.

Two regimes are timed:

* **buffered backlog** (asserted): the paper's CDR mode — topology frozen
  while a computation runs, then the whole backlog applies at once.  With
  the expiry horizon inside the buffer span, most arrivals net out before
  they ever touch the graph, which the grouped batch path exploits
  algebraically (one presence probe per pair, no mutations) and the
  per-event loop cannot.  Bar: ≥ 5× at full scale, ≥ 2.5× at smoke scale
  (the fixed per-round overheads and the smaller graph flatten the ratio).
* **continuous drip** (reported): short windows, horizon beyond the
  window, every event mutates the graph — the floor case where both paths
  pay the same per-edge set mutations and batching only removes
  interpreter overhead.

Timing covers ``apply_events`` only; graph build, hash partition, warm-up
and stream generation are identical under both modes and stay outside the
timer, as does slicing the stream into rounds.
"""

import gc
import time

from repro.analysis import format_table
from repro.core import AdaptiveConfig, AdaptiveRunner
from repro.generators.random_graphs import ring_lattice
from repro.graph.stream import batch_by_time
from repro.partitioning import HashPartitioner, balanced_capacities
from repro.scenarios.churn import rolling_window_churn

from benchmarks import _harness
from benchmarks._harness import pick, record_result

VERTICES = pick(1_000_000, 20_000)
PARTITIONS = 8
RATE = pick(4000.0, 1500.0)          # edge arrivals per stream-second
DURATION = pick(40.0, 16.0)          # stream span in seconds
BUFFER_WINDOW = pick(20.0, 8.0)      # buffered regime: freeze span
BUFFER_HORIZON = 2.0                 # expiry inside the buffer: arrivals net out
DRIP_WINDOW = 2.0                    # continuous regime: round length
DRIP_HORIZON = 10.0                  # expiry beyond the window: all edges land
REPEATS = 3                          # min-of-N timing (1-core boxes are noisy)

SPEEDUP_FLOOR = 5.0                  # full-scale bar (buffered regime)
SMOKE_SPEEDUP_FLOOR = 2.5            # smoke bar, asserted in CI


def _build():
    graph = ring_lattice(VERTICES, neighbours_each_side=2)
    caps = balanced_capacities(graph.num_vertices, PARTITIONS, 1.10)
    state = HashPartitioner().partition(graph, PARTITIONS, list(caps))
    return graph, state


def _rounds(base_graph, window, horizon):
    """Pre-sliced event rounds (identical input for both ingestion modes)."""
    stream = rolling_window_churn(
        base_graph, seed=1, rate=RATE, duration=DURATION, horizon=horizon
    )
    return [events for _, events in batch_by_time(stream, window)], len(stream)


def _ingest(rounds, batched):
    """One full ingestion run; returns (seconds, changed, runner)."""
    graph, state = _build()
    runner = AdaptiveRunner(graph, state, AdaptiveConfig(seed=0))
    assert runner._ingestor is not None, "the batch path must engage"
    if not batched:
        runner._ingestor = None  # the per-event baseline
    changed = 0
    gc.disable()
    start = time.perf_counter()
    for events in rounds:
        changed += runner.apply_events(events)
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed, changed, runner


def _assert_identical(batch_runner, loop_runner):
    """The equivalence contract: both paths land in the same state."""
    assert batch_runner.state.cut_edges == loop_runner.state.cut_edges
    assert batch_runner.state.sizes == loop_runner.state.sizes
    assert batch_runner.metrics.loads == loop_runner.metrics.loads
    assert dict(batch_runner.state.assignment_items()) == dict(
        loop_runner.state.assignment_items()
    )
    assert batch_runner._active == loop_runner._active
    batch_runner.state.validate()


def _regime(base_graph, window, horizon):
    rounds, num_events = _rounds(base_graph, window, horizon)
    batch_s = loop_s = None
    batch_runner = loop_runner = None
    for _ in range(REPEATS):
        b, b_changed, b_runner = _ingest(rounds, batched=True)
        l, l_changed, l_runner = _ingest(rounds, batched=False)
        assert b_changed == l_changed
        batch_runner, loop_runner = b_runner, l_runner
        batch_s = b if batch_s is None else min(batch_s, b)
        loop_s = l if loop_s is None else min(loop_s, l)
    _assert_identical(batch_runner, loop_runner)
    return {
        "events": num_events,
        "rounds": len(rounds),
        "window": window,
        "horizon": horizon,
        "batch_s": batch_s,
        "loop_s": loop_s,
        "speedup": loop_s / batch_s,
        "final_cut_edges": batch_runner.state.cut_edges,
    }


def test_scale_ingestion_speedup(run_once, capsys):
    def experiment():
        base_graph, _ = _build()
        return {
            "vertices": VERTICES,
            "buffered": _regime(base_graph, BUFFER_WINDOW, BUFFER_HORIZON),
            "continuous": _regime(base_graph, DRIP_WINDOW, DRIP_HORIZON),
        }

    results = run_once(experiment)
    record_result("scale_ingestion", results)
    with capsys.disabled():
        print()
        rows = [
            [
                name,
                results[name]["events"],
                results[name]["rounds"],
                f"{results[name]['batch_s']:.3f}",
                f"{results[name]['loop_s']:.3f}",
                f"{results[name]['speedup']:.2f}",
            ]
            for name in ("buffered", "continuous")
        ]
        print(
            format_table(
                ["regime", "events", "rounds", "batch s", "loop s", "speedup"],
                rows,
                title=(
                    f"{VERTICES:,}-vertex rolling window: batched vs "
                    "per-event ingestion (identical results)"
                ),
            )
        )
    floor = SMOKE_SPEEDUP_FLOOR if _harness.SMOKE else SPEEDUP_FLOOR
    assert results["buffered"]["speedup"] >= floor, results
    # The continuous drip is the batch path's floor case: every event
    # mutates the graph, so batching only sheds interpreter overhead
    # (~1.6× at full scale).  The reported number is the signal; the
    # assert is only a catastrophic-regression guard, with real slack for
    # timing noise on tiny smoke rounds on a shared 1-core CI box.
    assert results["continuous"]["speedup"] >= 0.8, results
