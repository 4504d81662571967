"""Measure one workload: fresh repeats, the traced pass, the summaries.

End-to-end metrics come from untraced repeats on the stock executors; one
further repeat with ``Tracer()`` and a probe executor yields the span-,
probe- and replay-derived layer metrics, and the ratio of the two run
times is the tracing overhead.  Timing metrics are the median over
repeats; per-step percentiles pool the steps of every untraced repeat.
"""

import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

from benchmarks.e2e import catalog, ledger
from benchmarks.e2e.workloads import Ops, run_repeat, sizes_for

# A contract run must exit within 180 s: stop adding repeats once the next
# one would pass this much wall-clock.
_WALL_CAP = 150.0

_EXPECTED = Path(__file__).with_name("expected.json")


def expected_digest(profile, workload):
    """The pinned seed-0 digest of ``workload``, or None when unpinned."""
    pinned = json.loads(_EXPECTED.read_text())
    return pinned.get(profile, {}).get(workload)


def _collect(workload, seed, sizes, ops, repeats, seconds, traced):
    """Run the repeats; returns ``(untraced, traced_repeat, untraced_rss)``.

    With ``repeats`` None the count is time-budgeted: whole fresh repeats
    until ``seconds`` of timed region are measured, never fewer than two
    (a traced run spends half its budget on the traced repeat).
    """
    untraced = []
    traced_repeat = None
    rss = None
    began = perf_counter()
    if repeats is None:
        budget, minimum = (seconds / 2, 1) if traced else (seconds, 2)
    else:
        budget, minimum = 0.0, repeats
    measured = last_wall = 0.0
    try:
        while len(untraced) < minimum or (
            measured < budget
            and perf_counter() - began + last_wall <= _WALL_CAP
        ):
            started = perf_counter()
            repeat = run_repeat(workload, seed, sizes, ops)
            last_wall = perf_counter() - started
            measured += repeat.sample["run_s"]
            untraced.append(repeat)
        # ru_maxrss only grows: read it before the traced pass adds its
        # span lists and captured payloads to the process.
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if traced:
            traced_repeat = run_repeat(workload, seed, sizes, ops, traced=True)
    except Exception as exc:
        # The workload boundary: a raised exception is a failed op, and the
        # result line still has to say so.
        traceback.print_exc(file=sys.stderr)
        ops.fail(f"{type(exc).__name__}: {exc}")
    return untraced, traced_repeat, rss


def _summaries(workload, untraced, traced_repeat, rss, ops):
    """Fold the repeats' samples into one summary per declared metric."""
    units = {name: metric.unit for name, metric in catalog.BY_NAME.items()}
    metrics = {}
    names = {name for repeat in untraced for name in repeat.sample}
    for name in sorted(names):
        samples = [r.sample[name] for r in untraced if name in r.sample]
        metrics[name] = ledger.summarise(samples, units[name])
    pooled = [1000.0 * s for repeat in untraced for s in repeat.steps]
    percentiles = (
        (("step_ms_p50", 50), ("step_ms_p90", 90))
        if workload in catalog.BY_NAME["step_ms_p50"].workloads else ()
    )
    for name, pct in percentiles:
        per_repeat = [
            ledger.percentile([1000.0 * s for s in repeat.steps], pct)
            for repeat in untraced
        ]
        metrics[name] = ledger.summarise(
            per_repeat, "ms", value=ledger.percentile(pooled, pct)
        )
        metrics[name]["pooled_n"] = len(pooled)
    metrics["peak_rss_mb"] = ledger.summarise([rss], "MiB")
    if traced_repeat is not None:
        for name, value in traced_repeat.sample.items():
            # Timers that also ran untraced keep their untraced value.
            if name not in metrics:
                metrics[name] = ledger.summarise([value], units[name])
        metrics["obs.trace_overhead_ratio"] = ledger.summarise(
            [traced_repeat.sample["run_s"] / metrics["run_s"]["value"]],
            "ratio",
        )
    metrics["failed_share"] = ledger.summarise(
        [ops.failed / ops.attempted], "ratio"
    )
    return metrics


def measure(workload, seed, profile, scale=1.0, *, repeats=None,
            seconds=catalog.RUN_SECONDS, traced=False):
    """Measure ``workload``; returns its ledger record.

    ``traced`` adds the traced pass (a no-op for the core workload, whose
    layers are the driver's own timers).  The digest is compared with
    ``expected.json`` where it is pinned: seed 0, scale 1.
    """
    ops = Ops()
    traced = traced and workload != catalog.CORE
    untraced, traced_repeat, rss = _collect(
        workload, seed, sizes_for(profile, scale), ops, repeats, seconds,
        traced,
    )
    digest = untraced[0].digest if untraced else None
    every = untraced + ([traced_repeat] if traced_repeat else [])
    for index, repeat in enumerate(every[1:], start=1):
        ops.check(
            f"repeat {index} digest equals repeat 0",
            repeat.digest == digest,
            f"{repeat.digest} != {digest}",
        )
    if scale == 1.0 and seed == 0 and digest is not None:
        want = expected_digest(profile, workload)
        ops.check(
            "digest equals expected.json", digest == want,
            f"got {json.dumps(digest)}, pinned {json.dumps(want)}; update "
            "benchmarks/e2e/expected.json if the change is intended",
        )
    complete = rss is not None and (traced_repeat is not None or not traced)
    return {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "errors": ops.errors,
        "digest": digest,
        "repeats": len(untraced),
        "traced": traced_repeat is not None,
        "metrics": (
            _summaries(workload, untraced, traced_repeat, rss, ops)
            if complete else {}
        ),
    }
