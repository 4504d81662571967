"""Compare two ledgers: ``python -m benchmarks.e2e.diff A.json B.json``.

One row per (workload, bounded metric) with both medians, the run-to-run
spread, the metric's bound and a verdict:

* ``ok`` — B's median is within the bound of A's;
* ``regressed`` / ``improved`` — it moved past the bound, the bad or the
  good way (an exact metric — bound 0 — moves on any change);
* ``unresolved`` — the repeats disagree by more than the bound and the two
  ledgers' samples interleave, so the medians cannot settle the question
  (reported, not counted as unchanged).

Exit status 1 on any ``regressed`` row or any rise in ``failed_share``.
A is the baseline (the parent commit), B the change.
"""

import argparse
import sys

from benchmarks.e2e import catalog, ledger


def _worse_by(metric, before, after):
    """Relative move of ``after`` in the metric's *bad* direction."""
    if before == after:
        return 0.0
    if not before:
        return float("inf") if (after > before) == (
            metric.better == "lower"
        ) else float("-inf")
    change = (after - before) / abs(before)
    return change if metric.better == "lower" else -change


def _interleave(metric, a_samples, b_samples):
    """False only when every B sample reads better (or every one worse)
    than every A sample."""
    if metric.better == "higher":
        a_samples = [-x for x in a_samples]
        b_samples = [-x for x in b_samples]
    return not (
        max(b_samples) < min(a_samples) or min(b_samples) > max(a_samples)
    )


def verdict(metric, a_summary, b_summary):
    """``(verdict, worse_by, spread)`` for one (workload, metric) pair."""
    worse = _worse_by(metric, a_summary["value"], b_summary["value"])
    spread = max(ledger.spread(a_summary), ledger.spread(b_summary))
    if metric.bound == 0.0:
        word = "ok" if worse == 0 else "regressed" if worse > 0 else "improved"
        return word, worse, spread
    if spread > metric.bound and _interleave(
        metric, a_summary["samples"], b_summary["samples"]
    ):
        return "unresolved", worse, spread
    if worse > metric.bound:
        return "regressed", worse, spread
    if worse < -metric.bound:
        return "improved", worse, spread
    return "ok", worse, spread


def compare(a, b):
    """Rows ``(workload, metric, a, b, worse_by, spread, bound, verdict)``
    for every bounded metric both ledgers hold."""
    rows = []
    bounded = catalog.of_kind(catalog.END_TO_END, catalog.WORKLOAD_E2E)
    for workload in catalog.ALL:
        a_metrics = a["workloads"].get(workload, {}).get("metrics", {})
        b_metrics = b["workloads"].get(workload, {}).get("metrics", {})
        for metric in bounded:
            if workload not in metric.workloads:
                continue
            if metric.name not in a_metrics or metric.name not in b_metrics:
                rows.append((workload, metric.name, None, None, None, None,
                             metric.bound, "missing"))
                continue
            a_summary, b_summary = a_metrics[metric.name], b_metrics[metric.name]
            word, worse, spread = verdict(metric, a_summary, b_summary)
            rows.append((workload, metric.name, a_summary["value"],
                         b_summary["value"], worse, spread, metric.bound,
                         word))
    return rows


def _format(rows):
    header = ("workload", "metric", "A median", "B median", "worse by",
              "spread", "bound", "verdict")
    table = [header]
    for workload, name, a, b, worse, spread, bound, word in rows:
        if a is None:
            table.append((workload, name, "-", "-", "-", "-", "-", word))
            continue
        table.append((
            workload, name, f"{a:.6g}", f"{b:.6g}", f"{worse:+.1%}",
            f"{spread:.1%}", "exact" if bound == 0.0 else f"{bound:.0%}",
            word,
        ))
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in table
    )


def main(argv=None):
    """Entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e.diff", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("baseline", help="ledger A (the parent commit)")
    parser.add_argument("change", help="ledger B (the change)")
    args = parser.parse_args(argv)
    rows = compare(ledger.read(args.baseline), ledger.read(args.change))
    print(_format(rows))
    bad = [
        row for row in rows
        if row[-1] in ("regressed", "missing")
        or (row[1] == "failed_share" and row[4] is not None and row[4] > 0)
    ]
    counts = {}
    for row in rows:
        counts[row[-1]] = counts.get(row[-1], 0) + 1
    print(", ".join(f"{n} {word}" for word, n in sorted(counts.items())))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
