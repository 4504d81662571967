"""Summarise a repro trace file: per-phase wall-clock, lanes, top spans.

Reads either exporter format produced by ``repro … --trace`` /
:mod:`repro.obs.export` — JSONL span rows (``*.jsonl``) or Chrome
trace-event JSON — and prints three tables: wall-clock by phase name,
wall-clock by lane (coordinator / ``shard-<id>`` / wire), and the top-N
longest individual spans — plus, when any shard's array store fell back
to dict state, which shard and through which gate (the ``demote`` spans).
Stdlib only, so it runs anywhere the trace file does::

    python tools/trace_summary.py out.json --top 15

Durations print in milliseconds; the tool never needs the repro package
itself (CI's doc-lint and the unit suite keep it honest).
"""

import argparse
import json
import sys

__all__ = ["format_summary", "load_spans", "main", "phase_totals"]


def _spans_from_chrome(document):
    """Span dicts from a Chrome trace-event document (durations seconds)."""
    events = document.get("traceEvents", [])
    lane_names = {
        event.get("tid"): event.get("args", {}).get("name")
        for event in events
        if event.get("ph") == "M" and event.get("name") == "thread_name"
    }
    spans = []
    for event in events:
        if event.get("ph") != "X":
            continue
        tid = event.get("tid")
        spans.append(
            {
                "name": event.get("name", "?"),
                "lane": lane_names.get(tid) or f"tid-{tid}",
                "start": event.get("ts", 0.0) / 1e6,
                "dur": event.get("dur", 0.0) / 1e6,
                "args": event.get("args") or None,
            }
        )
    return spans


def load_spans(path):
    """Load span dicts from a JSONL or Chrome trace file at ``path``.

    Every span comes back as ``{"name", "lane", "start", "dur", "args"}``
    with times in seconds, whichever format was on disk.
    """
    with open(path, encoding="utf-8") as fh:
        head = fh.read(1)
        fh.seek(0)
        if head == "{" and not str(path).endswith(".jsonl"):
            return _spans_from_chrome(json.load(fh))
        spans = []
        for line in fh:
            line = line.strip()
            if line:
                row = json.loads(line)
                row.setdefault("args", None)
                spans.append(row)
        return spans


def _table(headers, rows):
    """Plain aligned text table (left column left-aligned, rest right)."""
    rows = [[str(cell) for cell in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows)) if rows
        else len(headers[i])
        for i in range(len(headers))
    ]
    lines = []

    def fmt(cells):
        first = cells[0].ljust(widths[0])
        rest = [cell.rjust(widths[i + 1]) for i, cell in enumerate(cells[1:])]
        return "  ".join([first, *rest]).rstrip()

    lines.append(fmt(headers))
    lines.append(fmt(["-" * w for w in widths]))
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def _ms(seconds):
    return f"{1000.0 * seconds:.3f}"


def _aggregate(spans, key):
    """``{key_value: [count, total_seconds, max_seconds]}`` over spans."""
    table = {}
    for span in spans:
        entry = table.setdefault(span[key], [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += span["dur"]
        entry[2] = max(entry[2], span["dur"])
    return table


def phase_totals(spans):
    """``{phase_name: total_seconds}`` — the summary's per-phase column."""
    return {
        name: total for name, (_, total, _) in _aggregate(spans, "name").items()
    }


def format_summary(spans, top=10):
    """The full text summary for a list of span dicts."""
    if not spans:
        return "(no spans in trace)"
    sections = []
    by_phase = sorted(
        _aggregate(spans, "name").items(), key=lambda kv: -kv[1][1]
    )
    sections.append("wall-clock by phase:")
    sections.append(
        _table(
            ["phase", "count", "total_ms", "mean_ms", "max_ms"],
            [
                [name, count, _ms(total), _ms(total / count), _ms(peak)]
                for name, (count, total, peak) in by_phase
            ],
        )
    )
    by_lane = sorted(
        _aggregate(spans, "lane").items(), key=lambda kv: -kv[1][1]
    )
    sections.append("")
    sections.append("wall-clock by lane:")
    sections.append(
        _table(
            ["lane", "spans", "total_ms"],
            [
                [lane, count, _ms(total)]
                for lane, (count, total, _) in by_lane
            ],
        )
    )
    longest = sorted(spans, key=lambda s: -s["dur"])[:top]
    sections.append("")
    sections.append(f"top {len(longest)} spans:")
    sections.append(
        _table(
            ["name", "lane", "dur_ms", "args"],
            [
                [
                    span["name"],
                    span["lane"],
                    _ms(span["dur"]),
                    json.dumps(span["args"]) if span.get("args") else "",
                ]
                for span in longest
            ],
        )
    )
    demotions = [span for span in spans if span["name"] == "demote"]
    if demotions:
        sections.append("")
        sections.append("store demotions:")
        sections.append(
            _table(
                ["lane", "reason", "dur_ms"],
                [
                    [
                        span["lane"],
                        (span.get("args") or {}).get("reason", "?"),
                        _ms(span["dur"]),
                    ]
                    for span in demotions
                ],
            )
        )
    return "\n".join(sections)


def main(argv=None, out=None):
    """CLI entry point; returns the process exit code."""
    out = out or sys.stdout
    parser = argparse.ArgumentParser(
        description="Summarise a repro trace file (JSONL span rows or "
        "Chrome trace-event JSON)"
    )
    parser.add_argument("trace", help="trace file written by --trace")
    parser.add_argument("--top", type=int, default=10,
                        help="how many longest spans to list (default 10)")
    args = parser.parse_args(argv)
    try:
        spans = load_spans(args.trace)
    except (OSError, ValueError) as exc:
        out.write(f"cannot read trace {args.trace!r}: {exc}\n")
        return 2
    out.write(format_summary(spans, top=args.top) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
