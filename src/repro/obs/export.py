"""Span exporters: JSONL sink and Chrome trace-event JSON.

Two on-disk shapes, both derived from the same span tuples:

* **JSONL** (``*.jsonl``) — one :func:`repro.obs.trace.span_dict` row per
  line; trivially greppable, streamable, and what
  ``tools/trace_summary.py`` reads fastest.
* **Chrome trace-event JSON** (anything else) — the
  ``{"traceEvents": [...]}`` format chrome://tracing and Perfetto load.
  Every span becomes a complete (``"ph": "X"``) event with microsecond
  ``ts``/``dur``; each lane becomes a ``tid`` with a ``thread_name``
  metadata record, so the UI shows one row per lane (coordinator first,
  then ``shard-0``, ``shard-1``, …) and infers nesting from time
  containment.

Timestamps are normalised to the earliest span's wall-clock start so the
viewer opens at t≈0 regardless of when the run happened.
"""

import json

from .trace import LANE, lane_order, span_dict

__all__ = ["chrome_trace_events", "write_chrome_trace", "write_jsonl", "write_trace"]


def write_jsonl(spans, path):
    """Write spans as JSON-lines rows to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span_dict(span), sort_keys=True))
            fh.write("\n")


def chrome_trace_events(spans):
    """Spans as a Chrome trace-event list (metadata rows first)."""
    lanes = lane_order({span[LANE] for span in spans})
    tids = {lane: tid for tid, lane in enumerate(lanes)}
    events = [
        {
            "ph": "M",
            "name": "thread_name",
            "pid": 0,
            "tid": tid,
            "args": {"name": lane},
        }
        for lane, tid in tids.items()
    ]
    origin = min((span[2] for span in spans), default=0.0)
    for name, lane, start, duration, args in spans:
        event = {
            "ph": "X",
            "name": name,
            "pid": 0,
            "tid": tids[lane],
            "ts": (start - origin) * 1e6,
            "dur": duration * 1e6,
        }
        if args:
            event["args"] = args
        events.append(event)
    return events


def write_chrome_trace(spans, path):
    """Write spans as a Perfetto-loadable Chrome trace file at ``path``."""
    document = {
        "traceEvents": chrome_trace_events(spans),
        "displayTimeUnit": "ms",
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh)
        fh.write("\n")


def write_trace(spans, path):
    """Write spans to ``path``, picking the format from the suffix.

    ``*.jsonl`` → JSON-lines span rows; anything else → Chrome trace JSON.
    """
    if str(path).endswith(".jsonl"):
        write_jsonl(spans, path)
    else:
        write_chrome_trace(spans, path)
