"""``tools/trace_summary.py``: the stdlib-only trace post-processor.

The tool must read *both* exporter formats (JSONL span rows and Chrome
trace-event JSON) back into the same span-dict shape, aggregate per phase
and per lane, and render the tables without importing the repro package —
so these tests feed it real exporter output and then poke the module
directly.
"""

import importlib.util
import io
from pathlib import Path

from repro.obs import write_chrome_trace, write_jsonl

_TOOL_PATH = Path(__file__).resolve().parents[1] / "tools" / "trace_summary.py"
_spec = importlib.util.spec_from_file_location("trace_summary", _TOOL_PATH)
trace_summary = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trace_summary)

SPANS = [
    ("superstep", "coordinator", 100.0, 0.5, {"superstep": 1}),
    ("compute", "shard-0", 100.05, 0.2, None),
    ("compute", "shard-1", 100.1, 0.3, None),
    ("barrier-merge", "coordinator", 100.4, 0.1, None),
]


def test_load_spans_reads_both_formats(tmp_path):
    jsonl = tmp_path / "trace.jsonl"
    chrome = tmp_path / "trace.json"
    write_jsonl(SPANS, jsonl)
    write_chrome_trace(SPANS, chrome)
    from_jsonl = trace_summary.load_spans(jsonl)
    from_chrome = trace_summary.load_spans(chrome)
    assert [s["name"] for s in from_jsonl] == [s[0] for s in SPANS]
    # Chrome round-trips through µs + origin normalisation; names, lanes
    # and durations survive exactly (durations up to float µs rounding)
    assert [s["name"] for s in from_chrome] == [s[0] for s in SPANS]
    assert [s["lane"] for s in from_chrome] == [s[1] for s in SPANS]
    for row, span in zip(from_chrome, SPANS):
        assert abs(row["dur"] - span[3]) < 1e-9
    assert from_chrome[0]["args"] == {"superstep": 1}


def test_phase_totals_aggregates_by_name():
    totals = trace_summary.phase_totals(
        [dict(name=s[0], lane=s[1], start=s[2], dur=s[3]) for s in SPANS]
    )
    assert abs(totals["compute"] - 0.5) < 1e-12
    assert abs(totals["superstep"] - 0.5) < 1e-12
    assert abs(totals["barrier-merge"] - 0.1) < 1e-12


def test_format_summary_has_all_three_tables(tmp_path):
    path = tmp_path / "trace.jsonl"
    write_jsonl(SPANS, path)
    text = trace_summary.format_summary(trace_summary.load_spans(path))
    assert "wall-clock by phase:" in text
    assert "wall-clock by lane:" in text
    assert "top 4 spans:" in text
    # per-phase aggregation: two compute spans, 500ms total
    phase_line = next(
        line for line in text.splitlines() if line.startswith("compute")
    )
    assert "2" in phase_line.split()
    assert "500.000" in phase_line
    # per-shard totals show up as lane rows
    assert "shard-0" in text
    assert "shard-1" in text


def test_format_summary_empty():
    assert trace_summary.format_summary([]) == "(no spans in trace)"


def test_main_top_limits_the_span_table(tmp_path):
    path = tmp_path / "trace.jsonl"
    write_jsonl(SPANS, path)
    out = io.StringIO()
    assert trace_summary.main([str(path), "--top", "2"], out=out) == 0
    text = out.getvalue()
    assert "top 2 spans:" in text
    # the two longest spans are superstep (0.5) and compute (0.3)
    tail = text.split("top 2 spans:")[1]
    assert "superstep" in tail
    assert "barrier-merge" not in tail


def test_main_reports_unreadable_trace(tmp_path):
    out = io.StringIO()
    assert trace_summary.main([str(tmp_path / "missing.json")], out=out) == 2
    assert "cannot read trace" in out.getvalue()


def test_format_summary_names_each_store_demotion(tmp_path):
    """A shard whose array store fell back to dicts shows up with its lane
    and the gate it fell through — only when there is one."""
    path = tmp_path / "trace.jsonl"
    write_jsonl(SPANS, path)
    assert "store demotions" not in trace_summary.format_summary(
        trace_summary.load_spans(path)
    )
    write_jsonl(
        [*SPANS, ("demote", "shard-1", 100.2, 0.004, {"reason": "patch-shape"})],
        path,
    )
    text = trace_summary.format_summary(trace_summary.load_spans(path))
    section = text[text.index("store demotions:"):].splitlines()
    assert section[3].split() == ["shard-1", "patch-shape", "4.000"]
