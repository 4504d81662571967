"""The observability layer: tracer, metrics registry, exporters, inertness.

Three contracts under test:

* **Unit behaviour** — span tuples, the disabled fast path, counter/gauge/
  histogram semantics, the :class:`~repro.obs.CounterGroup` mapping view,
  and both exporter formats.
* **Determinism** — a traced run must replay the *byte-identical* golden
  superstep timeline on every executor backend
  (``tests/golden/pregel-*.json``, the same fixtures
  ``test_cluster_golden.py`` pins for untraced runs).  Tracing is
  measurement, never semantics.
* **The merged timeline** — a socket run's single trace must interleave
  worker-side ``compute`` spans (per-shard lanes) with the coordinator's
  barrier spans and the wire lane's send/recv spans.

Plus the reset-at-start regression tests: a reused executor reports
per-session counter values instead of silently accumulating across runs.
"""

import atexit
import json
import os
from pathlib import Path

import pytest

from repro.cluster import LocalWorkerPool, SocketExecutor
from repro.core import ingest
from repro.obs import (
    NULL_TRACER,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Tracer,
    span_dict,
    write_chrome_trace,
    write_jsonl,
    write_trace,
)
from repro.obs.export import chrome_trace_events
from repro.obs.trace import _NULL_SCOPE
from repro.scenarios import get_scenario, play_scenario

GOLDEN_DIR = Path(__file__).parent / "golden"
EXECUTORS = [
    name.strip()
    for name in os.environ.get(
        "REPRO_CLUSTER_EXECUTORS", "inline,process,socket"
    ).split(",")
    if name.strip()
]

_POOL = None


def _socket_executor():
    global _POOL
    if _POOL is None:
        _POOL = LocalWorkerPool(2)
        atexit.register(_POOL.close)
    return SocketExecutor(_POOL.addresses)


def _resolve(executor):
    return _socket_executor() if executor == "socket" else executor


# ---------------------------------------------------------------------------
# Tracer


class TestTracer:
    def test_span_records_tuple(self):
        tracer = Tracer(lane="coordinator")
        with tracer.span("compute", superstep=3):
            pass
        assert len(tracer.spans) == 1
        name, lane, start, duration, args = tracer.spans[0]
        assert name == "compute"
        assert lane == "coordinator"
        assert start > 0
        assert duration >= 0
        assert args == {"superstep": 3}

    def test_nested_spans_record_inner_first(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert [s[0] for s in tracer.spans] == ["inner", "outer"]
        # the outer span's window contains the inner's
        inner, outer = tracer.spans
        assert outer[2] <= inner[2]
        assert outer[3] >= inner[3]

    def test_disabled_span_is_shared_noop_scope(self):
        tracer = Tracer(enabled=False)
        scope = tracer.span("compute", superstep=1)
        assert scope is _NULL_SCOPE
        assert scope is tracer.span("other")
        with scope:
            pass
        assert tracer.spans == []

    def test_disabled_record_absorb_are_noops(self):
        tracer = Tracer(enabled=False)
        with tracer.span("x", lane="wire") as scope:
            scope.note(bytes=4)
        tracer.absorb([("y", "shard-0", 1.0, 0.1, None)])
        assert tracer.spans == []

    def test_null_tracer_is_disabled(self):
        assert NULL_TRACER.enabled is False

    def test_record_uses_default_lane_and_none_args(self):
        tracer = Tracer(lane="shard-2")
        with tracer.span("compute"):
            pass
        with tracer.span("wire-send", lane="wire"):
            pass
        assert [(s[0], s[1], s[4]) for s in tracer.spans] == [
            ("compute", "shard-2", None), ("wire-send", "wire", None),
        ]

    def test_drain_returns_and_clears(self):
        tracer = Tracer(lane="shard-0")
        with tracer.span("compute"):
            pass
        spans = tracer.drain()
        assert len(spans) == 1
        assert tracer.spans == []
        other = Tracer()
        other.absorb(spans)
        assert other.spans == spans

    def test_lanes_orders_coordinator_then_shards_then_rest(self):
        tracer = Tracer()
        tracer.absorb([
            ("x", lane, 1.0, 0.0, None)
            for lane in ("wire", "shard-10", "shard-2", "coordinator")
        ])
        assert tracer.lanes() == ["coordinator", "shard-2", "shard-10", "wire"]

    def test_scope_feeds_its_counter_traced_or_not(self):
        """The counter gets exactly the span's duration; untraced, or with
        no name (counter-only), the counter is still fed (a float now) and
        no span appears."""
        tracer, counter = Tracer(), Counter("phase.compute.seconds")
        with tracer.span("compute", counter, superstep=1) as scope:
            scope.note(computed=5)
        (span,) = tracer.spans
        assert span[0] == "compute"
        assert span[4] == {"superstep": 1, "computed": 5}
        assert counter.value == span[3]
        for scope_tracer, name in ((Tracer(enabled=False), "compute"),
                                   (Tracer(), None)):
            counter = Counter("phase.decide.seconds")
            with scope_tracer.span(name, counter, superstep=1) as scope:
                scope.note(computed=5)
            assert isinstance(counter.value, float)
            assert scope_tracer.spans == []

    def test_span_dict_drops_empty_args(self):
        assert span_dict(("a", "coordinator", 1.5, 0.25, None)) == {
            "name": "a", "lane": "coordinator", "start": 1.5, "dur": 0.25,
        }
        assert span_dict(("a", "wire", 1.5, 0.25, {"k": 1}))["args"] == {"k": 1}


# ---------------------------------------------------------------------------
# Metrics


class TestMetrics:
    def test_counter_preserves_int(self):
        counter = Counter("bytes")
        counter.add(4)
        counter.add(3)
        assert counter.value == 7
        assert isinstance(counter.value, int)
        counter.add(0.5)
        assert isinstance(counter.value, float)
        counter.reset()
        assert counter.value == 0
        assert isinstance(counter.value, int)

    def test_gauge_last_write_wins(self):
        gauge = Gauge("depth")
        gauge.set(3)
        gauge.set(9)
        assert gauge.value == 9
        gauge.reset()
        assert gauge.value == 0

    def test_histogram_summary(self):
        hist = Histogram("sizes")
        assert hist.mean == 0
        for value in (4, 1, 7):
            hist.observe(value)
        assert hist.summary() == {"count": 3, "total": 12, "min": 1, "max": 7}
        assert hist.mean == 4
        hist.reset()
        assert hist.summary() == {
            "count": 0, "total": 0, "min": None, "max": None,
        }

    def test_registry_get_or_create_identity(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_counter_group_mapping_view(self):
        registry = MetricsRegistry()
        group = registry.group("executor.bytes_sent")
        assert len(group) == 0
        group.add("step", 10)
        group.add("init", 4)
        group.add("step", 5)
        # the dict-era call sites: set(view), view.values(), view["step"]
        assert set(group) == {"step", "init"}
        assert sorted(group.values()) == [4, 15]
        assert group["step"] == 15
        with pytest.raises(KeyError):
            group["snapshot"]
        # the view is live over the registry counter
        assert registry.counter("executor.bytes_sent.step").value == 15
        group.reset()
        assert len(group) == 0
        assert registry.counter("executor.bytes_sent.step").value == 0

    def test_snapshot_and_phase_seconds(self):
        registry = MetricsRegistry()
        registry.counter("phase.compute.seconds").add(1.5)
        registry.counter("phase.barrier.seconds").add(0.5)
        registry.counter("supersteps").add(12)
        registry.gauge("shards").set(4)
        registry.histogram("delta.bytes").observe(100)
        snap = registry.snapshot()
        assert snap["counters"]["supersteps"] == 12
        assert snap["gauges"]["shards"] == 4
        assert snap["histograms"]["delta.bytes"]["count"] == 1
        assert registry.phase_seconds() == {"compute": 1.5, "barrier": 0.5}
        # snapshot is JSON-able as-is
        json.dumps(snap)

    def test_render_text_lists_every_block(self):
        registry = MetricsRegistry()
        assert registry.render_text() == "(no metrics recorded)"
        registry.counter("supersteps").add(3)
        registry.gauge("shards").set(2)
        registry.histogram("delta.bytes").observe(7)
        text = registry.render_text()
        assert "counters:" in text
        assert "supersteps" in text
        assert "gauges:" in text
        assert "histograms:" in text

    def test_reset_keeps_names(self):
        registry = MetricsRegistry()
        registry.counter("supersteps").add(3)
        registry.reset()
        assert registry.snapshot()["counters"] == {"supersteps": 0}


# ---------------------------------------------------------------------------
# Exporters

SPANS = [
    ("superstep", "coordinator", 100.0, 0.5, {"superstep": 1}),
    ("compute", "shard-1", 100.1, 0.2, None),
    ("compute", "shard-0", 100.15, 0.2, None),
    ("wire-send", "wire", 100.05, 0.01, {"kind": "step", "bytes": 64}),
]


class TestExporters:
    def test_write_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_jsonl(SPANS, path)
        rows = [
            json.loads(line)
            for line in path.read_text(encoding="utf-8").splitlines()
        ]
        assert rows == [span_dict(span) for span in SPANS]

    def test_chrome_events_metadata_and_normalisation(self):
        events = chrome_trace_events(SPANS)
        meta = [e for e in events if e["ph"] == "M"]
        slices = [e for e in events if e["ph"] == "X"]
        # one thread_name row per lane, coordinator first then shards
        assert [m["args"]["name"] for m in meta] == [
            "coordinator", "shard-0", "shard-1", "wire",
        ]
        tids = {m["args"]["name"]: m["tid"] for m in meta}
        assert len(set(tids.values())) == len(tids)
        # ts is µs from the earliest span start
        by_name = {e["name"]: e for e in slices if e["name"] != "compute"}
        assert by_name["superstep"]["ts"] == pytest.approx(0.0)
        assert by_name["superstep"]["dur"] == pytest.approx(0.5e6)
        assert by_name["wire-send"]["ts"] == pytest.approx(0.05e6)
        assert by_name["wire-send"]["args"] == {"kind": "step", "bytes": 64}
        assert by_name["superstep"]["tid"] == tids["coordinator"]

    def test_write_trace_dispatches_on_suffix(self, tmp_path):
        jsonl = tmp_path / "out.jsonl"
        chrome = tmp_path / "out.json"
        write_trace(SPANS, jsonl)
        write_trace(SPANS, chrome)
        assert jsonl.read_text(encoding="utf-8").startswith("{")
        document = json.loads(chrome.read_text(encoding="utf-8"))
        assert "traceEvents" in document
        assert document["displayTimeUnit"] == "ms"

    def test_write_chrome_trace_parses(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(SPANS, path)
        document = json.loads(path.read_text(encoding="utf-8"))
        assert len(document["traceEvents"]) == len(SPANS) + 4  # + metadata


# ---------------------------------------------------------------------------
# Determinism: tracing is inert on every executor backend


@pytest.mark.parametrize("executor", EXECUTORS)
def test_traced_run_replays_golden_timeline(executor):
    """Tracing + metrics on must not move a single golden byte."""
    tracer = Tracer()
    result = play_scenario(
        get_scenario("mesh-growth"),
        engine="pregel",
        executor=_resolve(executor),
        trace=tracer,
        metrics_registry=MetricsRegistry(),
    )
    expected = json.loads(
        (GOLDEN_DIR / "pregel-mesh-growth.json").read_text(encoding="utf-8")
    )
    assert result.superstep_digest() == expected, (
        f"tracing changed the golden timeline on the {executor} executor"
    )
    # and the run actually produced a timeline + metrics
    names = {span[0] for span in tracer.spans}
    assert {"superstep", "compute", "barrier", "barrier-merge"} <= names
    counters = result.metrics_registry.snapshot()["counters"]
    assert counters["supersteps"] > 0
    # One scope feeds both sinks: each phase counter is exactly the sum
    # of the coordinator's spans of that phase.
    for phase in ("compute", "barrier"):
        durations = [
            span[3] for span in tracer.spans
            if span[0] == phase and span[1] == "coordinator"
        ]
        assert len(durations) == counters["supersteps"]
        assert counters[f"phase.{phase}.seconds"] == sum(durations)


@pytest.mark.parametrize("executor", EXECUTORS)
def test_seeding_is_out_of_band_for_the_trace(executor):
    """Shards are seeded through ``executor.apply`` on their own host; the
    ``apply-patch`` spans that records are dropped there, so set-up never
    shows in superstep 1's trace — the first ones are barrier 1's patches,
    shipped with superstep 2's deltas."""
    from repro.apps.pagerank import PageRank
    from repro.cluster import Coordinator
    from repro.generators import mesh_3d
    from repro.pregel.system import PregelConfig

    tracer = Tracer()
    config = PregelConfig(num_workers=3, seed=4, quiet_window=5)
    with Coordinator(
        mesh_3d(4), PageRank(), config, executor=_resolve(executor),
        tracer=tracer,
    ) as system:
        assert "apply-patch" not in {span[0] for span in tracer.spans}
        system.run_superstep()
        first = {span[0] for span in tracer.spans}
        assert "compute" in first and "apply-patch" not in first
        system.run(2)
        patched = [span for span in tracer.spans if span[0] == "apply-patch"]
        assert patched and {span[1] for span in patched} <= {
            "shard-0", "shard-1", "shard-2"
        }


def test_untraced_run_keeps_null_tracer():
    """The default path stays on the shared disabled tracer — no spans —
    and its scopes still time every phase into the registry."""
    result = play_scenario(
        get_scenario("mesh-growth"), engine="pregel", executor="inline",
        max_rounds=2,
    )
    assert result.tracer is NULL_TRACER
    assert result.tracer.spans == []
    counters = result.metrics_registry.snapshot()["counters"]
    for phase in ("compute", "decide", "barrier"):
        assert counters[f"phase.{phase}.seconds"] > 0


# ---------------------------------------------------------------------------
# The merged multi-host timeline

#: Every (lane kind, span name) a traced socket run of mesh-growth emits.
#: The e2e ledger's per-layer breakdown reads spans by these keys.
TRACED_PAIRS = {
    ("coordinator", name) for name in (
        "announce", "arbitrate", "barrier", "barrier-merge", "compute",
        "deliver", "inbox-split", "ingest", "ingest-batch", "patch-build",
        "superstep",
    )
} | {
    ("shard", name) for name in ("apply-patch", "compute", "decide", "demote")
} | {("wire", "wire-recv"), ("wire", "wire-send")}
#: Without numpy there is no bulk ingest and no array store to demote.
NUMPY_PAIRS = {("coordinator", "ingest-batch"), ("shard", "demote")}


def test_socket_run_merges_worker_spans():
    """One socket-run trace: worker compute spans beside coordinator spans,
    and exactly the pinned (lane kind, span name) pairs."""
    tracer = Tracer()
    play_scenario(
        get_scenario("mesh-growth"),
        engine="pregel",
        executor=_socket_executor(),
        trace=tracer,
        max_rounds=3,
    )
    expected = TRACED_PAIRS
    if ingest._np is None:
        expected = TRACED_PAIRS - NUMPY_PAIRS
    assert {
        ("shard" if lane.startswith("shard-") else lane, name)
        for name, lane, *_ in tracer.spans
    } == expected
    lanes = tracer.lanes()
    assert lanes[0] == "coordinator"
    shard_lanes = [lane for lane in lanes if lane.startswith("shard-")]
    assert len(shard_lanes) >= 2, f"no worker-side lanes in {lanes}"
    # every shard lane carries worker-side compute spans (the coordinator
    # also records its aggregate compute window on its own lane)
    compute_lanes = {s[1] for s in tracer.spans if s[0] == "compute"}
    assert set(shard_lanes) <= compute_lanes
    # the merged timeline exports as one valid Chrome trace
    events = chrome_trace_events(tracer.spans)
    named = {
        e["args"]["name"] for e in events
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    assert {"coordinator", "wire", *shard_lanes} == named


# ---------------------------------------------------------------------------
# Reset-at-start: reused executors report per-session numbers


def _run(executor, rounds=2, registry=None):
    return play_scenario(
        get_scenario("mesh-growth"), engine="pregel", executor=executor,
        max_rounds=rounds, metrics_registry=registry,
    )


def test_worker_byte_counters_reset_between_sessions():
    executor = _socket_executor()
    _run(executor)
    first_sent = dict(executor.bytes_sent)
    first_received = dict(executor.bytes_received)
    assert first_sent["step"] > 0
    assert first_received["step"] > 0
    _run(executor)
    assert dict(executor.bytes_sent) == first_sent
    assert dict(executor.bytes_received) == first_received


def test_bind_observability_rehomes_counters():
    """A coordinator-owned registry sees the executor's instruments."""
    registry, executor = MetricsRegistry(), _socket_executor()
    result = _run(executor, registry=registry)
    assert result.metrics_registry is registry
    counters = registry.snapshot()["counters"]
    assert counters["executor.bytes_sent.step"] > 0
    assert counters["executor.bytes_sent.step"] == executor.bytes_sent["step"]
