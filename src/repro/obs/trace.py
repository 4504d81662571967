"""Phase timing: where one run's wall-clock actually went.

One scope times every phase: ``with tracer.span(name, counter, **args)``
reads the clock once at each end and feeds two sinks — the registry
``counter`` it was given (traced or not) and, on an enabled tracer, the
span list.  ``name=None`` feeds the counter alone.  Args known only at
exit go in through the scope's ``note(...)``.

A span is a plain tuple ``(name, lane, start, duration, args)``: the
phase (``docs/observability.md`` has the taxonomy), the timeline row it
renders on (``"coordinator"``, ``"shard-3"``, ``"wire"``), the entry tick
shifted onto the wall clock by a per-process offset (comparable *across
processes*, so worker-side spans merge into the coordinator's timeline),
the ``perf_counter`` delta, and a small JSON-able dict or None.  Tuples
because spans cross the cluster wire inside
:class:`~repro.cluster.shard.ShardDelta` records, which the binary codec
packs natively.

**The determinism contract.**  Timing is measurement, never semantics:
nothing here touches RNG streams, placements or values; spans and
counters never enter ``superstep_digest()``; no determinism-critical
module reads the clock itself.  A disabled tracer hands a counter-less
scope the shared no-op :data:`_NULL_SCOPE` (no clock read, no
allocation); ``benchmarks/bench_obs.py`` pins that floor.  Instances
pickle (a shard's tracer ships to worker processes with the shard).
"""

from time import perf_counter, time

__all__ = ["NULL_TRACER", "Tracer", "lane_order", "span_dict"]

# Span tuple field indices, for readers that index rather than unpack.
NAME, LANE, START, DURATION, ARGS = range(5)

# Wall-clock seconds minus perf_counter seconds in this process: a span's
# start is its entry tick plus this offset.
_WALL_OFFSET = time() - perf_counter()


def span_dict(span):
    """One span tuple as a JSON-able dict (the JSONL exporter's row shape)."""
    name, lane, start, duration, args = span
    row = {"name": name, "lane": lane, "start": start, "dur": duration}
    if args:
        row["args"] = args
    return row


def lane_order(lanes):
    """Stable display order: coordinator, shards by id, everything else."""

    def key(lane):
        if lane == "coordinator":
            return (0, 0, lane)
        if lane.startswith("shard-"):
            suffix = lane[len("shard-"):]
            if suffix.isdigit():
                return (1, int(suffix), lane)
        return (2, 0, lane)

    return sorted(lanes, key=key)


class _NullScope:
    """The shared no-op scope: untraced, and no counter to feed."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def note(self, **args):
        """Nothing to annotate."""


_NULL_SCOPE = _NullScope()


class _Scope:
    """One timed phase: at exit its duration is added to ``counter`` (if
    any) and, when ``tracer`` is set, appended to it as a span."""

    __slots__ = ("_tracer", "_name", "_lane", "_counter", "_args", "_tick")

    def __init__(self, tracer, name, lane, counter, args):
        self._tracer = tracer
        self._name = name
        self._lane = lane
        self._counter = counter
        self._args = args

    def __enter__(self):
        self._tick = perf_counter()
        return self

    def note(self, **args):
        """Add span args known only at exit."""
        if self._tracer is not None:
            if self._args is None:
                self._args = args
            else:
                self._args.update(args)

    def __exit__(self, *exc_info):
        tick = self._tick
        duration = perf_counter() - tick
        if self._counter is not None:
            self._counter.add(duration)
        if self._tracer is not None:
            self._tracer.spans.append(
                (self._name, self._lane, _WALL_OFFSET + tick, duration,
                 self._args)
            )
        return False


class Tracer:
    """A span collector for one lane of the run.

    ``enabled`` is the single hot-path switch: a disabled tracer records
    nothing and hands uncounted sites the shared no-op scope.  ``lane`` is the default timeline row for spans
    recorded here — the coordinator's tracer uses ``"coordinator"``, each
    shard's its own ``"shard-<id>"`` lane.
    """

    def __init__(self, enabled=True, lane="coordinator"):
        self.enabled = bool(enabled)
        self.lane = lane
        self.spans = []

    def span(self, name, counter=None, lane=None, **args):
        """The scope timing one phase (see the module docstring).

        ``counter`` (a registry counter) gets the duration whether or not
        tracing is on; ``name=None`` times into ``counter`` alone.  Extra
        keyword arguments become the span's ``args`` dict (keep them small
        and wire-friendly: str/int/float values).
        """
        if self.enabled and name is not None:
            return _Scope(self, name, lane or self.lane, counter, args or None)
        if counter is None:
            return _NULL_SCOPE
        return _Scope(None, name, None, counter, None)

    def absorb(self, spans):
        """Merge spans collected elsewhere (a shard's delta) into this
        tracer's timeline."""
        if self.enabled and spans:
            self.spans.extend(spans)

    def drain(self):
        """Return and clear the collected spans (the delta-shipping hook)."""
        spans = self.spans
        self.spans = []
        return spans

    def clear(self):
        """Drop every collected span."""
        self.spans = []

    def lanes(self):
        """The distinct lanes seen so far, in :func:`lane_order`."""
        return lane_order({span[LANE] for span in self.spans})

    def __repr__(self):
        state = "on" if self.enabled else "off"
        return f"Tracer({state}, lane={self.lane!r}, spans={len(self.spans)})"


#: The shared disabled tracer every un-traced run uses.  Its scopes still
#: feed the counters they are given; pass a fresh ``Tracer()`` to trace.
NULL_TRACER = Tracer(enabled=False)
