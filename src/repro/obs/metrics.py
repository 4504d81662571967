"""A registry of named counters, gauges and histograms.

The repo grew its instruments ad hoc — `SuperstepReport.decision_seconds`,
the thread executor's merge timers, `SocketExecutor.bytes_sent` — each
with its own lifecycle and none visible from the CLI.
:class:`MetricsRegistry` is the single home: components create named
instruments once and bump them in place; the registry renders one text
snapshot (``--show-metrics``) or a JSON document (``--metrics-json``).

Naming is dotted and lowercase: ``phase.compute.seconds``,
``executor.bytes_sent.step``, ``ingest.events``.  The documented names
live in ``docs/observability.md``.

Determinism: instruments hold measurements *about* a run and never feed
back into it — nothing here enters ``superstep_digest()``.
"""

from collections.abc import Mapping

__all__ = ["Counter", "CounterGroup", "Gauge", "Histogram", "MetricsRegistry"]


class Counter:
    """A monotonically-bumpable accumulator (reset only between sessions).

    Starts at the int 0, so counters fed ints (byte counts, event counts)
    stay ints while counters fed floats (seconds) become floats — callers
    that compare against exact integer totals keep working.
    """

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0

    def add(self, amount):
        """Add ``amount`` (int or float) to the running total."""
        self.value += amount

    def reset(self):
        """Zero the counter (a new executor session, a new run)."""
        self.value = 0

    def __repr__(self):
        return f"Counter({self.name!r}, {self.value!r})"


class Gauge:
    """A last-write-wins instrument for point-in-time values."""

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0

    def set(self, value):
        """Record the current value, replacing the previous one."""
        self.value = value

    def reset(self):
        """Zero the gauge."""
        self.value = 0

    def __repr__(self):
        return f"Gauge({self.name!r}, {self.value!r})"


class Histogram:
    """Count / total / min / max over observed samples.

    Deliberately bucket-free: enough to answer "how many, how big, how
    skewed" without committing to bucket boundaries in snapshots.
    """

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name):
        self.name = name
        self.reset()

    def observe(self, value):
        """Fold one sample into the summary."""
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def reset(self):
        """Forget every sample."""
        self.count = 0
        self.total = 0
        self.min = None
        self.max = None

    @property
    def mean(self):
        """Average of the observed samples (0 when empty)."""
        return self.total / self.count if self.count else 0

    def summary(self):
        """The JSON-able summary dict this histogram snapshots as."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }

    def __repr__(self):
        return f"Histogram({self.name!r}, n={self.count}, total={self.total!r})"


class CounterGroup(Mapping):
    """A live dict-like view over a family of counters sharing a prefix.

    ``SocketExecutor.bytes_sent`` used to be a plain dict keyed by command
    kind; it is now ``CounterGroup("executor.bytes_sent")`` over registry
    counters named ``executor.bytes_sent.<kind>``, and existing callers —
    ``set(view)``, ``view.values()``, ``view["step"]`` — keep working
    unchanged.  Kinds appear on first :meth:`add`.
    """

    def __init__(self, registry, prefix):
        self._registry = registry
        self._prefix = prefix
        self._kinds = []

    def add(self, kind, amount):
        """Bump the counter for ``kind``, creating it on first use."""
        if kind not in self._kinds:
            self._kinds.append(kind)
        self._registry.counter(f"{self._prefix}.{kind}").add(amount)

    def reset(self):
        """Zero every counter in the group and forget the seen kinds."""
        for kind in self._kinds:
            self._registry.counter(f"{self._prefix}.{kind}").reset()
        self._kinds = []

    def __getitem__(self, kind):
        if kind not in self._kinds:
            raise KeyError(kind)
        return self._registry.counter(f"{self._prefix}.{kind}").value

    def __iter__(self):
        return iter(self._kinds)

    def __len__(self):
        return len(self._kinds)

    def __repr__(self):
        return f"CounterGroup({self._prefix!r}, {dict(self)!r})"


class MetricsRegistry:
    """The named-instrument store for one run.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first call
    for a name makes the instrument, later calls return the same object,
    so independent components converge on shared names without wiring.
    """

    def __init__(self):
        self._counters = {}
        self._gauges = {}
        self._histograms = {}

    def counter(self, name):
        """The counter registered under ``name`` (created on first use)."""
        inst = self._counters.get(name)
        if inst is None:
            inst = self._counters[name] = Counter(name)
        return inst

    def gauge(self, name):
        """The gauge registered under ``name`` (created on first use)."""
        inst = self._gauges.get(name)
        if inst is None:
            inst = self._gauges[name] = Gauge(name)
        return inst

    def histogram(self, name):
        """The histogram registered under ``name`` (created on first use)."""
        inst = self._histograms.get(name)
        if inst is None:
            inst = self._histograms[name] = Histogram(name)
        return inst

    def group(self, prefix):
        """A :class:`CounterGroup` over ``<prefix>.<kind>`` counters."""
        return CounterGroup(self, prefix)

    def snapshot(self):
        """Every instrument's current value as one JSON-able dict."""
        return {
            "counters": {
                name: inst.value
                for name, inst in sorted(self._counters.items())
            },
            "gauges": {
                name: inst.value for name, inst in sorted(self._gauges.items())
            },
            "histograms": {
                name: inst.summary()
                for name, inst in sorted(self._histograms.items())
            },
        }

    def phase_seconds(self):
        """``{phase: seconds}`` from the ``phase.<name>.seconds`` counters.

        The shape benchmarks record under ``record_result(..., phases=…)``.
        """
        out = {}
        for name, inst in sorted(self._counters.items()):
            if name.startswith("phase.") and name.endswith(".seconds"):
                out[name[len("phase."):-len(".seconds")]] = inst.value
        return out

    def render_text(self):
        """The aligned plain-text snapshot behind ``--show-metrics``."""
        lines = []
        snap = self.snapshot()

        def block(title, rows):
            if not rows:
                return
            lines.append(f"{title}:")
            width = max(len(name) for name in rows)
            for name, value in rows.items():
                if isinstance(value, float):
                    shown = f"{value:.6f}"
                elif isinstance(value, dict):
                    parts = ", ".join(
                        f"{k}={v if not isinstance(v, float) else f'{v:.6f}'}"
                        for k, v in value.items()
                    )
                    shown = parts
                else:
                    shown = str(value)
                lines.append(f"  {name:<{width}}  {shown}")

        block("counters", snap["counters"])
        block("gauges", snap["gauges"])
        block("histograms", snap["histograms"])
        if not lines:
            lines.append("(no metrics recorded)")
        return "\n".join(lines)

    def reset(self):
        """Zero every registered instrument (names stay registered)."""
        for table in (self._counters, self._gauges, self._histograms):
            for inst in table.values():
                inst.reset()

    def __repr__(self):
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, "
            f"histograms={len(self._histograms)})"
        )
