"""Timestamped event streams and batching.

The paper feeds changes to the system in two regimes:

* **continuous** (Twitter): events drain into the graph between supersteps as
  they arrive — modelled by :func:`batch_by_time` windows;
* **buffered** (CDR cliques): topology is frozen while a computation runs and
  all buffered changes apply at once — modelled by :func:`batch_by_count` or
  by draining a whole :class:`EventStream` slice.

Streams are plain sorted lists of :class:`TimedEvent` so they can be replayed
deterministically against multiple system configurations.  Events carrying
the *same* timestamp are totally ordered by a creation-order sequence number,
so replay order for ties is pinned FIFO — it can never depend on sort
internals or on the (non-comparable) event payloads.
"""

import bisect
import heapq
import itertools
from dataclasses import dataclass, field
from operator import attrgetter

from repro.graph.events import apply_event

__all__ = ["EventStream", "TimedEvent", "batch_by_count", "batch_by_time"]

# Global creation counter: ties on ``time`` resolve to creation order, which
# for any single producer is FIFO.  The absolute values are meaningless (and
# process-dependent); only the relative order of events within one producer
# ever matters — cross-stream tie order is pinned by :meth:`merged_with`'s
# rank-based merge, never by comparing seqs from different streams.
_SEQUENCE = itertools.count()

# The TimedEvent order as C-level keys: sorts and bisects compare tuples
# instead of calling the dataclass's generated ``__lt__``.
_ORDER = attrgetter("time", "seq")
_time_of = attrgetter("time")


@dataclass(frozen=True, order=True)
class TimedEvent:
    """A mutation event stamped with an arrival time (seconds, arbitrary epoch).

    Ordering compares ``(time, seq)``.  The event payload is excluded from
    comparisons: payloads are plain frozen dataclasses with object-typed
    fields, so comparing them would raise for mixed identifier types — and
    relying on payload order for equal-time events would make tie order an
    accident of the payload encoding.
    """

    time: float
    event: object = field(compare=False)
    seq: int = field(default_factory=lambda: next(_SEQUENCE))


class EventStream:
    """An ordered, replayable sequence of timestamped graph events.

    >>> from repro.graph.events import AddEdge
    >>> s = EventStream()
    >>> s.push(1.0, AddEdge("a", "b"))
    >>> s.push(0.5, AddEdge("b", "c"))
    >>> [te.time for te in s]
    [0.5, 1.0]
    """

    def __init__(self, timed_events=None):
        self._events = sorted(timed_events, key=_ORDER) if timed_events else []

    def push(self, time, event):
        """Insert an event, keeping the stream time-ordered.

        Equal-time pushes land after existing events at that time (FIFO).
        """
        bisect.insort(self._events, TimedEvent(float(time), event), key=_ORDER)

    def extend(self, timed_events):
        """Bulk insert; re-sorts once (ties keep creation order)."""
        self._events.extend(timed_events)
        self._events.sort(key=_ORDER)

    def __len__(self):
        return len(self._events)

    def __iter__(self):
        return iter(self._events)

    def __getitem__(self, index):
        return self._events[index]

    @property
    def start_time(self):
        """Arrival time of the first event (None when empty)."""
        return self._events[0].time if self._events else None

    @property
    def end_time(self):
        """Arrival time of the last event (None when empty)."""
        return self._events[-1].time if self._events else None

    def window(self, t_start, t_end):
        """Events with ``t_start <= time < t_end`` as a list of TimedEvent."""
        lo = bisect.bisect_left(self._events, t_start, key=_time_of)
        hi = bisect.bisect_left(self._events, t_end, key=_time_of)
        return self._events[lo:hi]

    def events_between(self, t_start, t_end):
        """Bare events (no timestamps) in ``[t_start, t_end)``."""
        return [te.event for te in self.window(t_start, t_end)]

    def sliced(self, t_start, t_end):
        """New :class:`EventStream` over ``[t_start, t_end)``.

        The slice shares the original's :class:`TimedEvent` records, so
        relative order (including equal-time FIFO order) is preserved.
        """
        sliced = EventStream()
        sliced._events = self.window(t_start, t_end)
        return sliced

    def replay_into(self, graph, until=None):
        """Apply all events (optionally only those before ``until``) to a graph.

        Returns the number of events that changed the graph.
        """
        changed = 0
        for te in self._events:
            if until is not None and te.time >= until:
                break
            if apply_event(graph, te.event):
                changed += 1
        return changed

    def merged_with(self, other):
        """A new stream containing this stream's and ``other``'s events.

        Equal-time ties are pinned to ``(time, stream rank, per-stream
        order)``: all of this stream's events at a timestamp precede
        ``other``'s at that timestamp, and each side keeps its internal
        order.  Sorting the concatenation by the global creation ``seq``
        would instead make ties depend on which stream's *factory happened
        to run first anywhere in the process* — replaying a composed
        scenario after unrelated streams were built could flip tie order.
        The rank-based merge is a pure function of the two streams'
        contents, so composition is exactly as deterministic as its parts.

        The result is time-sorted but its tie order is the merge's, not
        creation order — a later :meth:`push` or :meth:`extend` (which
        re-sorts by creation ``seq``) may reorder ties; merge last when
        composing.
        """
        merged = EventStream()
        merged._events = list(heapq.merge(self._events, other, key=_time_of))
        return merged

    def __repr__(self):
        return (
            f"EventStream(n={len(self._events)}, "
            f"span=[{self.start_time}, {self.end_time}])"
        )


def batch_by_time(stream, window):
    """Split a stream into consecutive fixed-duration windows.

    Yields ``(window_start_time, [events])``.  Empty windows inside the span
    are yielded too, so downstream supersteps tick at a constant rate — this
    matches the continuous Twitter regime where supersteps run even when the
    feed goes quiet.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    if len(stream) == 0:
        return
    t = stream.start_time
    end = stream.end_time
    while t <= end:
        yield t, stream.events_between(t, t + window)
        t += window


def batch_by_count(stream, batch_size):
    """Split a stream into batches of at most ``batch_size`` events.

    Yields plain event lists; models the buffered CDR regime where the graph
    freezes until a computation finishes and then absorbs the backlog.
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    batch = []
    for te in stream:
        batch.append(te.event)
        if len(batch) == batch_size:
            yield batch
            batch = []
    if batch:
        yield batch
