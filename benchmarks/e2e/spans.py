"""Reading a ``repro.obs`` trace: totals and self time per phase.

Spans are the program's plain tuples ``(name, lane, start, duration,
args)`` and carry no parent id, so nesting is recovered by interval
containment inside one lane: a span's *self time* is its duration minus the
part of it covered by the spans it directly contains.  Lanes are single
threads of control (the coordinator, one shard, the wire), so spans in a
lane nest or follow each other and never partially overlap.
"""

from collections import defaultdict


def lane_kind(lane):
    """Fold ``shard-0`` … ``shard-N`` into one ``shard`` row."""
    return "shard" if lane.startswith("shard-") else lane


class Breakdown:
    """Per ``(lane kind, span name)`` totals, self times and counts."""

    def __init__(self, spans, keep=None):
        """Summarise ``spans``; ``keep(span)`` filters which are counted
        (every span still takes part in the containment walk)."""
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.count = defaultdict(int)
        by_lane = defaultdict(list)
        for span in spans:
            by_lane[span[1]].append(span)
        for lane, members in by_lane.items():
            self._walk(lane_kind(lane), members, keep)

    def _walk(self, kind, members, keep):
        # Outer spans first: equal starts order the longer (enclosing) one
        # ahead of what it contains.
        members.sort(key=lambda span: (span[2], -span[3]))
        covered = [0.0] * len(members)
        open_spans = []  # stack of (index, end) — the current nesting chain
        for index, (_, _, start, duration, _) in enumerate(members):
            while open_spans and open_spans[-1][1] <= start:
                open_spans.pop()
            end = start + duration
            if open_spans:
                parent, parent_end = open_spans[-1]
                # Starts are wall-clock and durations perf_counter deltas,
                # so a child may appear to overrun its parent by clock
                # slew; clip rather than count time the parent never had.
                covered[parent] += min(end, parent_end) - start
            open_spans.append((index, end))
        for index, span in enumerate(members):
            if keep is not None and not keep(span):
                continue
            key = (kind, span[0])
            self.total[key] += span[3]
            self.self_time[key] += max(0.0, span[3] - covered[index])
            self.count[key] += 1

    def seconds(self, kind, name):
        """Summed duration of every ``name`` span in lanes of ``kind``."""
        return self.total.get((kind, name), 0.0)

    def self_seconds(self, kind, name):
        """Summed self time of every ``name`` span in lanes of ``kind``."""
        return self.self_time.get((kind, name), 0.0)

    def spans(self, kind, name):
        """How many ``name`` spans lanes of ``kind`` recorded."""
        return self.count.get((kind, name), 0)
