"""MNN — stream-based "minimum number of neighbours" placement.

The paper's fourth strategy "applies the same stream-based approach to the
'minimum number of neighbours' heuristic presented in [28]" (Prabhakaran et
al., USENIX ATC 2012 — Grace).  Grace spreads a vertex *away* from where its
neighbours sit (minimising contention on multi-cores), so as an edge-cut
strategy it is intentionally adversarial: it produces many cut edges and,
like RND, exists to show the adaptive heuristic can recover from a bad
start.
"""

from repro.partitioning.base import StreamingPartitioner

__all__ = ["MinimumNeighbours"]


class MinimumNeighbours(StreamingPartitioner):
    """Place each arriving vertex where the *fewest* of its neighbours live.

    Ties break to the partition with more remaining capacity, then lower id,
    keeping the pass deterministic.
    """

    name = "MNN"

    def place(self, state, vertex):
        counts = state.neighbour_partition_counts(vertex)
        best_pid = None
        best_key = None
        for pid in range(state.num_partitions):
            remaining = state.remaining_capacity(pid)
            if remaining <= 0:
                continue
            key = (counts.get(pid, 0), -remaining, pid)
            if best_key is None or key < best_key:
                best_key = key
                best_pid = pid
        if best_pid is None:
            best_pid = self._spill(state)
        state.assign(vertex, best_pid)
        return best_pid
