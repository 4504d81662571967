"""The wider Stanton–Kliot streaming-heuristic family ([35]).

The paper's DGR baseline is the best of ~10 single-pass heuristics Stanton
& Kliot evaluate; this module ships the other commonly-cited ones so the
baseline comparison can be reproduced in full:

* :class:`BalancedPartitioner` — always the least-loaded partition (pure
  load balancing, ignores edges);
* :class:`ChunkingPartitioner` — contiguous stream chunks (what a naive
  loader does; good when stream order has locality, terrible otherwise);
* :class:`UnweightedGreedy` — most neighbours, capacity as a hard limit
  only (no linear penalty — the variant LDG improves upon);
* :class:`ExponentialGreedy` — neighbours weighted by an exponential
  fullness penalty ``1 − e^(fill − 1)`` instead of DGR's linear one;
* :class:`TriangleGreedy` — weights a candidate partition by the number of
  *edges among* the vertex's neighbours already there (closed triangles),
  rewarding dense placements.

All obey the :class:`~repro.partitioning.base.Partitioner` contract, so
they drop into the adaptive runner and benches exactly like DGR.
"""

import math

from repro.partitioning.base import StreamingPartitioner

__all__ = [
    "BalancedPartitioner",
    "ChunkingPartitioner",
    "ExponentialGreedy",
    "STREAMING_STRATEGIES",
    "TriangleGreedy",
    "UnweightedGreedy",
]


class BalancedPartitioner(StreamingPartitioner):
    """Place every vertex in the currently least-loaded partition."""

    name = "BAL"

    def place(self, state, vertex):
        pid = min(
            range(state.num_partitions),
            key=lambda p: (state.size(p), p),
        )
        state.assign(vertex, pid)
        return pid


class ChunkingPartitioner(StreamingPartitioner):
    """Fill partition 0 to capacity, then partition 1, and so on."""

    name = "CHUNK"

    def place(self, state, vertex):
        for pid in range(state.num_partitions):
            if state.remaining_capacity(pid) > 0:
                state.assign(vertex, pid)
                return pid
        pid = self._spill(state)
        state.assign(vertex, pid)
        return pid


class UnweightedGreedy(StreamingPartitioner):
    """Most neighbours wins; capacity is only a hard limit.

    Without DGR's fullness penalty this heuristic densifies early
    partitions — the pathology LDG's linear weighting fixes.
    """

    name = "UGR"

    def place(self, state, vertex):
        counts = state.neighbour_partition_counts(vertex)
        best_pid = None
        best_key = None
        for pid in range(state.num_partitions):
            if state.remaining_capacity(pid) <= 0:
                continue
            key = (counts.get(pid, 0), state.remaining_capacity(pid), -pid)
            if best_key is None or key > best_key:
                best_key = key
                best_pid = pid
        if best_pid is None:
            best_pid = self._spill(state)
        state.assign(vertex, best_pid)
        return best_pid


class ExponentialGreedy(StreamingPartitioner):
    """DGR with an exponential instead of linear fullness penalty."""

    name = "EGR"

    def place(self, state, vertex):
        counts = state.neighbour_partition_counts(vertex)
        best_pid = None
        best_key = None
        for pid in range(state.num_partitions):
            capacity = state.capacities[pid]
            if capacity <= 0:
                continue
            fill = state.size(pid) / capacity
            if fill >= 1.0:
                continue
            penalty = 1.0 - math.exp(fill - 1.0)
            key = (counts.get(pid, 0) * penalty, -fill)
            if best_key is None or key > best_key:
                best_key = key
                best_pid = pid
        if best_pid is None:
            best_pid = self._spill(state)
        state.assign(vertex, best_pid)
        return best_pid


class TriangleGreedy(StreamingPartitioner):
    """Score = closed triangles: edges among the vertex's neighbours that
    already live in the candidate partition, discounted by fullness."""

    name = "TGR"

    def place(self, state, vertex):
        graph = state.graph
        neighbours = [
            w for w in graph.neighbors(vertex) if state.partition_of_or_none(w) is not None
        ]
        triangle_scores = {}
        for i, u in enumerate(neighbours):
            pu = state.partition_of(u)
            triangle_scores.setdefault(pu, 0)
            for w in neighbours[i + 1:]:
                if state.partition_of(w) == pu and graph.has_edge(u, w):
                    triangle_scores[pu] += 1
        counts = state.neighbour_partition_counts(vertex)
        best_pid = None
        best_key = None
        for pid in range(state.num_partitions):
            capacity = state.capacities[pid]
            if capacity <= 0:
                continue
            fill = state.size(pid) / capacity
            if fill >= 1.0:
                continue
            score = (
                triangle_scores.get(pid, 0) + counts.get(pid, 0)
            ) * (1.0 - fill)
            key = (score, -fill)
            if best_key is None or key > best_key:
                best_key = key
                best_pid = pid
        if best_pid is None:
            best_pid = self._spill(state)
        state.assign(vertex, best_pid)
        return best_pid


STREAMING_STRATEGIES = {
    cls.name: cls
    for cls in (
        BalancedPartitioner,
        ChunkingPartitioner,
        UnweightedGreedy,
        ExponentialGreedy,
        TriangleGreedy,
    )
}
