"""DGR — linear deterministic greedy streaming partitioning.

Stanton & Kliot's best single-pass heuristic (KDD 2012), the paper's
strongest initial-placement baseline.  Vertices arrive in a stream; each is
placed in the partition maximising

    |N(v) ∩ P(i)| * (1 - |P(i)| / C(i))

i.e. neighbours-already-there, linearly discounted by fullness.  Note the
score consults the destinations of *all previously placed vertices* — the
global knowledge the paper points at when discussing DGR's scalability
limits (§4.2.1).
"""

from repro.partitioning.base import StreamingPartitioner

__all__ = ["LinearDeterministicGreedy"]


class LinearDeterministicGreedy(StreamingPartitioner):
    """Single-pass linear deterministic greedy placement.

    ``stream_order`` optionally fixes the arrival order (default: graph
    insertion order, matching how loaders feed real systems).
    """

    name = "DGR"

    def place(self, state, vertex):
        counts = state.neighbour_partition_counts(vertex)
        best_pid = None
        best_score = None
        for pid in range(state.num_partitions):
            capacity = state.capacities[pid]
            if capacity <= 0:
                continue
            fill = state.size(pid) / capacity
            if fill >= 1.0:
                continue
            score = counts.get(pid, 0) * (1.0 - fill)
            # Tie-break towards the emptier partition, then lower id for
            # determinism.
            key = (score, -fill)
            if best_score is None or key > best_score:
                best_score = key
                best_pid = pid
        if best_pid is None:  # every partition is full
            best_pid = self._spill(state)
        state.assign(vertex, best_pid)
        return best_pid
