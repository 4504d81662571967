"""HSH — hash partitioning, the large-scale systems default.

"Given a hashing function H(v), a vertex is assigned to partition P0(i) if
H(v) mod k = i" (§2).  Lightweight, no lookup table, uniform spread — and a
very high cut ratio, which is exactly why the adaptive heuristic exists.
"""

from repro.partitioning.base import Partitioner, PartitionState
from repro.utils import stable_hash

__all__ = ["HashPartitioner"]


class HashPartitioner(Partitioner):
    """Assign each vertex to ``stable_hash(v) mod k``.

    Deterministic across runs and processes (uses MD5-based hashing, not the
    per-process-salted builtin).  Capacities are recorded but not enforced at
    load time: hash placement is statistically balanced and the paper's
    capacity machinery belongs to the migration phase.
    """

    name = "HSH"

    def partition(self, graph, num_partitions, capacities=None):
        state = PartitionState(graph, num_partitions, capacities)
        self.place_many(state, list(graph.vertices()))
        return state

    def place(self, state, vertex):
        pid = stable_hash(vertex) % state.num_partitions
        state.assign(vertex, pid)
        return pid

    def place_many(self, state, vertices):
        """Bulk placement of unassigned ``vertices`` (a sequence), in order.

        Hash placement is a pure per-vertex function, so a batch places
        exactly where ``n`` sequential :meth:`place` calls would, and the
        state update is one
        :meth:`~repro.partitioning.base.PartitionState.assign_many` — the
        path the initial placement and the batched ingestion share.
        """
        k = state.num_partitions
        pids = [stable_hash(v) % k for v in vertices]
        state.assign_many(vertices, pids)
        return list(zip(vertices, pids))
