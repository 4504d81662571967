"""Balance policies: what "capacity" measures and how big it is.

The paper balances **vertex counts** with capacities at 110 % of the
balanced load (:class:`VertexBalance`).  Its §6 names two extensions as
future work, both implemented here:

* :class:`EdgeBalance` — capacity counted in *edges* (vertex load = degree),
  for algorithms like PageRank whose per-partition cost is ∝ edges;
* :class:`HotspotBalance` — runtime activity statistics shrink the capacity
  of hot partitions so load drains away from them.
"""

import math
from itertools import repeat

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is optional
    _np = None

__all__ = ["BalancePolicy", "EdgeBalance", "HotspotBalance", "VertexBalance"]


class BalancePolicy:
    """Defines the load of a vertex and the capacity vector of a system.

    ``degree_sensitive`` declares whether :meth:`load_of` depends on the
    vertex's current degree.  The incremental metrics engine consults it:
    degree-insensitive policies need no neighbour-load bookkeeping when the
    graph mutates, so event application stays O(1) per event.
    """

    name = "abstract"
    degree_sensitive = False

    def load_of(self, graph, vertex):
        """Load units this vertex contributes to its partition."""
        raise NotImplementedError

    def load_column(self, graph, slots):
        """:meth:`load_of` of the vertices at ``slots`` as a float64
        column (numpy only); the shipped policies read no ids."""
        ids = map(graph.slot_ids.__getitem__, slots.tolist())
        loads = map(self.load_of, repeat(graph), ids)
        return _np.fromiter(loads, _np.float64, count=len(slots))

    def capacities(self, graph, num_partitions):
        """Per-partition capacity vector for the current graph."""
        raise NotImplementedError


class VertexBalance(BalancePolicy):
    """The paper's policy: every vertex weighs 1; capacity = slack × |V|/k."""

    name = "vertex"

    def __init__(self, slack=1.10):
        if slack < 1.0:
            raise ValueError("slack below 1.0 cannot hold all vertices")
        self.slack = slack

    def load_of(self, graph, vertex):
        return 1.0

    def load_column(self, graph, slots):
        return _np.ones(len(slots))

    def capacities(self, graph, num_partitions):
        balanced = graph.num_vertices / num_partitions
        # Epsilon guards against float noise (100 * 1.10 ceiling to 111).
        cap = max(1.0, math.ceil(balanced * self.slack - 1e-9))
        return [cap] * num_partitions


class EdgeBalance(BalancePolicy):
    """Future-work extension: balance edge counts (vertex load = degree).

    A vertex's load is ``max(degree, 1)`` (isolated vertices still occupy a
    slot); capacity is slack × 2|E|/k load units.
    """

    name = "edge"
    degree_sensitive = True

    def __init__(self, slack=1.10):
        if slack < 1.0:
            raise ValueError("slack below 1.0 cannot hold all edges")
        self.slack = slack

    def load_of(self, graph, vertex):
        return float(max(graph.degree(vertex), 1))

    def load_column(self, graph, slots):
        """``max(degree, 1)`` from the CSR mirror's block lengths."""
        lens = _np.frombuffer(graph.ensure_csr()[1], dtype=_np.int64)
        return _np.maximum(lens[slots], 1).astype(_np.float64)

    def capacities(self, graph, num_partitions):
        isolated = getattr(graph, "num_isolated", None)
        if isolated is None:  # foreign graph-likes without the tracked count
            isolated = sum(1 for _ in graph.isolated_vertices())
        total_load = 2.0 * graph.num_edges + isolated
        balanced = max(total_load, num_partitions) / num_partitions
        cap = max(1.0, math.ceil(balanced * self.slack - 1e-9))
        return [cap] * num_partitions


class HotspotBalance(BalancePolicy):
    """Future-work extension: shrink the capacity of hot partitions.

    ``activity`` is a per-partition load statistic (e.g. measured superstep
    compute time or message volume).  Capacities are scaled by
    ``mean_activity / activity_i`` clamped to ``[1 - max_shrink, 1]``, so a
    partition running 2× hotter than average offers less room and sheds
    vertices to its peers.  Wraps any base policy (vertex by default).
    """

    name = "hotspot"

    def __init__(self, base=None, max_shrink=0.3):
        if not 0.0 <= max_shrink < 1.0:
            raise ValueError("max_shrink must be in [0, 1)")
        self.base = base or VertexBalance()
        self.max_shrink = max_shrink
        self._activity = None

    @property
    def degree_sensitive(self):
        return self.base.degree_sensitive

    def observe_activity(self, activity):
        """Feed fresh per-partition activity numbers (any positive scale)."""
        activity = list(activity)
        if any(a < 0 for a in activity):
            raise ValueError("activity values must be non-negative")
        self._activity = activity

    def load_of(self, graph, vertex):
        return self.base.load_of(graph, vertex)

    def load_column(self, graph, slots):
        return self.base.load_column(graph, slots)

    def capacities(self, graph, num_partitions):
        caps = self.base.capacities(graph, num_partitions)
        if self._activity is None or len(self._activity) != num_partitions:
            return caps
        total = sum(self._activity)
        if total <= 0:
            return caps
        mean_activity = total / num_partitions
        scaled = []
        for cap, activity in zip(caps, self._activity):
            if activity <= 0:
                factor = 1.0
            else:
                factor = min(1.0, mean_activity / activity)
            factor = max(factor, 1.0 - self.max_shrink)
            scaled.append(max(1.0, cap * factor))
        return scaled
