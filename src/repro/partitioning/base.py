"""Partition bookkeeping shared by every strategy and the adaptive core.

:class:`PartitionState` maintains, incrementally and in O(deg v) per move:

* the vertex → partition assignment (every vertex in exactly one partition,
  the paper's partition definition);
* per-partition vertex counts and capacities ``C(i)``;
* the global cut-edge count ``|Ec|`` against a live graph.

The cut count is the paper's quality metric (reported normalised to ``|E|``
as the *cut ratio*), so its bookkeeping must stay exact under arbitrary
interleavings of vertex moves and graph mutations; property-based tests
compare it against from-scratch recomputation.

The state also keeps the assignment as a slot-indexed *partition column*
over the graph's interned slots, for the array kernels
(:meth:`PartitionState.partition_column`).  Every method that changes the
assignment writes it, so it can never be stale.
"""

import math
import types
from array import array

__all__ = ["PartitionState", "Partitioner", "balanced_capacities"]


def balanced_capacities(num_vertices, num_partitions, slack=1.10):
    """Per-partition capacity at ``slack`` × the balanced load.

    The paper's experiments use "maximum capacity equal to 110 % of the
    balanced load" (Fig. 4); the balanced load is ``|V| / k`` rounded up.
    """
    if num_partitions < 1:
        raise ValueError("num_partitions must be >= 1")
    if slack < 1.0:
        raise ValueError("slack below 1.0 cannot hold all vertices")
    balanced = math.ceil(num_vertices / num_partitions)
    # Guard against float noise: 100 * 1.10 is 110.00000000000001, which
    # must cap at 110, not 111.
    capacity = max(1, math.ceil(balanced * slack - 1e-9))
    return [capacity for _ in range(num_partitions)]


class PartitionState:
    """Assignment of vertices to ``k`` partitions with exact cut tracking.

    The state is bound to a :class:`~repro.graph.Graph`; moves consult the
    graph's adjacency to maintain the cut count.  Graph mutations must be
    reported through :meth:`on_edge_added` / :meth:`on_edge_removed` /
    :meth:`remove_vertex` so the count stays exact (the Pregel layer does
    this automatically).
    """

    def __init__(self, graph, num_partitions, capacities=None):
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        self.graph = graph
        self.num_partitions = num_partitions
        if capacities is None:
            capacities = [math.inf] * num_partitions
        if len(capacities) != num_partitions:
            raise ValueError(
                f"capacities has {len(capacities)} entries for "
                f"{num_partitions} partitions"
            )
        self.capacities = list(capacities)
        self._assignment = {}
        self._sizes = [0] * num_partitions
        self._cut_edges = 0
        # The graph's slot_index is one dict for the graph's whole life.
        self._slots = graph.slot_index
        self._column = array("q", (-1,)) * graph.num_slots

    # ------------------------------------------------------------------
    # Assignment
    # ------------------------------------------------------------------

    def partition_column(self):
        """Slot-indexed partition ids (``array('q')``, −1 = unassigned).

        Padded here to cover every current slot, so kernels may index it
        with any slot the graph hands out.  The array is the live internal:
        read-only for callers, and a numpy view of it must not outlive the
        call that took it — the next placement may resize it.
        """
        column = self._column
        short = self.graph.num_slots - len(column)
        if short > 0:
            column.extend((-1,) * short)
        return column

    def _store(self, vertex, pid):
        """Write ``vertex``'s column entry (no-op for a vertex the graph
        does not hold)."""
        slot = self._slots.get(vertex)
        if slot is not None:
            try:
                self._column[slot] = pid
            except IndexError:  # the graph grew since the last padding
                self.partition_column()[slot] = pid

    def __contains__(self, vertex):
        return vertex in self._assignment

    def __len__(self):
        return len(self._assignment)

    def partition_of(self, vertex):
        """Partition id of ``vertex`` (KeyError when unassigned)."""
        return self._assignment[vertex]

    def partition_of_or_none(self, vertex):
        """Partition id of ``vertex`` or None when unassigned."""
        return self._assignment.get(vertex)

    def assignment_view(self):
        """Read-only live view of vertex → partition for bulk lookups.

        Hot per-message paths (the router's delivery loop) go through this
        proxy's C-level ``get`` instead of paying a Python method call per
        vertex; the proxy stays live, so no staleness to manage.
        """
        return types.MappingProxyType(self._assignment)

    def size(self, pid):
        """Current number of vertices in partition ``pid``."""
        return self._sizes[pid]

    @property
    def sizes(self):
        """Copy of the per-partition vertex counts."""
        return list(self._sizes)

    def remaining_capacity(self, pid):
        """``C(i) - |P(i)|`` — the paper's ``C_t(i)``."""
        return self.capacities[pid] - self._sizes[pid]

    def members(self, pid):
        """Set of vertices currently in ``pid`` (O(|V|) scan; for tests/reports)."""
        return {v for v, p in self._assignment.items() if p == pid}

    def assignment_items(self):
        """Iterate over ``(vertex, partition)`` pairs."""
        return self._assignment.items()

    def _external_degree(self, vertex, pid):
        """Number of ``vertex``'s neighbours outside partition ``pid``."""
        external = 0
        for w in self.graph.neighbors(vertex):
            assigned = self._assignment.get(w)
            if assigned is not None and assigned != pid:
                external += 1
        return external

    def neighbour_partition_counts(self, vertex):
        """Map partition id -> number of ``vertex``'s neighbours there.

        Only assigned neighbours count; this is exactly the local information
        the paper's heuristic allows a vertex to see.
        """
        counts = {}
        for w in self.graph.neighbors(vertex):
            pid = self._assignment.get(w)
            if pid is not None:
                counts[pid] = counts.get(pid, 0) + 1
        return counts

    def assign(self, vertex, pid, enforce_capacity=False):
        """Place an unassigned ``vertex`` into ``pid``.

        Raises when the vertex is already assigned; use :meth:`move` for
        relocation.  With ``enforce_capacity`` a full partition raises
        ``ValueError`` instead of over-filling.
        """
        if vertex in self._assignment:
            raise ValueError(f"vertex {vertex!r} already assigned")
        self._check_pid(pid)
        if enforce_capacity and self._sizes[pid] >= self.capacities[pid]:
            raise ValueError(f"partition {pid} is at capacity")
        cut_delta = self._external_degree(vertex, pid)
        self._assignment[vertex] = pid
        self._sizes[pid] += 1
        self._cut_edges += cut_delta
        self._store(vertex, pid)

    def move(self, vertex, new_pid):
        """Relocate an assigned vertex, updating the cut count in O(deg v)."""
        self._check_pid(new_pid)
        old_pid = self._assignment[vertex]
        if old_pid == new_pid:
            return
        before = self._external_degree(vertex, old_pid)
        after = self._external_degree(vertex, new_pid)
        self._assignment[vertex] = new_pid
        self._sizes[old_pid] -= 1
        self._sizes[new_pid] += 1
        self._cut_edges += after - before
        self._store(vertex, new_pid)

    def apply_bulk_moves(self, items, cut_delta):
        """Relocate many vertices at once with a caller-computed cut delta.

        ``items`` yields ``(vertex, old_pid, new_pid)`` for vertices that
        actually change partition.  The caller guarantees ``cut_delta``
        equals the sum of the per-move deltas :meth:`move` would have
        produced (batch application commutes because the final cut count is
        a function of the final assignment alone).  The batch sweep uses
        this to skip the per-move ``O(deg v)`` adjacency walks; the
        equivalence tests cross-check against :meth:`validate`.
        """
        assignment = self._assignment
        sizes = self._sizes
        column = self._column
        slot_of = self._slots
        for vertex, old_pid, new_pid in items:
            assignment[vertex] = new_pid
            sizes[old_pid] -= 1
            sizes[new_pid] += 1
            # A mover is assigned, so it holds a slot and an entry.
            column[slot_of[vertex]] = new_pid
        self._cut_edges += cut_delta

    def assign_many(self, items):
        """Bulk :meth:`assign` of brand-new vertices with no assigned
        neighbours.

        ``items`` yields ``(vertex, pid)``.  Contract: every vertex is
        currently unassigned and none of its graph neighbours (if any) is
        assigned — true for just-created vertices placed before their first
        edge lands, which is the streaming-arrival shape the batched
        ingestion path feeds this.  Under that contract the cut count
        cannot change, so the per-vertex adjacency walk of :meth:`assign`
        is skipped; sizes advance exactly as ``n`` sequential assigns
        would.  An item that raises leaves the items before it applied.
        """
        assignment = self._assignment
        sizes = self._sizes
        num_partitions = self.num_partitions
        store = self._store
        count = 0
        for vertex, pid in items:
            if vertex in assignment:
                raise ValueError(f"vertex {vertex!r} already assigned")
            if not 0 <= pid < num_partitions:
                self._check_pid(pid)
            assignment[vertex] = pid
            sizes[pid] += 1
            store(vertex, pid)
            count += 1
        return count

    def apply_cut_delta(self, delta):
        """Adjust the cut count by a caller-computed bulk delta.

        The batched ingestion path computes one exact integer delta for a
        whole run of edge mutations (vectorised over endpoint-partition
        arrays) instead of calling :meth:`on_edge_added` /
        :meth:`on_edge_removed` per edge; the equivalence suite pins the
        result against the per-event bookkeeping.
        """
        self._cut_edges += delta

    def remove_vertex(self, vertex):
        """Forget a vertex (call *before* the graph drops its edges).

        Returns the partition it occupied, or None if unassigned.
        """
        pid = self._assignment.pop(vertex, None)
        if pid is None:
            return None
        self._sizes[pid] -= 1
        self._cut_edges -= self._external_degree(vertex, pid)
        self._store(vertex, -1)
        return pid

    # ------------------------------------------------------------------
    # Graph-mutation notifications
    # ------------------------------------------------------------------

    def on_edge_added(self, u, v):
        """Update the cut count after edge ``{u, v}`` was added to the graph."""
        pu = self._assignment.get(u)
        pv = self._assignment.get(v)
        if pu is not None and pv is not None and pu != pv:
            self._cut_edges += 1

    def on_edge_removed(self, u, v):
        """Update the cut count after edge ``{u, v}`` was removed."""
        pu = self._assignment.get(u)
        pv = self._assignment.get(v)
        if pu is not None and pv is not None and pu != pv:
            self._cut_edges -= 1

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

    @property
    def cut_edges(self):
        """Current number of cut edges ``|Ec|``."""
        return self._cut_edges

    def cut_ratio(self):
        """``|Ec| / |E|`` — the paper's gold-standard quality metric."""
        total = self.graph.num_edges
        if total == 0:
            return 0.0
        return self._cut_edges / total

    def imbalance(self):
        """Max partition size over the balanced load (1.0 = perfectly even)."""
        if not self._assignment:
            return 1.0
        balanced = len(self._assignment) / self.num_partitions
        return max(self._sizes) / balanced if balanced else 1.0

    def recompute_cut_edges(self):
        """From-scratch cut count (O(|E|)); ground truth for the tests."""
        cut = 0
        for u, v in self.graph.edges():
            pu = self._assignment.get(u)
            pv = self._assignment.get(v)
            if pu is not None and pv is not None and pu != pv:
                cut += 1
        return cut

    def validate(self):
        """Verify sizes, cut and column bookkeeping; AssertionError on drift."""
        sizes = [0] * self.num_partitions
        for pid in self._assignment.values():
            sizes[pid] += 1
        if sizes != self._sizes:
            raise AssertionError(f"size drift: counted {sizes}, stored {self._sizes}")
        actual = self.recompute_cut_edges()
        if actual != self._cut_edges:
            raise AssertionError(
                f"cut drift: counted {actual}, stored {self._cut_edges}"
            )
        for pid, size in enumerate(self._sizes):
            if size < 0:
                raise AssertionError(f"negative size in partition {pid}")
        column = self.partition_column()
        expected = [-1] * len(column)
        for vertex, slot in self._slots.items():
            expected[slot] = self._assignment.get(vertex, -1)
        drift = [s for s, pid in enumerate(column) if pid != expected[s]]
        if drift:
            raise AssertionError(f"partition column drift at slots {drift[:8]}")
        return True

    def copy(self):
        """Independent copy bound to the same graph object."""
        clone = PartitionState(self.graph, self.num_partitions, list(self.capacities))
        clone._assignment = dict(self._assignment)
        clone._sizes = list(self._sizes)
        clone._cut_edges = self._cut_edges
        clone._column = array("q", self._column)
        return clone

    def _check_pid(self, pid):
        if not 0 <= pid < self.num_partitions:
            raise ValueError(
                f"partition id {pid} out of range [0, {self.num_partitions})"
            )

    def __repr__(self):
        return (
            f"PartitionState(k={self.num_partitions}, |V|={len(self)}, "
            f"cut={self._cut_edges})"
        )


class Partitioner:
    """Interface for initial partitioning strategies.

    Subclasses implement :meth:`partition`, returning a fully-assigned
    :class:`PartitionState` over the given graph.  ``place`` (optional)
    supports streaming arrival of single vertices into an existing state —
    the Pregel layer uses it to place vertices injected from a stream.
    """

    name = "abstract"

    def partition(self, graph, num_partitions, capacities=None):
        raise NotImplementedError

    def place(self, state, vertex):
        """Streaming placement of one new vertex into ``state``.

        Default: hash placement — cheap and always applicable.
        """
        from repro.utils import stable_hash

        pid = stable_hash(vertex) % state.num_partitions
        if state.remaining_capacity(pid) <= 0:
            pid = max(
                range(state.num_partitions), key=state.remaining_capacity
            )
        state.assign(vertex, pid)
        return pid

    def place_many(self, state, vertices):
        """Streaming placement of many new vertices, in order.

        Returns the ``(vertex, pid)`` placements.  The default defers to
        :meth:`place` one vertex at a time, preserving any order-dependent
        behaviour (capacity spill-over) exactly; strategies whose placement
        is a pure per-vertex function (hash) override with a bulk path.
        """
        return [(v, self.place(state, v)) for v in vertices]
