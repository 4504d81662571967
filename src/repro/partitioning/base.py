"""Partition bookkeeping shared by every strategy and the adaptive core.

:class:`PartitionState` keeps the vertex → partition assignment, the
per-partition sizes and capacities and the exact cut-edge count ``|Ec|``
(the paper's quality metric) under any interleaving of moves and graph
mutations, plus the slot-indexed partition column the array kernels read
(``docs/architecture.md``, "Who owns which array").
"""

import math
import types
from array import array
from collections import Counter
from itertools import chain, compress, islice, repeat

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is optional
    _np = None

__all__ = [
    "PartitionState",
    "Partitioner",
    "StreamingPartitioner",
    "balanced_capacities",
]


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

    def partitions_at(self, slots):
        """Partition ids at ``slots`` (−1 at slot −1), as a copy."""
        column = _np.frombuffer(self.partition_column(), dtype=_np.int64)
        pids = _np.full(len(slots), -1, dtype=_np.int64)
        hit = slots >= 0
        pids[hit] = column[slots[hit]]
        return pids

    def partitions_of(self, ids):
        """:meth:`partition_of_or_none` over ``ids`` (an int64 column or a
        sequence) as an int64 column, −1 = absent or unassigned; numpy
        only.  Two gathers: id → slot, then slot → partition column."""
        return self.partitions_at(self.graph.slots_of(ids))

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

    def apply_bulk_moves(self, vertices, slots, old, new, nbr, row):
        """Relocate ``vertices`` (at ``slots``) from ``old`` to ``new``
        partitions — int64 columns, every move a real change; numpy only.

        ``nbr`` holds the movers' neighbour slots back to back and ``row``
        the mover each entry belongs to.  The exact cut delta is one pass
        over them and the partition column instead of a per-move
        ``O(deg v)`` walk: the final cut is a function of the final
        assignment alone, and a mover–mover edge appears once per endpoint
        with equal indicators, so those entries count half.
        """
        column = _np.frombuffer(self.partition_column(), dtype=_np.int64)
        before = column[nbr]
        moved_to = _np.full(len(column), -1, dtype=_np.int64)
        moved_to[slots] = new
        after = moved_to[nbr]
        hit = after >= 0  # the neighbour moves too
        after = _np.where(hit, after, before)
        valid = before >= 0  # unassigned neighbours never count
        diff = (valid & (after != new[row])).astype(_np.int64)
        diff -= valid & (before != old[row])
        self._cut_edges += int(diff.sum()) - int(diff[hit].sum()) // 2
        self._assignment.update(zip(vertices, new.tolist()))
        k = self.num_partitions
        shift = _np.bincount(new, minlength=k) - _np.bincount(old, minlength=k)
        for pid, delta in enumerate(shift.tolist()):
            self._sizes[pid] += delta
        column[slots] = new

    def move_many(self, vertices, new, mark=None):
        """:meth:`move` each of ``vertices`` to its entry of ``new`` in one
        bulk move (numpy only); returns their old partitions (int64).

        The movers' neighbours come from their adjacency sets through the
        id table, never the CSR mirror.  ``mark``, when given, is called
        with the slot columns this gathers: every one of ``vertices``,
        then the neighbours of those whose partition changed.
        """
        k = self.num_partitions
        new = _np.asarray(new, dtype=_np.int64)
        bad = (new < 0) | (new >= k)
        if bad.any():
            self._check_pid(int(new[bad.argmax()]))  # raises
        slots = self.graph.slots_of(vertices)
        old = self.partitions_at(slots)
        if (old < 0).any():
            raise KeyError(vertices[int((old < 0).argmax())])
        if mark is not None:
            mark(slots)
        real = old != new
        if not real.any():
            return old
        movers = list(compress(vertices, real.tolist()))
        blocks = list(map(self.graph.neighbors, movers))
        degrees = _np.fromiter(map(len, blocks), _np.int64, count=len(blocks))
        nbr = self.graph.slots_of(list(chain.from_iterable(blocks)))
        if mark is not None:
            mark(nbr)
        row = _np.repeat(_np.arange(len(movers)), degrees)
        self.apply_bulk_moves(movers, slots[real], old[real], new[real], nbr, row)
        return old

    def assign_many(self, vertices, pids):
        """Bulk :meth:`assign` of ``vertices`` to the parallel ``pids``, in
        order: the initial placement and streaming arrivals alike.  One
        pass fills the dict and counts each new cut edge once, when its
        later endpoint lands; sizes, column and cut then move once.  As
        with the :meth:`assign` loop, a raise leaves the pairs before it
        applied."""
        assignment = self._assignment
        neighbours = self.graph.neighbors
        k = self.num_partitions
        cut = done = 0
        try:
            for vertex, pid in zip(vertices, pids):
                if vertex in assignment:
                    raise ValueError(f"vertex {vertex!r} already assigned")
                if not 0 <= pid < k:
                    self._check_pid(pid)
                for other in neighbours(vertex):
                    held = assignment.get(other)
                    if held is not None and held != pid:
                        cut += 1
                assignment[vertex] = pid
                done += 1
        finally:
            self._cut_edges += cut
            for pid, count in Counter(islice(pids, done)).items():
                self._sizes[pid] += count
            column, slot_of = self.partition_column(), self._slots.get
            for slot, pid in zip(map(slot_of, islice(vertices, done)), pids):
                if slot is not None:
                    column[slot] = pid

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
        """From-scratch cut count (O(|E|)): one pass over the adjacency
        sets and the assignment dict, every cut edge seen from both ends."""
        get, graph, twice = self._assignment.get, self.graph, 0
        for vertex in graph.vertices():
            pid = get(vertex)
            for other in graph.neighbors(vertex) if pid is not None else ():
                held = get(other)
                if held is not None and held != pid:
                    twice += 1
        return twice // 2

    def validate(self):
        """Verify sizes, cut and column bookkeeping; AssertionError on drift."""
        counted = Counter(self._assignment.values())
        sizes = [counted[pid] for pid in range(self.num_partitions)]
        if sizes != self._sizes or sum(sizes) != len(self._assignment):
            raise AssertionError(f"size drift: counted {sizes}, stored {self._sizes}")
        actual = self.recompute_cut_edges()
        if actual != self._cut_edges:
            raise AssertionError(
                f"cut drift: counted {actual}, stored {self._cut_edges}"
            )
        column = self.partition_column()
        expected = array(
            "q", map(self._assignment.get, self.graph.slot_ids, repeat(-1))
        )
        if expected != column:
            drift = [s for s, pid in enumerate(column) if pid != expected[s]]
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
    the streaming partitioners drive it one vertex at a time.
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


class StreamingPartitioner(Partitioner):
    """Single-pass driver: :meth:`place` each vertex in ``stream_order``
    (default: graph insertion order, matching how loaders feed real
    systems) into balanced capacities unless ``capacities`` are given."""

    def __init__(self, stream_order=None):
        self.stream_order = stream_order

    def partition(self, graph, num_partitions, capacities=None):
        if capacities is None:
            capacities = balanced_capacities(graph.num_vertices, num_partitions)
        state = PartitionState(graph, num_partitions, capacities)
        order = (
            self.stream_order if self.stream_order is not None else graph.vertices()
        )
        for v in order:
            self.place(state, v)
        return state

    @staticmethod
    def _spill(state):
        """Fallback destination when every partition is full."""
        return max(range(state.num_partitions), key=state.remaining_capacity)
