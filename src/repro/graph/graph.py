"""Dynamic undirected graph: adjacency sets, interned slots, a CSR mirror.

This is the substrate every layer shares: generators produce it, initial
partitioners consume it, the adaptive heuristic reads neighbourhoods from it,
and the Pregel system mutates it while computing.  Design points:

* **Undirected** — the paper's cut-edge objective treats edges symmetrically
  (a directed mention stream is folded to undirected ties by the generators).
* **Dynamic** — O(1) amortised vertex/edge insertion and removal; removing a
  vertex detaches all incident edges, exactly the semantics the streaming use
  cases need.
* **Self-loop free** — self edges carry no partitioning information (a vertex
  is always co-located with itself) and are rejected.

The adjacency sets are the mutation authority; every iteration order the
library observes (vertices in insertion order, each neighbour set's own
order) comes from them.  Two derived structures feed the array kernels of
:mod:`repro.core.sweep` and :mod:`repro.core.ingest`:

* **Interning** — every vertex identifier is assigned a dense integer *slot*
  on first insertion; slots are recycled through a free list when vertices
  are removed.  All flat-array structures are indexed by slot.  While ids
  are modest non-negative ints the graph also keeps a dense id → slot
  table (:meth:`Graph.id_table`), written by the same methods that change
  the mapping — so it is exact by construction.
* **CSR-style mirror** — a flat neighbour array plus per-slot ``(start,
  length, capacity)`` offsets, built by the first :meth:`ensure_csr`.  From
  then on mutations stay O(1): they mark the touched slots dirty and the
  next :meth:`ensure_csr` repairs just those regions — in place when the
  new neighbourhood fits the slot's reserved capacity, by relocating the
  slot's block to the array tail (with geometric headroom) when it does
  not.  A full rebuild happens only when accumulated garbage from
  relocations exceeds half the array.  A graph whose mirror was never
  built marks nothing.

The mirror's offsets intentionally do **not** form a monotonic ``indptr``:
batch kernels gather with explicit ``(start, length)`` pairs, which is what
makes in-place dirty-region patching possible at all.

>>> g = Graph([(1, 2), (2, 3)])
>>> sorted(g.neighbors(2))
[1, 3]
>>> g.slot_of(1), g.slot_of(3)
(0, 2)
>>> starts, lens, indices = g.ensure_csr()
>>> list(indices[starts[1]:starts[1] + lens[1]])  # slot 1 is vertex 2
[0, 2]
"""

from array import array
from itertools import repeat

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is optional
    _np = None

__all__ = ["Graph", "id_column"]

# Extra per-slot capacity reserved at (re)build so later edge insertions
# usually patch in place instead of relocating the block.
_HEADROOM_SHIFT = 1  # reserve deg + deg/2 + _HEADROOM_MIN slots
_HEADROOM_MIN = 2


def _headroom(degree):
    return degree + (degree >> _HEADROOM_SHIFT) + _HEADROOM_MIN


class Graph:
    """A mutable undirected graph over hashable vertex identifiers.

    >>> g = Graph()
    >>> g.add_edge(1, 2)
    True
    >>> g.add_edge(2, 3)
    True
    >>> sorted(g.neighbors(2))
    [1, 3]
    >>> g.num_vertices, g.num_edges
    (3, 2)
    """

    __slots__ = (
        "_adj",
        "_num_edges",
        "_num_isolated",
        "_index",
        "_slot_ids",
        "_free_slots",
        "_dirty",
        "_csr_start",
        "_csr_len",
        "_csr_cap",
        "_csr_indices",
        "_csr_garbage",
        "_csr_built",
        "_id_table",
        "_id_table_retired",
    )

    def __init__(self, edges=None, vertices=None):
        self._adj = {}
        self._num_edges = 0
        self._num_isolated = 0
        self._index = {}
        self._slot_ids = []
        self._free_slots = []
        self._id_table = None
        self._id_table_retired = False
        self._dirty = set()
        self._csr_start = array("q")
        self._csr_len = array("q")
        self._csr_cap = []
        self._csr_indices = array("q")
        self._csr_garbage = 0
        self._csr_built = False
        if vertices is not None:
            self.add_vertices(vertices)
        if edges is not None:
            self.add_edges(edges)

    # ------------------------------------------------------------------
    # Mutation (adjacency first, then interning; dirty marks only once
    # the mirror exists — its first build covers every slot anyway)
    # ------------------------------------------------------------------

    def add_vertex(self, v):
        """Add an isolated vertex.  Returns True if it was new."""
        if v in self._adj:
            return False
        self._adj[v] = set()
        self._num_isolated += 1
        if self._free_slots:
            slot = self._free_slots.pop()
            self._slot_ids[slot] = v
        else:
            slot = len(self._slot_ids)
            self._slot_ids.append(v)
        self._index[v] = slot
        if self._id_table is not None:
            self._table_intern(v, slot)
        if self._csr_built:
            self._dirty.add(slot)
        return True

    def remove_vertex(self, v):
        """Remove ``v`` and all incident edges.  Returns True if present."""
        adj = self._adj
        neighbours = adj.pop(v, None)
        if neighbours is None:
            return False
        if not neighbours:
            self._num_isolated -= 1
        for w in neighbours:
            peers = adj[w]
            peers.discard(v)
            if not peers:
                self._num_isolated += 1
        self._num_edges -= len(neighbours)
        slot = self._index.pop(v)
        self._slot_ids[slot] = None
        self._free_slots.append(slot)
        if self._id_table is not None:
            self._id_table[v] = -1
        if self._csr_built:
            self._dirty.update(map(self._index.__getitem__, neighbours))
            self._dirty.add(slot)
        return True

    def add_edge(self, u, v):
        """Add the undirected edge ``{u, v}``, creating endpoints as needed.

        Returns True if the edge was new.  Self-loops are rejected.
        """
        if u == v:
            raise ValueError(f"self-loop on vertex {u!r} is not allowed")
        adj = self._adj
        if u not in adj:
            self.add_vertex(u)
        if v not in adj:
            self.add_vertex(v)
        adj_u = adj[u]
        if v in adj_u:
            return False
        adj_v = adj[v]
        if not adj_u:
            self._num_isolated -= 1
        if not adj_v:
            self._num_isolated -= 1
        adj_u.add(v)
        adj_v.add(u)
        self._num_edges += 1
        if self._csr_built:
            self._dirty.add(self._index[u])
            self._dirty.add(self._index[v])
        return True

    def remove_edge(self, u, v):
        """Remove the edge ``{u, v}`` if present.  Returns True if removed.

        Endpoints are left in the graph even if isolated afterwards — the
        streaming use cases reap inactive vertices explicitly.
        """
        adj_u = self._adj.get(u)
        if adj_u is None or v not in adj_u:
            return False
        adj_v = self._adj[v]
        adj_u.discard(v)
        adj_v.discard(u)
        if not adj_u:
            self._num_isolated += 1
        if not adj_v:
            self._num_isolated += 1
        self._num_edges -= 1
        if self._csr_built:
            self._dirty.add(self._index[u])
            self._dirty.add(self._index[v])
        return True

    # ------------------------------------------------------------------
    # Bulk mutation (one pass each; same results as the per-item calls)
    # ------------------------------------------------------------------

    def add_vertices(self, vertices):
        """Bulk :meth:`add_vertex`, in order.  Returns the count added."""
        return sum(map(self.add_vertex, vertices))

    def add_edges(self, pairs):
        """Bulk :meth:`add_edge`, in order.  Returns per-pair change flags.

        Endpoints are created as needed; duplicate pairs are skipped (their
        flag is False).  The flags double as presence answers — the batched
        ingestion path uses them instead of probing the graph separately.
        Every per-edge method dispatch collapses into one tight loop with
        bound locals — the difference between a million-event churn round
        being graph-bound or interpreter-bound.  A raise (self-loop) leaves
        the pairs before it applied and the counters exact.
        """
        adj = self._adj
        index = self._index
        mark = self._csr_built
        dirty_add = self._dirty.add
        flags = []
        flag = flags.append
        added = 0
        isolated = 0
        try:
            for u, v in pairs:
                if u == v:
                    raise ValueError(f"self-loop on vertex {u!r} is not allowed")
                nu = adj.get(u)
                if nu is None:
                    self.add_vertex(u)
                    nu = adj[u]
                nv = adj.get(v)
                if nv is None:
                    self.add_vertex(v)
                    nv = adj[v]
                if v in nu:
                    flag(False)
                    continue
                if not nu:
                    isolated -= 1
                if not nv:
                    isolated -= 1
                nu.add(v)
                nv.add(u)
                added += 1
                if mark:
                    dirty_add(index[u])
                    dirty_add(index[v])
                flag(True)
        finally:
            self._num_edges += added
            self._num_isolated += isolated
        return flags

    def remove_edges(self, pairs):
        """Bulk :meth:`remove_edge`, in order.  Returns per-pair change
        flags (False for absent edges)."""
        adj = self._adj
        index = self._index
        mark = self._csr_built
        dirty_add = self._dirty.add
        flags = []
        flag = flags.append
        removed = 0
        isolated = 0
        for u, v in pairs:
            nu = adj.get(u)
            if nu is None or v not in nu:
                flag(False)
                continue
            nv = adj[v]
            nu.discard(v)
            nv.discard(u)
            if not nu:
                isolated += 1
            if not nv:
                isolated += 1
            removed += 1
            if mark:
                dirty_add(index[u])
                dirty_add(index[v])
            flag(True)
        self._num_edges -= removed
        self._num_isolated += isolated
        return flags

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def __contains__(self, v):
        return v in self._adj

    def __len__(self):
        return len(self._adj)

    def __iter__(self):
        return iter(self._adj)

    @property
    def num_vertices(self):
        """Number of vertices currently in the graph."""
        return len(self._adj)

    @property
    def num_edges(self):
        """Number of undirected edges currently in the graph."""
        return self._num_edges

    @property
    def num_isolated(self):
        """Number of vertices with no incident edges (tracked, O(1))."""
        return self._num_isolated

    def has_edge(self, u, v):
        """True when the undirected edge ``{u, v}`` exists."""
        adj_u = self._adj.get(u)
        return adj_u is not None and v in adj_u

    def neighbors(self, v):
        """The (live) neighbour set of ``v``.

        Returns the internal set for speed; callers must not mutate it.
        """
        try:
            return self._adj[v]
        except KeyError:
            raise KeyError(f"vertex {v!r} not in graph") from None

    def degree(self, v):
        """Number of neighbours of ``v``."""
        return len(self.neighbors(v))

    def vertices(self):
        """Iterate over vertex identifiers (insertion order)."""
        return iter(self._adj)

    def edges(self):
        """Iterate over undirected edges, each reported once as ``(u, v)``.

        For orderable identifiers the smaller endpoint comes first; for mixed
        identifier types an arbitrary-but-deterministic endpoint order is
        used.
        """
        order = {v: i for i, v in enumerate(self._adj)}
        for u, neighbours in self._adj.items():
            rank = order[u]
            for v in neighbours:
                if order[v] < rank:
                    continue  # already emitted from v's side
                try:
                    yield (u, v) if u <= v else (v, u)
                except TypeError:
                    yield (u, v)

    def isolated_vertices(self):
        """Iterate over vertices with no incident edges."""
        for v, neighbours in self._adj.items():
            if not neighbours:
                yield v

    # ------------------------------------------------------------------
    # Interning
    # ------------------------------------------------------------------

    @property
    def num_slots(self):
        """Size of the slot space (live vertices plus recycled holes)."""
        return len(self._slot_ids)

    @property
    def slot_index(self):
        """The id → slot mapping (read-only by convention)."""
        return self._index

    @property
    def slot_ids(self):
        """The slot → id table (read-only by convention; None = hole).

        Batch kernels index this list directly instead of calling
        :meth:`id_of` per slot.
        """
        return self._slot_ids

    @property
    def dirty_slot_count(self):
        """Number of slots awaiting a CSR dirty-region repair.

        Batch kernels consult this to decide whether a vectorised CSR probe
        (which would first pay :meth:`ensure_csr`'s repair of exactly these
        slots) beats per-pair adjacency lookups.
        """
        return len(self._dirty) if self._csr_built else self.num_slots

    def slot_of(self, v):
        """Dense integer slot of ``v`` (KeyError when absent)."""
        return self._index[v]

    def id_of(self, slot):
        """Vertex identifier at ``slot`` (None for a recycled hole)."""
        return self._slot_ids[slot]

    def id_table(self):
        """The dense id → slot table (``array('q')``, −1 = absent), or None.

        Built on first use, then kept exact by :meth:`add_vertex` /
        :meth:`remove_vertex`; it exists only while every id is a
        non-negative int below ``4·|V| + 1024`` and is retired for good
        by the first id outside that regime (callers then use
        :attr:`slot_index`).  Array kernels map whole id columns through
        it in one gather.  The array is the live internal: a numpy view of
        it must not outlive the call that took it, because the next
        interning may resize it.
        """
        if self._id_table is None and not self._id_table_retired:
            self._build_id_table()
        return self._id_table

    def slots_of(self, ids):
        """Slots of ``ids`` (an int64 column or a sequence) as an int64
        column, −1 for an id the graph does not hold; numpy only.  Exact
        ints take one :meth:`id_table` gather, others a dict probe each."""
        table = self.id_table()
        column = ids if isinstance(ids, _np.ndarray) else id_column(ids)
        if table is None or column is None:
            keys = ids.tolist() if isinstance(ids, _np.ndarray) else ids
            return _np.fromiter(
                map(self._index.get, keys, repeat(-1)), _np.int64, len(keys)
            )
        lookup = _np.frombuffer(table, dtype=_np.int64)
        if len(column) and 0 <= column.min() and column.max() < len(lookup):
            return lookup[column]
        slots = _np.full(len(column), -1, dtype=_np.int64)
        inside = (column >= 0) & (column < len(lookup))
        slots[inside] = lookup[column[inside]]
        return slots

    def _build_id_table(self):
        """Fill the table from the intern index (one numpy pass when numpy
        is there, a loop otherwise), or retire it for good."""
        index = self._index
        n = len(index)
        if _np is not None:  # None for labels, bools and bigints
            ids = id_column(list(index))
            dense = ids is not None and (not n or int(ids.min()) >= 0)
            top = int(ids.max()) if dense and n else 0
        else:
            ids = None
            dense = all(type(v) is int and v >= 0 for v in index)
            top = max(index, default=0) if dense else 0
        if not dense or top >= 4 * n + 1024:
            self._id_table_retired = True
            return
        if ids is None:
            table = array("q", (-1,)) * (top + 1)
            for v, slot in index.items():
                table[v] = slot
        else:
            column = _np.full(top + 1, -1, dtype=_np.int64)
            column[ids] = _np.fromiter(index.values(), _np.int64, count=n)
            table = array("q")
            table.frombytes(column.tobytes())
        self._id_table = table

    def _table_intern(self, v, slot):
        """Record a fresh interning in the live id table (or retire it)."""
        table = self._id_table
        size = len(table)
        if (
            type(v) is not int
            or v < 0
            or v >= max(size, 4 * len(self._index) + 1024)
        ):  # non-int or sparse id: the dict is the right home from here on
            self._id_table = None
            self._id_table_retired = True
            return
        if v >= size:
            table.extend((-1,) * (max(v + 1, 2 * size) - size))
        table[v] = slot

    # ------------------------------------------------------------------
    # CSR mirror maintenance
    # ------------------------------------------------------------------

    def ensure_csr(self):
        """Return ``(starts, lengths, indices)`` arrays, repairing as needed.

        ``starts[slot] : starts[slot] + lengths[slot]`` slices ``indices``
        into the slot's neighbour slots.  The returned arrays are the live
        internals: callers must treat them as read-only snapshots that any
        later mutation invalidates.
        """
        if not self._csr_built:
            self._rebuild_csr()
        elif self._dirty:
            self._patch_dirty()
        return self._csr_start, self._csr_len, self._csr_indices

    def _rebuild_csr(self):
        n = len(self._slot_ids)
        starts = array("q", bytes(8 * n))
        lens = array("q", bytes(8 * n))
        caps = [0] * n
        flat = []
        index = self._index
        pad = (0,)
        cursor = 0
        for v, slot in index.items():
            neighbours = self._adj[v]
            deg = len(neighbours)
            cap = _headroom(deg)
            starts[slot] = cursor
            lens[slot] = deg
            caps[slot] = cap
            flat.extend(map(index.__getitem__, neighbours))
            flat.extend(pad * (cap - deg))
            cursor += cap
        self._csr_start = starts
        self._csr_len = lens
        self._csr_cap = caps
        self._csr_indices = array("q", flat)
        self._csr_garbage = 0
        self._csr_built = True
        self._dirty.clear()

    def _patch_dirty(self):
        starts, lens, caps = self._csr_start, self._csr_len, self._csr_cap
        indices = self._csr_indices
        # Slots created since the last build need offset entries.
        grow = len(self._slot_ids) - len(starts)
        if grow > 0:
            starts.frombytes(bytes(8 * grow))
            lens.frombytes(bytes(8 * grow))
            caps.extend([0] * grow)
        index = self._index
        ids = self._slot_ids
        # reprolint: allow-DET001 slot order only picks arena block placement; adjacency content is unaffected
        for slot in self._dirty:
            v = ids[slot]
            if v is None:  # recycled hole: its block is garbage now
                self._csr_garbage += caps[slot]
                starts[slot] = 0
                lens[slot] = 0
                caps[slot] = 0
                continue
            neighbours = self._adj[v]
            deg = len(neighbours)
            if deg <= caps[slot]:
                # Dirty-region rewrite in place.
                cursor = starts[slot]
                for w in neighbours:
                    indices[cursor] = index[w]
                    cursor += 1
                lens[slot] = deg
            else:
                # Relocate the block to the tail with geometric headroom.
                self._csr_garbage += caps[slot]
                cap = _headroom(deg)
                starts[slot] = len(indices)
                lens[slot] = deg
                caps[slot] = cap
                indices.extend(index[w] for w in neighbours)
                indices.extend(0 for _ in range(cap - deg))
        self._dirty.clear()
        if self._csr_garbage * 2 > len(indices):
            self._rebuild_csr()

    # ------------------------------------------------------------------
    # Derived views / bulk helpers
    # ------------------------------------------------------------------

    def copy(self):
        """Deep copy preserving vertex insertion order.

        Identifiers are shared, sets are not.  Slots are renumbered densely
        in insertion order: recycled holes do not survive the copy, so slot
        numbers match the original's only when it never removed a vertex.
        """
        clone = type(self)()
        clone._adj = adj = {v: set(ns) for v, ns in self._adj.items()}
        clone._num_edges = self._num_edges
        clone._num_isolated = self._num_isolated
        clone._index = {v: slot for slot, v in enumerate(adj)}
        clone._slot_ids = list(adj)
        return clone

    def subgraph(self, vertices):
        """Induced subgraph over ``vertices`` (missing ids are ignored)."""
        # Keep the caller's order (deduplicated): the subgraph's vertex
        # insertion order — hence its iteration order — must not depend
        # on hash-table layout.
        seen = set()
        keep = []
        for v in vertices:
            if v in self._adj and v not in seen:
                seen.add(v)
                keep.append(v)
        return type(self)(  # add_edges dedups the reverse visit
            vertices=keep,
            edges=((v, w) for v in keep for w in self._adj[v] if w in seen),
        )

    def degree_histogram(self):
        """Map degree -> number of vertices with that degree."""
        hist = {}
        for neighbours in self._adj.values():
            d = len(neighbours)
            hist[d] = hist.get(d, 0) + 1
        return hist

    def average_degree(self):
        """Mean vertex degree (0.0 for an empty graph)."""
        if not self._adj:
            return 0.0
        return 2.0 * self._num_edges / len(self._adj)

    def connected_components(self):
        """List of vertex sets, one per connected component (BFS)."""
        unvisited = set(self._adj)
        components = []
        # Roots come from insertion order, not set order, so the component
        # *list* order is a function of the graph's history alone.
        for root in self._adj:
            if root not in unvisited:
                continue
            component = {root}
            frontier = [root]
            unvisited.discard(root)
            while frontier:
                current = frontier.pop()
                for w in self._adj[current]:
                    if w in unvisited:
                        unvisited.discard(w)
                        component.add(w)
                        frontier.append(w)
            components.append(component)
        return components

    def giant_component_fraction(self):
        """Fraction of vertices in the largest connected component."""
        if not self._adj:
            return 0.0
        return max(len(c) for c in self.connected_components()) / len(self._adj)

    def validate(self):
        """Check adjacency, interning and (once built) CSR-mirror
        invariants; raises AssertionError on corruption.

        Used by property-based tests after arbitrary mutation sequences.
        Never builds the mirror itself: a graph nobody mirrored stays so.
        """
        edge_count = 0
        for v, neighbours in self._adj.items():
            if v in neighbours:
                raise AssertionError(f"self-loop stored on {v!r}")
            for w in neighbours:
                if w not in self._adj:
                    raise AssertionError(f"dangling neighbour {w!r} of {v!r}")
                if v not in self._adj[w]:
                    raise AssertionError(f"asymmetric edge {v!r}->{w!r}")
            edge_count += len(neighbours)
        if edge_count != 2 * self._num_edges:
            raise AssertionError(
                f"edge count drift: counted {edge_count // 2}, "
                f"stored {self._num_edges}"
            )
        isolated = sum(1 for ns in self._adj.values() if not ns)
        if isolated != self._num_isolated:
            raise AssertionError(
                f"isolated count drift: counted {isolated}, "
                f"stored {self._num_isolated}"
            )
        if len(self._index) != len(self._adj):
            raise AssertionError(
                f"intern drift: {len(self._index)} slots for "
                f"{len(self._adj)} vertices"
            )
        for v, slot in self._index.items():
            if not 0 <= slot < len(self._slot_ids):
                raise AssertionError(f"slot {slot} of {v!r} out of range")
            if self._slot_ids[slot] != v:
                raise AssertionError(
                    f"slot table disagrees at {slot}: "
                    f"{self._slot_ids[slot]!r} != {v!r}"
                )
        live = len(self._slot_ids) - len(self._free_slots)
        if live != len(self._adj):
            raise AssertionError(
                f"free-list drift: {live} live slots, {len(self._adj)} vertices"
            )
        table = self._id_table
        if table is not None:
            live = {v: slot for v, slot in enumerate(table) if slot >= 0}
            if live != self._index:
                raise AssertionError(
                    f"id table drift: {len(live)} entries disagree with "
                    f"the {len(self._index)}-vertex intern index"
                )
        if not self._csr_built:
            return True
        starts, lens, indices = self.ensure_csr()
        for v, slot in self._index.items():
            block = indices[starts[slot] : starts[slot] + lens[slot]]
            expected = {self._index[w] for w in self._adj[v]}
            if set(block) != expected or len(block) != len(expected):
                raise AssertionError(f"CSR mirror drift at vertex {v!r}")
        return True

    def __repr__(self):
        return f"Graph(|V|={self.num_vertices}, |E|={self.num_edges})"


def id_column(ids):
    """``ids`` as an int64 column, or None unless every id is an exact
    ``int`` that fits (labels, bools and bigints stay Python objects)."""
    if _np is None or set(map(type, ids)) - {int}:
        return None
    try:
        return _np.fromiter(ids, _np.int64, len(ids))
    except OverflowError:
        return None
