"""Integer-interned graph backend with a CSR-style adjacency mirror.

:class:`CompactGraph` is the array-backed substrate for the batch sweep in
:mod:`repro.core.sweep`.  It extends :class:`~repro.graph.graph.Graph` (the
adjacency-set backend stays the mutation authority, so every behaviour the
rest of the library observes — iteration orders, neighbour sets, mutation
semantics — is *identical* to the dense backend) and adds:

* **Interning** — every vertex identifier is assigned a dense integer *slot*
  on first insertion; slots are recycled through a free list when vertices
  are removed.  All flat-array structures are indexed by slot.  While ids
  are modest non-negative ints the graph also keeps a dense id → slot
  table (:meth:`CompactGraph.id_table`), written by the same three
  methods that change the mapping — so it is exact by construction.
* **CSR-style mirror** — a flat neighbour array plus per-slot ``(start,
  length, capacity)`` offsets.  The mirror is *not* rebuilt per mutation:
  mutations are O(1) (they go through the adjacency sets and only mark the
  touched slots dirty) and :meth:`ensure_csr` repairs just the dirty regions
  — in place when the new neighbourhood fits the slot's reserved capacity,
  by relocating the slot's block to the array tail (with geometric headroom)
  when it does not.  A full rebuild happens only when accumulated garbage
  from relocations exceeds half the array, keeping streaming mutation
  amortised O(1).

The mirror's offsets intentionally do **not** form a monotonic ``indptr``:
batch kernels gather with explicit ``(start, length)`` pairs, which is what
makes in-place dirty-region patching possible at all.

>>> g = CompactGraph([(1, 2), (2, 3)])
>>> sorted(g.neighbors(2))
[1, 3]
>>> g.slot_of(1), g.slot_of(3)
(0, 2)
>>> starts, lens, indices = g.ensure_csr()
>>> list(indices[starts[1]:starts[1] + lens[1]])  # slot 1 is vertex 2
[0, 2]
"""

from array import array

from repro.graph.graph import Graph

__all__ = ["CompactGraph", "as_adjacency", "as_compact"]

# Extra per-slot capacity reserved at (re)build so later edge insertions
# usually patch in place instead of relocating the block.
_HEADROOM_SHIFT = 1  # reserve deg + deg/2 + _HEADROOM_MIN slots
_HEADROOM_MIN = 2


def _headroom(degree):
    return degree + (degree >> _HEADROOM_SHIFT) + _HEADROOM_MIN


class CompactGraph(Graph):
    """A :class:`Graph` whose vertices are interned to dense integer slots.

    Drop-in compatible with :class:`Graph` everywhere (it *is* one); the
    extra surface — ``slot_of`` / ``id_of`` / ``ensure_csr`` — is what the
    array kernels consume.
    """

    __slots__ = (
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
        super().__init__(edges=edges, vertices=vertices)

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

    def _build_id_table(self):
        index = self._index
        dense = all(type(v) is int and v >= 0 for v in index)
        top = max(index, default=0) if dense else 0
        if not dense or top >= 4 * len(index) + 1024:
            self._id_table_retired = True
            return
        table = array("q", (-1,)) * (top + 1)
        for v, slot in index.items():
            table[v] = slot
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
    # Mutation (adjacency authority lives in Graph; we intern + mark dirty)
    # ------------------------------------------------------------------

    def add_vertex(self, v):
        if not super().add_vertex(v):
            return False
        if self._free_slots:
            slot = self._free_slots.pop()
            self._slot_ids[slot] = v
        else:
            slot = len(self._slot_ids)
            self._slot_ids.append(v)
        self._index[v] = slot
        if self._id_table is not None:
            self._table_intern(v, slot)
        if self._csr_built:  # before it, ensure_csr rebuilds every slot
            self._dirty.add(slot)
        return True

    def remove_vertex(self, v):
        slot = self._index.get(v)
        if slot is None:
            return False
        for w in self._adj[v]:
            self._dirty.add(self._index[w])
        super().remove_vertex(v)
        del self._index[v]
        self._slot_ids[slot] = None
        self._free_slots.append(slot)
        if self._id_table is not None:
            self._id_table[v] = -1
        self._dirty.add(slot)
        return True

    def add_edge(self, u, v):
        if not super().add_edge(u, v):  # interns endpoints via add_vertex
            return False
        self._dirty.add(self._index[u])
        self._dirty.add(self._index[v])
        return True

    def remove_edge(self, u, v):
        if not super().remove_edge(u, v):
            return False
        self._dirty.add(self._index[u])
        self._dirty.add(self._index[v])
        return True

    # ------------------------------------------------------------------
    # Bulk mutation (single pass; dirty regions marked once per batch)
    # ------------------------------------------------------------------

    def add_edges(self, pairs):
        """Bulk :meth:`add_edge` in one pass over the adjacency dict.

        Semantically identical to the per-edge loop (endpoints created as
        needed, duplicates skipped, self-loops rejected) and returns the
        same per-pair change flags, but every per-edge method dispatch
        collapses into one tight loop with bound locals — the difference
        between a million-event churn round being graph-bound or
        interpreter-bound.  A raise leaves the pairs before it applied and
        the counters exact.
        """
        adj = self._adj
        index = self._index
        mark = self._csr_built  # the first build rebuilds every slot anyway
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
        """Bulk :meth:`remove_edge` in one pass (absent edges flag False)."""
        adj = self._adj
        index = self._index
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
            dirty_add(index[u])
            dirty_add(index[v])
            flag(True)
        self._num_edges -= removed
        self._num_isolated += isolated
        return flags

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
    # Derived views
    # ------------------------------------------------------------------

    def copy(self):
        """Deep copy preserving vertex insertion order.

        Slots are renumbered densely in that order: recycled holes do not
        survive the copy, so slot numbers match the original's only when
        it never removed a vertex.
        """
        return CompactGraph.from_graph(self)

    @classmethod
    def from_graph(cls, graph):
        """Compact copy of any backend (vertex insertion order preserved)."""
        clone = cls()
        clone._adj = adj = {v: set(graph.neighbors(v)) for v in graph.vertices()}
        clone._num_edges = graph.num_edges
        clone._num_isolated = sum(1 for ns in adj.values() if not ns)
        clone._index = {v: slot for slot, v in enumerate(adj)}
        clone._slot_ids = list(adj)
        return clone

    def validate(self):
        """Graph invariants plus interning / CSR-mirror consistency."""
        super().validate()
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
        starts, lens, indices = self.ensure_csr()
        for v, slot in self._index.items():
            block = indices[starts[slot] : starts[slot] + lens[slot]]
            expected = {self._index[w] for w in self._adj[v]}
            if set(block) != expected or len(block) != len(expected):
                raise AssertionError(f"CSR mirror drift at vertex {v!r}")
        return True

    def __repr__(self):
        return (
            f"CompactGraph(|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"slots={self.num_slots})"
        )


def as_compact(graph):
    """Bridge: return ``graph`` as a :class:`CompactGraph`.

    Already-compact graphs are returned as-is (no copy); dense graphs are
    copied.  The copy preserves vertex insertion order, so iteration-order
    sensitive behaviour (partitioners, the runner's candidate order) is
    identical across the bridge.
    """
    if isinstance(graph, CompactGraph):
        return graph
    return CompactGraph.from_graph(graph)


def as_adjacency(graph):
    """Bridge: return ``graph`` as a plain adjacency-set :class:`Graph`."""
    return graph if type(graph) is Graph else Graph.copy(graph)
