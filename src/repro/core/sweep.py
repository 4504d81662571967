"""Array-backed batch evaluation of the greedy migration rule.

The per-vertex hot path of :class:`~repro.core.runner.AdaptiveRunner` (and
the Pregel background partitioner) is: read the vertex's neighbour-partition
histogram, apply the heuristic, then gate the move on willingness and quota.
On the adjacency-set backend that allocates a fresh dict per vertex per
round; :class:`CompactSweeper` replaces it with one vectorised pass over the
:class:`~repro.graph.compact.CompactGraph` CSR mirror:

* the partition assignment is read as one flat integer array indexed by
  vertex slot — the partition column its owner,
  :class:`~repro.partitioning.base.PartitionState`, writes on every
  assignment change, so the sweeper holds no copy that could go stale;
* neighbour-partition counts for *all* candidates accumulate into a single
  ``(candidates × partitions)`` count buffer via one ``bincount`` — no
  per-vertex allocation;
* the paper's greedy rule (argmax neighbours, prefer to stay, lowest id wins
  ties) is evaluated closed-form on the buffer.

Because every decision in a round is taken against start-of-round state,
batching is *semantics-preserving*: decisions are order-independent, and the
order-dependent parts (willingness draws, quota consumption) stay in the
caller's sequential loop, which consumes the RNG stream exactly as the
per-vertex path does.  Timelines are bit-for-bit identical across backends —
the cross-backend equivalence suite pins this.

The sweeper engages only for the exact paper heuristic
(:class:`~repro.core.heuristic.GreedyMaxNeighbours`) on a compact graph with
numpy present; every other combination uses :func:`generic_decisions`, the
portable per-vertex path.

:class:`LocalCsr` is the same idea scoped to one
:class:`~repro.cluster.shard.Shard`: a local CSR of the shard's resident
adjacency (append-only blocks with garbage compaction, so churn patches
cost O(changed), not O(shard)), a slot-indexed mirror of the *global*
placement (fed by the coordinator's broadcast placement deltas) and one
vectorised greedy pass per decision round, including the keyed willingness
draws.  It is bit-identical to the portable
:func:`~repro.pregel.compute.decide_block` path by the same argument as
above, and the equivalence suite pins it.  The same slots answer the
batched vertex kernel's topology queries (:meth:`LocalCsr.gather`), so a
shard interns every id exactly once.
"""

from itertools import islice

from repro.core.heuristic import GreedyMaxNeighbours
from repro.utils.rng import WillingnessSource, vertex_key

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is optional
    _np = None

__all__ = [
    "CompactSweeper",
    "LocalCsr",
    "generic_decisions",
    "make_shard_index",
    "make_sweeper",
    "sort_vertices",
]


def sort_vertices(vertices):
    """Canonically ordered list of vertex ids (mixed-type safe).

    Used to order candidate sets before the willingness shuffle so RNG
    pairing does not depend on set iteration order.
    """
    try:
        return sorted(vertices)
    except TypeError:  # mixed identifier types: order by (type, repr)
        return sorted(vertices, key=lambda v: (type(v).__name__, repr(v)))


def generic_decisions(state, heuristic, candidates, remaining):
    """Yield ``(vertex, current, desired)`` per assigned candidate, in order.

    The portable decision path: works on any backend and any heuristic.
    """
    for v in candidates:
        current = state.partition_of_or_none(v)
        if current is None:
            continue
        counts = state.neighbour_partition_counts(v)
        yield v, current, heuristic.desired_partition(current, counts, remaining)


def make_sweeper(graph, state, heuristic):
    """A :class:`CompactSweeper` when the fast path applies, else None."""
    if CompactSweeper.supports(graph, heuristic):
        return CompactSweeper(graph, state)
    return None


class CompactSweeper:
    """Batch greedy decisions over a compact graph + partition state.

    Holds no arrays of its own: every pass takes transient numpy views of
    the graph's CSR mirror and id table and of the state's partition
    column, and drops them before returning (see the view-lifetime rule
    in ``docs/architecture.md``).
    """

    @staticmethod
    def supports(graph, heuristic):
        """True when the vectorised path can replace the per-vertex one."""
        return (
            _np is not None
            and hasattr(graph, "ensure_csr")
            # Exact type: a subclass could override the decision rule.
            and type(heuristic) is GreedyMaxNeighbours
        )

    def __init__(self, graph, state):
        self.graph = graph
        self.state = state

    def _column(self):
        return _np.frombuffer(self.state.partition_column(), dtype=_np.int64)

    def _candidate_slots(self, candidates):
        """Vectorised id → slot mapping for the candidate list.

        While the graph keeps its dense id table (modest non-negative int
        ids — what generators and edge lists produce) the whole candidate
        array maps in one gather; otherwise one dict lookup per candidate.
        Candidates are always live vertices, so no entry is −1.
        """
        table = self.graph.id_table()
        if table is not None:
            return _np.frombuffer(table, dtype=_np.int64)[
                _np.asarray(candidates, dtype=_np.int64)
            ]
        index = self.graph.slot_index
        return _np.fromiter(
            (index[v] for v in candidates), dtype=_np.int64, count=len(candidates)
        )

    def _gather_blocks(self, slots):
        """Gather the CSR neighbour blocks of ``slots``, concatenated.

        Returns ``(nbr, row)``: the neighbour slots of every queried slot
        back to back, and the queried-slot index each entry belongs to.
        The mirror's offsets are non-monotonic (dirty-region patching
        relocates blocks), so the gather works from the shared
        explicit-``(start, length)`` helper.
        """
        starts_a, lens_a, indices_a = self.graph.ensure_csr()
        starts = _np.frombuffer(starts_a, dtype=_np.int64)
        lens = _np.frombuffer(lens_a, dtype=_np.int64)
        indices = _np.frombuffer(indices_a, dtype=_np.int64)
        return _gather_explicit(indices, starts[slots], lens[slots])

    def decisions(self, candidates, remaining=None):
        """Yield ``(vertex, current, desired)`` for candidates wanting to move.

        Settled and unassigned candidates are filtered out vectorised — they
        are no-ops in every consumer's sequential phase, so dropping them
        changes neither the RNG stream nor any bookkeeping.  ``remaining``
        is accepted for signature compatibility; the greedy rule ignores
        capacities by construction.
        """
        del remaining
        if not candidates:
            return iter(())
        slots = self._candidate_slots(candidates)
        nbr, row = self._gather_blocks(slots)
        assign = self._column()
        cur = assign[slots]
        desired, movers = _greedy_movers(
            cur, nbr, row, assign, self.state.num_partitions
        )
        # Only vertices that want to move matter to the caller's sequential
        # phase (settled ones draw no RNG and trigger no bookkeeping), so
        # emit just those — in candidate order, preserving the RNG pairing.
        return (
            (candidates[i], int(cur[i]), int(desired[i])) for i in movers.tolist()
        )

    def apply_moves(self, moves):
        """Apply a round's admitted ``(v, old, new, load)`` moves in one batch.

        Within a synchronous round the admitted moves commute: the final cut
        count depends only on the final assignment, so instead of walking
        each mover's adjacency per move (``PartitionState.move``), gather
        every mover's neighbour block once from the CSR mirror and compute
        the exact integer cut delta vectorised.  Mover–mover edges appear in
        the gather twice (once per endpoint) with identical indicators, so
        their contribution is halved.

        Returns the ids of the movers and their neighbours — exactly the
        vertices :meth:`AdaptiveRunner._activate_neighbourhood` would have
        re-activated one by one.
        """
        if not moves:
            return []
        n = len(moves)
        index = self.graph.slot_index
        slots = _np.fromiter((index[m[0]] for m in moves), dtype=_np.int64, count=n)
        old = _np.fromiter((m[1] for m in moves), dtype=_np.int64, count=n)
        new = _np.fromiter((m[2] for m in moves), dtype=_np.int64, count=n)
        nbr, row = self._gather_blocks(slots)
        if len(nbr):
            assign = self._column()
            before_pid = assign[nbr]
            valid = before_pid >= 0  # unassigned neighbours never count
            cut_before = valid & (before_pid != old[row])
            moved_to = _np.full(len(assign), -1, dtype=_np.int64)
            moved_to[slots] = new
            nbr_moved_to = moved_to[nbr]
            nbr_moves = nbr_moved_to >= 0
            after_pid = _np.where(nbr_moves, nbr_moved_to, before_pid)
            cut_after = valid & (after_pid != new[row])
            diff = cut_after.astype(_np.int64) - cut_before.astype(_np.int64)
            double_sum = int(diff[nbr_moves].sum())  # even by symmetry
            cut_delta = int(diff.sum()) - double_sum // 2
            touched = _np.unique(_np.concatenate((slots, nbr)))
        else:
            cut_delta = 0
            touched = _np.unique(slots)
        self.state.apply_bulk_moves(((m[0], m[1], m[2]) for m in moves), cut_delta)
        ids = self.graph.slot_ids
        return [ids[s] for s in touched.tolist()]


def make_shard_index(heuristic, batched):
    """One shard's :class:`LocalCsr`, or None when nothing would read it.

    Both readers need numpy: the decision pass, under the same gate as
    :func:`make_sweeper` — the *exact* paper heuristic (a subclass could
    override the rule; anything else decides through the portable
    :func:`~repro.pregel.compute.decide_block`) — and the batched vertex
    kernel (``batched``: the program declares ``compute_batch``).
    """
    greedy = type(heuristic) is GreedyMaxNeighbours
    if _np is None or not (greedy or batched):
        return None
    return LocalCsr(greedy)


class LocalCsr:
    """The array index of one shard: local CSR, placement mirror, id tables.

    Ids are interned into dense local slots on first sight (residents,
    their neighbours, and every vertex the placement mirror names), each
    slot carrying its vertex id, its willingness key and its partition.
    Resident adjacency lives as append-only ``(start, len)`` blocks in one
    flat array, compacted when garbage from re-admissions and evictions
    exceeds the live volume — so a quiet shard pays O(changed), and an
    adjacency patch pays O(degree of the patched vertices).

    The shard feeds it the membership changes it applies to its own dict
    state (:meth:`admit` / :meth:`evict`) and the coordinator's broadcast
    placement deltas (:meth:`place` / :meth:`unplace`), so it is exact
    whenever the shard is.  Two readers share the slots: :meth:`decisions`
    (``decides`` says whether the shard's heuristic is the rule it
    implements) and :meth:`gather`, the batched vertex kernel's topology.
    """

    _GROW = 1024

    def __init__(self, decides):
        self.decides = decides
        self._slot = {}
        self._ids = []  # slot -> vertex id (slots are assigned densely)
        self._keys = _np.empty(0, dtype=_np.uint64)
        self._place = _np.empty(0, dtype=_np.int64)
        self._starts = _np.empty(0, dtype=_np.int64)
        self._lens = _np.empty(0, dtype=_np.int64)
        self._blocks = _np.empty(0, dtype=_np.int64)
        self._used = 0
        self._garbage = 0

    # ------------------------------------------------------------------
    # Interning
    # ------------------------------------------------------------------

    def _grow_slots(self, needed):
        size = max(needed, 2 * len(self._lens), self._GROW)
        self._keys = _grown(self._keys, size, 0)
        self._place = _grown(self._place, size, -1)
        self._starts = _grown(self._starts, size, 0)
        self._lens = _grown(self._lens, size, 0)

    def _intern(self, vertex):
        slot = self._slot.get(vertex)
        if slot is None:
            slot = len(self._slot)
            self._slot[vertex] = slot
            self._ids.append(vertex)
            if slot >= len(self._lens):
                self._grow_slots(slot + 1)
            self._keys[slot] = vertex_key(vertex)
        return slot

    # ------------------------------------------------------------------
    # Membership upkeep (mirrors the shard's dict state)
    # ------------------------------------------------------------------

    def admit(self, vertex, neighbours):
        """Upsert one resident's adjacency block."""
        slot = self._intern(vertex)
        self._garbage += int(self._lens[slot])
        degree = len(neighbours)
        if degree:
            end = self._used + degree
            if end > len(self._blocks):
                self._blocks = _grown(
                    self._blocks, max(end, 2 * len(self._blocks), self._GROW), 0
                )
            block = self._blocks[self._used : end]
            for i, w in enumerate(neighbours):
                block[i] = self._intern(w)
            self._starts[slot] = self._used
            self._used = end
        else:
            self._starts[slot] = 0
        self._lens[slot] = degree
        if self._garbage > max(self._used - self._garbage, self._GROW):
            self._compact()

    def evict(self, vertex):
        """Drop one resident's block (its interned slot remains valid)."""
        slot = self._slot.get(vertex)
        if slot is None:
            return
        self._garbage += int(self._lens[slot])
        self._lens[slot] = 0
        self._starts[slot] = 0

    def _compact(self):
        """Rewrite the block array with only live blocks (garbage drops)."""
        live = _np.flatnonzero(self._lens > 0)
        if not len(live):
            self._used = 0
            self._garbage = 0
            return
        nbr, row = _gather_explicit(
            self._blocks, self._starts[live], self._lens[live]
        )
        del row
        starts = _np.zeros(len(live), dtype=_np.int64)
        _np.cumsum(self._lens[live][:-1], out=starts[1:])
        self._blocks = nbr
        self._starts[live] = starts
        self._used = len(nbr)
        self._garbage = 0

    # ------------------------------------------------------------------
    # Placement upkeep (mirrors the coordinator's broadcast deltas)
    # ------------------------------------------------------------------

    def place(self, vertex, pid):
        """Mirror one placement (any vertex, resident or not)."""
        slot = self._intern(vertex)  # may grow (and replace) the arrays
        self._place[slot] = pid

    def place_many(self, items):
        """Bulk :meth:`place` — the start-of-run mirror seeding path.

        One interning pass (dict inserts are unavoidable), then the fresh
        slots' keys and every placement land as two vectorised stores — so
        seeding k mirrors over a large graph costs one tight loop per
        shard instead of per-vertex method dispatch.
        """
        slot_of = self._slot
        first_fresh = len(slot_of)
        slots = [slot_of.setdefault(v, len(slot_of)) for v, _ in items]
        if len(slot_of) > first_fresh:
            # dicts iterate in insertion order, which is slot order here
            fresh = list(islice(slot_of, first_fresh, None))
            self._ids.extend(fresh)
            if len(slot_of) > len(self._place):
                self._grow_slots(len(slot_of))
            self._keys[first_fresh : len(slot_of)] = _np.fromiter(
                map(vertex_key, fresh), dtype=_np.uint64, count=len(fresh)
            )
        self._place[slots] = _np.fromiter(
            (pid for _, pid in items), dtype=_np.int64, count=len(items)
        )

    def unplace(self, vertex):
        """Mirror one removal from the placement."""
        slot = self._slot.get(vertex)
        if slot is not None:
            self._place[slot] = -1

    # ------------------------------------------------------------------
    # The two readers
    # ------------------------------------------------------------------

    def _slots_of(self, vertex_ids):
        return _np.fromiter(
            map(self._slot.__getitem__, vertex_ids),
            dtype=_np.int64,
            count=len(vertex_ids),
        )

    def decisions(self, context, candidates):
        """Vectorised :func:`~repro.pregel.compute.decide_block`.

        Returns the same ``[(vertex, current, desired, willing), ...]``
        proposal list (movers only, candidate order) the portable path
        produces, bit for bit: same greedy rule, same tie-breaks, same
        keyed willingness draws.
        """
        if not candidates:
            return []
        slots = self._slots_of(candidates)
        place = self._place
        cur = place[slots]
        nbr, row = _gather_explicit(
            self._blocks, self._starts[slots], self._lens[slots]
        )
        desired, movers = _greedy_movers(
            cur, nbr, row, place, context.num_partitions
        )
        if not len(movers):
            return []
        source = WillingnessSource(context.lane)
        draws = source.draw_keys(context.round_index, self._keys[slots[movers]])
        willing = draws < context.willingness
        return [
            (candidates[i], int(cur[i]), int(desired[i]), bool(w))
            for i, w in zip(movers.tolist(), willing.tolist())
        ]

    def gather(self, row_ids):
        """``(degrees, indptr, targets, slot_ids)`` for ``row_ids``.

        The batched kernel's view of a computed row set: ``targets`` holds
        *block indices* — computed rows keep their position in
        ``row_ids``; every other neighbour gets an index ≥ ``len(row_ids)``
        into ``slot_ids``, which maps block indices back to vertex ids
        (rows first, then the extras).
        """
        n = len(row_ids)
        slots = self._slots_of(row_ids)
        degrees = self._lens[slots]
        entries, row = _gather_explicit(
            self._blocks, self._starts[slots], degrees
        )
        del row
        indptr = _np.zeros(n + 1, dtype=_np.int64)
        _np.cumsum(degrees, out=indptr[1:])
        block_of = _np.full(len(self._lens), -1, dtype=_np.int64)
        block_of[slots] = _np.arange(n, dtype=_np.int64)
        targets = block_of[entries]
        missing = targets < 0
        slot_ids = list(row_ids)
        if missing.any():
            extra_slots = _np.unique(entries[missing])
            block_of[extra_slots] = n + _np.arange(
                len(extra_slots), dtype=_np.int64
            )
            targets = block_of[entries]
            ids = self._ids
            slot_ids.extend(ids[s] for s in extra_slots.tolist())
        return degrees, indptr, targets, slot_ids


def _greedy_movers(cur, nbr, row, assignment, k):
    """The vectorised greedy rule over gathered neighbour blocks.

    One shared kernel for both sweepers — this stay/tie-break logic is
    exactly what the byte-identical golden-timeline contract pins, so it
    must never fork.  ``cur`` holds each candidate's partition (−1 =
    unassigned), ``(nbr, row)`` a gather of candidate neighbour slots, and
    ``assignment`` the slot-indexed partition array the gather refers to.
    Returns ``(desired, movers)``: every candidate's desired partition and
    the indices of candidates that want to move.  ``argmax`` returns the
    lowest partition id among ties — exactly the greedy rule's
    deterministic tie-break; unassigned candidates and neighbour-less
    candidates always stay.
    """
    n = len(cur)
    if len(nbr):
        nbr_pid = assignment[nbr]
        assigned = nbr_pid >= 0
        counts = _np.bincount(
            row[assigned] * k + nbr_pid[assigned], minlength=n * k
        ).reshape(n, k)
    else:
        counts = _np.zeros((n, k), dtype=_np.int64)
    best = counts.max(axis=1)
    best_pid = counts.argmax(axis=1)
    here = counts[_np.arange(n), _np.where(cur >= 0, cur, 0)]
    stay = (best == 0) | (here == best)
    desired = _np.where(stay, cur, best_pid)
    movers = _np.flatnonzero((cur >= 0) & (desired != cur))
    return desired, movers


def _grown(old, size, fill):
    """``old`` copied into a new ``size``-long array padded with ``fill``."""
    grown = _np.full(size, fill, dtype=old.dtype)
    grown[: len(old)] = old
    return grown


def _gather_explicit(blocks, starts, lens):
    """Gather explicit ``(start, len)`` blocks, concatenated.

    Returns ``(entries, row)`` exactly like
    :meth:`CompactSweeper._gather_blocks`: every queried block's entries
    back to back, plus the query index each entry belongs to.
    """
    total = int(lens.sum())
    if not total:
        empty = _np.empty(0, dtype=_np.int64)
        return empty, empty
    n = len(starts)
    cum = _np.zeros(n, dtype=_np.int64)
    _np.cumsum(lens[:-1], out=cum[1:])
    pos = (
        _np.arange(total, dtype=_np.int64)
        - _np.repeat(cum, lens)
        + _np.repeat(starts, lens)
    )
    row = _np.repeat(_np.arange(n, dtype=_np.int64), lens)
    return blocks[pos], row
