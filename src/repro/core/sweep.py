"""Array-backed batch evaluation of the greedy migration rule.

The per-vertex hot path of :class:`~repro.core.runner.AdaptiveRunner` (and
the Pregel background partitioner) is: read the vertex's neighbour-partition
histogram, apply the heuristic, then gate the move on willingness and quota.
Read from the adjacency sets, that allocates a fresh dict per vertex per
round; :class:`CompactSweeper` replaces it with one vectorised pass over the
graph's CSR mirror (:meth:`~repro.graph.graph.Graph.ensure_csr`):

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
per-vertex path does.  Timelines are bit-for-bit identical to that path —
the portable-vs-sweep equivalence suite pins this.

The sweeper engages only for the exact paper heuristic
(:class:`~repro.core.heuristic.GreedyMaxNeighbours`) with numpy present;
every other combination uses :func:`generic_decisions`, the portable
per-vertex path.

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
shard interns every id exactly once — and when the shard's program
batches, the same slots carry its value, halt-vote and row-order columns
too: the ``LocalCsr`` is then the shard's *only* state (the array store
of :mod:`repro.cluster.shard`), fed in bulk by ``admit_many`` /
``evict_many`` / ``place_many`` and read by slot.
"""

from itertools import chain, islice

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
    "record_shape",
    "sort_vertices",
    "value_column",
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

    The portable decision path: works for any heuristic, numpy or not.
    """
    for v in candidates:
        current = state.partition_of_or_none(v)
        if current is None:
            continue
        counts = state.neighbour_partition_counts(v)
        yield v, current, heuristic.desired_partition(current, counts, remaining)


def make_sweeper(graph, state, heuristic):
    """A :class:`CompactSweeper` when the fast path applies, else None."""
    if CompactSweeper.supports(heuristic):
        return CompactSweeper(graph, state)
    return None


class CompactSweeper:
    """Batch greedy decisions over a graph's CSR mirror + partition state.

    Holds no arrays of its own: every pass takes transient numpy views of
    the graph's CSR mirror and id table and of the state's partition
    column, and drops them before returning (see the view-lifetime rule
    in ``docs/architecture.md``).
    """

    @staticmethod
    def supports(heuristic):
        """True when the vectorised path can replace the per-vertex one."""
        # Exact type: a subclass could override the decision rule.
        return _np is not None and type(heuristic) is GreedyMaxNeighbours

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


def id_column(ids):
    """``ids`` as an int64 column, or None unless every id is an exact
    ``int`` that fits (labels, bools and bigints stay Python objects)."""
    if _np is None or set(map(type, ids)) - {int}:
        return None
    try:
        return _np.array(ids, dtype=_np.int64)
    except OverflowError:
        return None


def record_shape(rows, width):
    """Shape of a ``rows``-long value or payload column: 1-d for scalars
    (``width`` 1), ``(rows, width)`` for fixed-width records."""
    return (rows,) if width == 1 else (rows, width)


def value_column(items, dtype, width=1):
    """``items`` as a ``dtype`` column of :func:`record_shape`, or None
    unless every item is exactly the Python scalar the dtype round-trips
    losslessly (``float`` / non-bool ``int``) — for ``width`` > 1, a
    tuple of exactly ``width`` of them.  Anything else (labels, mixed
    int/float, ints beyond int64) would leak a lossy cast into digests."""
    flat = items
    if width > 1:
        if set(map(type, items)) - {tuple} or set(map(len, items)) - {width}:
            return None
        flat = list(chain.from_iterable(items))
    if set(map(type, flat)) - {float if dtype.kind == "f" else int}:
        return None
    try:
        column = _np.array(flat, dtype=dtype)
    except (OverflowError, ValueError):
        return None
    return column.reshape(record_shape(len(items), width))


def make_shard_index(heuristic, dtype=None, width=1):
    """One shard's :class:`LocalCsr`, or None when nothing would read it.

    Both readers need numpy: the decision pass, under the same gate as
    :func:`make_sweeper` — the *exact* paper heuristic (a subclass could
    override the rule; anything else decides through the portable
    :func:`~repro.pregel.compute.decide_block`, which reads dict state) —
    and the batched vertex kernel, whose value column has ``dtype`` and
    ``width`` components per row (None: the program has no kernel to run).
    """
    greedy = type(heuristic) is GreedyMaxNeighbours
    if _np is None or not (greedy or (heuristic is None and dtype is not None)):
        return None
    return LocalCsr(greedy, dtype, width)


class LocalCsr:
    """The slot-indexed arrays of one shard: its index, or its whole state.

    Ids are interned into dense local slots on first sight (residents,
    their neighbours, and every vertex the placement mirror names).  Every
    column is indexed by slot:

    ==============  ====================================================
    ``ids``          slot → vertex id (int64; ``object`` once a label
                     id arrived)
    ``_keys``        the id's willingness key
    ``_place``       the *global* placement mirror (−1 = unplaced)
    ``_starts`` /    the resident's adjacency block in ``_blocks`` —
    ``_lens``        append-only, compacted when garbage from re-admissions
                     and evictions exceeds the live volume, so a patch
                     costs O(degree of the patched vertices)
    ``_seq``         admission stamp (−1 = not resident): :meth:`rows` is
                     the residents by ascending stamp — compute order is
                     admission order, never slot order
    ``halted``       the resident's halt vote
    ``values``       the resident's value, in the kernel dtype — one row
                     of an ``(n, c)`` column when values are ``c``-wide
                     records (None when the shard keeps values in a dict)
    ==============  ====================================================

    Id → slot is one gather through a dense table while ids are modest
    non-negative ints (the :meth:`Graph.id_table
    <repro.graph.graph.Graph.id_table>` regime); the first id
    outside it retires the table for a dict, for good.

    Everything is fed in bulk — :meth:`admit_many` / :meth:`evict_many` /
    :meth:`place_many`, one call per patch — and read by slot:
    :meth:`decisions` (``decides`` says whether the shard's heuristic is
    the rule it implements) and :meth:`gather`, the batched vertex
    kernel's topology.  A shard whose program batches keeps *no* other
    state (``values`` is allocated); a dict shard feeds the same calls
    from its patches and reads only :meth:`decisions`.
    """

    _GROW = 1024
    # The table lives while ids stay below this multiple of the interned
    # count: 8 bytes per possible id, so never more than the dict costs.
    _TABLE_SPREAD = 16

    def __init__(self, decides, dtype=None, width=1):
        self.decides = decides
        self.count = 0      # interned slots
        self.residents = 0
        self.ids = _np.empty(0, dtype=_np.int64)
        self._table = _np.empty(0, dtype=_np.int64)  # dense id -> slot
        self._slot = None   # the dict that replaces a retired table
        self._keys = _np.empty(0, dtype=_np.uint64)
        self._place = _np.empty(0, dtype=_np.int64)
        self._starts = _np.empty(0, dtype=_np.int64)
        self._lens = _np.empty(0, dtype=_np.int64)
        self._seq = _np.empty(0, dtype=_np.int64)
        self._stamp = 0
        self._rows = None   # cached rows(); dropped when membership moves
        self.halted = _np.empty(0, dtype=bool)
        self.values = (
            None if dtype is None
            else _np.empty(record_shape(0, width), dtype=dtype)
        )
        self._blocks = _np.empty(0, dtype=_np.int64)
        self._used = 0
        self._garbage = 0

    # ------------------------------------------------------------------
    # Interning
    # ------------------------------------------------------------------

    def _grow_slots(self, needed):
        size = max(needed, 2 * len(self._lens), self._GROW)
        self.ids = _grown(self.ids, size, 0)
        self._keys = _grown(self._keys, size, 0)
        self._place = _grown(self._place, size, -1)
        self._starts = _grown(self._starts, size, 0)
        self._lens = _grown(self._lens, size, 0)
        self._seq = _grown(self._seq, size, -1)
        self.halted = _grown(self.halted, size, False)
        if self.values is not None:
            self.values = _grown(self.values, size, 0)

    def _append(self, fresh, keys):
        """Give the never-seen ids ``fresh`` the next slots."""
        end = self.count + len(fresh)
        if end > len(self._lens):
            self._grow_slots(end)
        self.ids[self.count : end] = fresh
        self._keys[self.count : end] = keys
        self.count = end

    def slots_of(self, ids):
        """Slots of ``ids``, interning every id not seen before.

        ``ids`` is an int64 column, or a list of arbitrary ids (a dict
        shard's; packed into a column when every id allows it).
        """
        if isinstance(ids, list):
            column = id_column(ids)
            if column is not None:
                ids = column
        if not len(ids):
            return _np.empty(0, dtype=_np.int64)
        table = self._table
        if table is not None:
            dense = not isinstance(ids, list) and int(ids.min()) >= 0
            top = int(ids.max()) if dense else 0
            if dense and top < max(
                len(table), self._TABLE_SPREAD * (self.count + len(ids)) + 1024
            ):
                if top >= len(table):
                    table = _grown(table, max(top + 1, 2 * len(table)), -1)
                    self._table = table
                slots = table[ids]
                fresh = ids[slots < 0]
                if len(fresh):
                    fresh = _np.unique(fresh)
                    table[fresh] = _np.arange(
                        self.count, self.count + len(fresh), dtype=_np.int64
                    )
                    self._append(fresh, fresh.astype(_np.uint64))
                    slots = table[ids]
                return slots
            # A label, negative or sparse id: the dict takes over, for good.
            self._slot = dict(
                zip(self.ids[: self.count].tolist(), range(self.count))
            )
            self._table = None
        slot_of = self._slot
        known = len(slot_of)
        if isinstance(ids, list):
            if self.ids.dtype != object:
                self.ids = self.ids.astype(object)
        else:
            ids = ids.tolist()
        slots = _np.fromiter(
            (slot_of.setdefault(v, len(slot_of)) for v in ids),
            dtype=_np.int64,
            count=len(ids),
        )
        if len(slot_of) > known:
            # dicts iterate in insertion order, which is slot order here
            fresh = list(islice(slot_of, known, None))
            self._append(
                _np.fromiter(fresh, dtype=self.ids.dtype, count=len(fresh)),
                _np.fromiter(
                    map(vertex_key, fresh), dtype=_np.uint64, count=len(fresh)
                ),
            )
        return slots

    # ------------------------------------------------------------------
    # Membership and placement upkeep (one call of each per patch)
    # ------------------------------------------------------------------

    def admit_many(self, ids, degrees, neighbours, values=None, halted=None):
        """Upsert residents (distinct ``ids``) with their adjacency blocks.

        ``neighbours`` holds every row's neighbour ids back to back,
        ``degrees`` the row lengths.  A resident keeps its admission stamp
        (and so its compute row); a new or re-admitted one goes last.
        ``values`` / ``halted`` are stored only while a value column is.
        """
        degrees = _np.asarray(degrees, dtype=_np.int64)
        slots = self.slots_of(ids)
        entries = self.slots_of(neighbours)  # interning may regrow columns
        self._garbage += int(self._lens[slots].sum())
        end = self._used + len(entries)
        if end > len(self._blocks):
            self._blocks = _grown(
                self._blocks, max(end, 2 * len(self._blocks), self._GROW), 0
            )
        self._blocks[self._used : end] = entries
        self._starts[slots] = self._used + _np.cumsum(degrees) - degrees
        self._lens[slots] = degrees
        self._used = end
        fresh = slots[self._seq[slots] < 0]
        if len(fresh):
            self._seq[fresh] = self._stamp + _np.arange(len(fresh))
            self._stamp += len(fresh)
            self.residents += len(fresh)
            self._rows = None
        if self.values is not None:
            self.values[slots] = values
            self.halted[slots] = halted
        if self._garbage > max(self._used - self._garbage, self._GROW):
            self._compact()

    def evict_many(self, ids):
        """Drop residents' blocks, values and rows (slots stay interned)."""
        slots = _np.unique(self.slots_of(ids))
        slots = slots[self._seq[slots] >= 0]
        if not len(slots):
            return
        self._garbage += int(self._lens[slots].sum())
        self._lens[slots] = 0
        self._starts[slots] = 0
        self._seq[slots] = -1
        self.halted[slots] = False
        self.residents -= len(slots)
        self._rows = None

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

    def place_many(self, ids, pids):
        """Fold placements (any vertex, resident or not; −1 = removed).

        The barrier's broadcast delta is ordered: a later entry for one
        vertex wins, so the fancy store sees each slot's last entry only.
        """
        slots = self.slots_of(ids)
        _, last = _np.unique(slots[::-1], return_index=True)
        last = len(slots) - 1 - last
        self._place[slots[last]] = _np.asarray(pids, dtype=_np.int64)[last]

    # ------------------------------------------------------------------
    # Readers (by slot)
    # ------------------------------------------------------------------

    def rows(self):
        """Resident slots in admission order — the shard's compute order."""
        if self._rows is None:
            resident = _np.flatnonzero(self._seq[: self.count] >= 0)
            self._rows = resident[_np.argsort(self._seq[resident])]
        return self._rows

    def mirror(self):
        """The placement mirror as ``(ids, pids)`` columns: placed vertices
        only, ascending by id (slot order is an accident of history)."""
        placed = _np.flatnonzero(self._place[: self.count] >= 0)
        placed = placed[_np.argsort(self.ids[placed])]
        return self.ids[placed], self._place[placed]

    def adjacency(self, slots):
        """``(degrees, neighbour ids back to back)`` of resident ``slots``."""
        degrees = self._lens[slots]
        entries, row = _gather_explicit(
            self._blocks, self._starts[slots], degrees
        )
        del row
        return degrees, self.ids[entries]

    def decisions(self, context, slots):
        """Vectorised :func:`~repro.pregel.compute.decide_block`.

        Returns the same ``[(vertex, current, desired, willing), ...]``
        proposal list (movers only, in the order of the candidate
        ``slots``) the portable path produces, bit for bit: same greedy
        rule, same tie-breaks, same keyed willingness draws.
        """
        if not len(slots):
            return []
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
        moving = slots[movers]
        source = WillingnessSource(context.lane)
        draws = source.draw_keys(context.round_index, self._keys[moving])
        return list(zip(
            self.ids[moving].tolist(),
            cur[movers].tolist(),
            desired[movers].tolist(),
            (draws < context.willingness).tolist(),
        ))

    def gather(self, rows):
        """``(degrees, indptr, targets, block_slots)`` for row ``slots``.

        The batched kernel's view of a computed row set: ``targets`` holds
        *block indices* — computed rows keep their position in ``rows``;
        every other neighbour gets an index ≥ ``len(rows)`` into
        ``block_slots``, which maps block indices back to slots (rows
        first, then the extras).
        """
        n = len(rows)
        degrees = self._lens[rows]
        entries, row = _gather_explicit(
            self._blocks, self._starts[rows], degrees
        )
        del row
        indptr = _np.zeros(n + 1, dtype=_np.int64)
        _np.cumsum(degrees, out=indptr[1:])
        block_of = _np.full(self.count, -1, dtype=_np.int64)
        block_of[rows] = _np.arange(n, dtype=_np.int64)
        targets = block_of[entries]
        missing = targets < 0
        if missing.any():
            outside = _np.zeros(self.count, dtype=bool)
            outside[entries[missing]] = True
            extras = _np.flatnonzero(outside)  # distinct, ascending slots
            block_of[extras] = n + _np.arange(len(extras), dtype=_np.int64)
            targets = block_of[entries]
            rows = _np.concatenate((rows, extras))
        return degrees, indptr, targets, rows


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
    """``old`` copied into a new ``size``-row array padded with ``fill``."""
    grown = _np.full((size, *old.shape[1:]), fill, dtype=old.dtype)
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
