"""The compute loop shared by both execution engines, and its batched twin.

:func:`compute_block` is the paper's *compute phase* over one block of
vertices — the scalar reference loop — written as a pure function of a
**host**, the object that owns the block's state:
:class:`~repro.pregel.system.PregelSystem` over the whole vertex set (the
single-process oracle), or a dict :class:`~repro.cluster.shard.Shard`
over its residents.  Every effect flows through the host, so a block's
outcome is a pure function of (host state, inbox, superstep) — what
bit-identical results across executors rest on.

:func:`batched_block` is the same phase over a shard's array store: when
the program batches (and numpy is present) the store's resident rows run
through ``program.compute_batch`` as slot-indexed columns, bit for bit
the scalar loop.  A block the kernel cannot reproduce exactly declines
with nothing committed, and the shard demotes to the scalar loop.

:func:`decide_block` is the matching *decision step* of the paper's
background partitioner: the heuristic plus the keyed willingness coin over
one block of candidates against a frozen
:class:`~repro.core.heuristic.DecisionContext`, so the union of the
blocks' proposals does not depend on how the blocks are split.

The host contract (both functions), the array-store host's members, the
columnar message shapes, records and the ``-0.0`` / NaN caveat are
written out in ``docs/architecture.md`` ("The compute host contract").
"""

from itertools import chain as _chain

from repro.core.sweep import record_shape, value_column
from repro.pregel.messages import (
    COLUMN_DTYPES,
    MessageColumns,
    as_objects,
    min_combiner,
    record_sum_combiner,
    sum_by_group,
    sum_combiner,
)
from repro.pregel.vertex import BlockContext, VertexContext
from repro.utils.rng import WillingnessSource

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is optional
    _np = None

__all__ = [
    "batched_block",
    "compute_block",
    "decide_block",
    "kernel_dtype",
]


def kernel_dtype(program):
    """The dtype ``program``'s blocks batch in, or None when none can.

    A pure function of the program: it declares ``compute_batch``, numpy
    is importable, the combiner is one the canonical reductions reproduce
    — ``sum`` / ``min`` over scalar messages, the record sum over record
    messages, or none — and ``batch_dtype`` is a float or int dtype (sums
    and records need floats: the ``bincount`` reduction accumulates in
    float64).
    """
    if program.compute_batch is None or _np is None:
        return None
    combiner = program.combiner()
    records = program.message_width > 1
    foldable = (record_sum_combiner,) if records else (sum_combiner, min_combiner)
    if combiner is not None and combiner not in foldable:
        return None
    try:
        dtype = _np.dtype(program.batch_dtype)
    except TypeError:
        return None
    floats_only = combiner is sum_combiner or records or program.value_width > 1
    if dtype.kind not in "fi" or (floats_only and dtype.kind != "f"):
        return None
    return dtype


def compute_block(host, vertex_ids, inbox, superstep):
    """Run the host's program over ``vertex_ids`` against ``inbox``.

    ``inbox`` maps vertex id → message list (absent = no mail), or is a
    folded :class:`~repro.pregel.messages.MessageColumns`.  Halted
    vertices without mail are skipped unless the host is ``continuous``;
    mail wakes a halted vertex.  ``host.note_cost`` is called exactly once
    per computed vertex.  Returns the number of vertices computed.
    """
    program = host.program
    if isinstance(inbox, MessageColumns):
        inbox = inbox.mailboxes()  # the scalar loop reads the dict plane
    continuous = host.continuous
    halted = host.halted
    computed = 0
    for v in vertex_ids:
        messages = inbox.get(v, ())
        if not continuous and v in halted and not messages:
            continue
        if messages:
            halted.discard(v)
        ctx = VertexContext(host, v, superstep)
        program.compute(ctx, list(messages))
        host.note_cost(v, program.compute_cost(ctx, messages))
        computed += 1
    return computed


def batched_block(host, inbox, superstep):
    """Run the host's array store through the kernel; returns the computed
    count, or — a string — why it declined.

    ``host`` is a shard whose ``store`` (a
    :class:`~repro.core.sweep.LocalCsr`) holds every resident's id, value,
    halt vote and adjacency; the block is its resident rows.  Declining
    mutates nothing (packing is read-only and the outbox reduction happens
    before any commit), so the caller demotes and runs the scalar loop
    instead.  The reason is what the demoting store reports:
    ``"inbox-dtype"`` when packing declined (the store's values are the
    kernel's own column, so only its inbox can misfit), else
    ``"kernel-declined"``.
    """
    program = host.program
    store = host.store
    dtype = store.values.dtype
    packed = _pack_store_block(host, store, inbox, superstep, dtype)
    if packed is None:
        return "inbox-dtype"
    if packed == 0:
        return 0
    block, ids, rows = packed
    n = len(rows)
    result = program.compute_batch(block)
    if result is None:
        return "kernel-declined"  # a shape the kernel cannot reproduce
    values = result.values
    if values.dtype != dtype or values.shape != record_shape(
        n, program.value_width
    ):
        return "kernel-declined"  # only its dtype can live in the column
    out = None
    if result.out is not None:
        out = _reduce_outbox(ids, result.out, program.combiner())
    # ---- commit: from here on, mirror the scalar loop's effects ----
    mailed = _np.flatnonzero(block.msg_counts)  # mail wakes a halted row
    halt = result.halt
    if halt is True:
        voters = _np.arange(n)
    else:
        voters = mailed[:0] if halt is False else _np.flatnonzero(halt)
    store.values[rows] = values
    store.halted[rows[mailed]] = False
    store.halted[rows[voters]] = True
    if out is not None:
        host.router.absorb_columns(*out)
    costs = result.costs
    if costs is None:
        costs = 1.0 + block.msg_counts
    host.note_batched_block(MessageColumns(ids[:n], values), costs)
    return n


def _pack_store_block(host, store, inbox, superstep, dtype):
    """Build the read-only ``(block, ids, rows)``, or None to decline
    (an inbox not exactly the kernel dtype and message width: a lossy
    cast would leak into digests) and 0 when no row computes.

    Every column is one fancy index of the store's (ids, values,
    adjacency blocks), nothing is rebuilt from Python objects.  Rows are
    the store's residents in admission order, minus — unless the host is
    ``continuous`` — the halted ones without mail: the scalar loop's skip
    rule as a mask.  ``ids`` is the block's int64 id column — rows first,
    then every non-computed neighbour."""
    columnar = isinstance(inbox, MessageColumns)
    width = host.program.message_width
    if columnar and not _fits(inbox.payloads, dtype, width):
        return None
    rows = store.rows()
    if not host.continuous:
        awake = ~store.halted[rows]
        if len(inbox):
            mailed = store.slots_of(inbox.targets if columnar else list(inbox))
            has_mail = _np.zeros(store.count, dtype=bool)  # after interning
            has_mail[mailed] = True
            awake |= has_mail[rows]
        rows = rows[awake]
    n = len(rows)
    if not n:
        return 0
    degrees, indptr, targets, block_slots = store.gather(rows)
    ids = store.ids[block_slots]
    row_ids = ids[:n]
    if columnar:
        packed = _scatter_columns(inbox, row_ids)
    else:
        packed = _pack_mailboxes(row_ids.tolist(), inbox, dtype, width)
        if packed is None:
            return None
    counts, msg_rows, msg_values = packed
    block = BlockContext(
        superstep=superstep,
        num_vertices=host.graph.num_vertices,
        values=store.values[rows],
        ids=row_ids,
        degrees=degrees,
        indptr=indptr,
        targets=targets,
        msg_values=msg_values,
        msg_row=msg_rows,
        msg_counts=counts,
    )
    return block, ids, rows


def _fits(column, dtype, width):
    """True when ``column`` has exactly the kernel dtype and record width."""
    return column.dtype == dtype and column.shape == record_shape(len(column), width)


def _scatter_columns(inbox, row_ids):
    """A folded columnar inbox → ``(counts, msg_rows, msg_values)``.

    ``row_ids`` is the block's row-id column.  Each inbox row finds its
    block row by binary search in the sorted row ids (targets that are not
    rows this superstep carry no mail for this block, exactly as the dict
    path's per-row ``inbox.get`` never sees them); messages come out
    grouped by ascending row like the dict path's.
    """
    n = len(row_ids)
    order = _np.argsort(row_ids, kind="stable")
    sorted_ids = row_ids[order]
    at = _np.searchsorted(sorted_ids, inbox.targets)
    at[at == n] = 0
    hit = sorted_ids[at] == inbox.targets
    if not hit.all():
        inbox = inbox.take(hit)
        at = at[hit]
    rows = order[at]
    by_row = _np.argsort(rows)
    counts = _np.zeros(n, dtype=_np.int64)
    counts[rows] = 1 if inbox.counts is None else inbox.counts
    return counts, rows[by_row], inbox.payloads[by_row]


def _pack_mailboxes(row_ids, inbox, dtype, width):
    """A dict inbox → ``(counts, msg_rows, msg_values)``, or None
    when a message is not exactly the kernel's Python scalar type (or
    ``width``-tuple of it; ``msg_values`` is then ``(m, width)``)."""
    n = len(row_ids)
    inbox_get = inbox.get
    boxes = list(map(inbox_get, row_ids))
    if all(boxes):
        # Steady-state fast path (every row has mail — e.g. PageRank past
        # superstep 1): no Python-level loop at all.  ``len`` reports the
        # logical (pre-combining) count, ``list.__len__`` the physical one
        # (a ``CombinedMessages`` mailbox differs in the two).
        counts = _np.fromiter(map(len, boxes), dtype=_np.int64, count=n)
        phys = _np.fromiter(map(list.__len__, boxes), dtype=_np.int64, count=n)
        msg_vals = list(_chain.from_iterable(boxes))
        msg_rows = _np.repeat(_np.arange(n, dtype=_np.int64), phys)
    else:
        counts_list = []
        msg_vals = []
        mailed_rows = []
        phys = []
        extend_vals = msg_vals.extend
        for i, msgs in enumerate(boxes):
            if not msgs:
                counts_list.append(0)
                continue
            mailed_rows.append(i)
            counts_list.append(len(msgs))  # logical (CombinedMessages) count
            before = len(msg_vals)
            extend_vals(msgs)  # iteration sees the physical (folded) entries
            phys.append(len(msg_vals) - before)
        counts = _np.fromiter(counts_list, dtype=_np.int64, count=n)
        msg_rows = _np.repeat(
            _np.fromiter(mailed_rows, dtype=_np.int64, count=len(mailed_rows)),
            _np.fromiter(phys, dtype=_np.int64, count=len(phys)),
        )
    msg_values = value_column(msg_vals, dtype, width)
    if msg_values is None:
        return None
    return counts, msg_rows, msg_values


def _reduce_outbox(ids, out, combiner):
    """Reduce kernel outbox columns to router-ready unique-target columns.

    Every row of a store's block lives on its shard, so all messages share
    one source worker and a key is just the target's block slot.  Folds
    duplicate targets with the program's combiner in the emission order
    the arrays carry — which the block context built to match the scalar
    loop's send order — and returns the targets in first-send order, so
    the shard's outbox ends byte-equal with the scalar path's.  Returns
    ``(targets, payloads)``: numpy columns when a combiner's fold kept a
    :data:`~repro.pregel.messages.COLUMN_DTYPES` dtype, lists of Python
    objects otherwise (per-target message lists without a combiner).
    """
    _, slots, payloads = out
    if not len(slots):
        return [], []
    slots, payloads = _np.asarray(slots), _np.asarray(payloads)
    # Dense-code reduction: the key space is the block's slots, small
    # enough to scatter into directly — O(E) bincounts instead of an
    # O(E log E) unique over every emitted message.  The reversed scatter
    # leaves each key's *first* emission index, giving first-send order.
    size = int(slots.max()) + 1
    occupied = _np.flatnonzero(_np.bincount(slots, minlength=size))
    first = _np.empty(size, dtype=_np.int64)
    first[slots[::-1]] = _np.arange(len(slots) - 1, -1, -1)
    order = _np.argsort(first[occupied])  # first-send order, distinct keys
    keys = occupied[order]
    if combiner is None:  # per-key message lists, emission order within key
        by_key = _np.argsort(slots, kind="stable")
        splits = _np.searchsorted(slots[by_key], occupied[1:])
        groups = list(map(as_objects, _np.split(payloads[by_key], splits)))
        return ids[keys].tolist(), [groups[i] for i in order.tolist()]
    if combiner is min_combiner:
        by_key = _np.argsort(slots, kind="stable")
        bounds = _np.searchsorted(slots[by_key], occupied)
        reduced = _np.minimum.reduceat(payloads[by_key], bounds)[order]
    else:
        # A sum (scalar or per record component): per-key accumulation in
        # emission order from +0.0, the same addition sequence the scalar
        # combiner fold performs.
        reduced = sum_by_group(slots, payloads, size)[keys]
    if reduced.dtype.name in COLUMN_DTYPES:
        return ids[keys], reduced
    return ids[keys].tolist(), as_objects(reduced)


def decide_block(host, context, candidates):
    """Run the decision step over ``candidates``; returns the proposals.

    For each assigned candidate the heuristic picks a desired partition
    from the neighbour histogram (read through ``host.placement_of``, so a
    shard answers from its placement mirror and the reference system from
    the authoritative state) and movers flip the keyed willingness coin.
    Returns ``[(vertex, current, desired, willing), ...]`` in candidate
    order — only movers, since settled vertices are no-ops to arbitration.
    """
    placement_of = host.placement_of
    neighbors = host.graph.neighbors
    source = WillingnessSource(context.lane)
    round_index = context.round_index
    s = context.willingness

    def histograms():
        """Yield (vertex, current, neighbour-partition counts) per candidate."""
        for v in candidates:
            current = placement_of(v)
            if current is None:
                continue
            counts = {}
            for w in neighbors(v):
                pid = placement_of(w)
                if pid is not None:
                    counts[pid] = counts.get(pid, 0) + 1
            yield v, current, counts

    return [
        (v, current, desired, source.willing(round_index, v, s))
        for v, current, desired in host.heuristic.desired_partitions(
            context, histograms()
        )
        if desired != current
    ]
