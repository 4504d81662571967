"""The shard-callable compute loop shared by both execution engines.

:func:`compute_block` is the paper's *compute phase* over one block of
vertices, written as a pure function of a **host** — the object that owns
the block's state: :class:`~repro.pregel.system.PregelSystem` over the
whole vertex set (the single-process reference loop), or a
:class:`~repro.cluster.shard.Shard` over its residents.  Every effect flows
through the host, so a block's outcome is a pure function of (host state,
inbox, superstep) — what bit-identical results across executors rest on.
When the program batches (and numpy is present and
``REPRO_BATCH_KERNEL`` allows it) the block runs through
``program.compute_batch`` on slot-indexed columns, bit for bit the scalar
loop, which any block the packing cannot express exactly falls back to.

:func:`decide_block` is the matching *decision step* of the paper's
background partitioner: the heuristic plus the keyed willingness coin over
one block of candidates against a frozen
:class:`~repro.core.heuristic.DecisionContext`, so the union of the
blocks' proposals does not depend on how the blocks are split.

The host contract (both functions), the batching hosts' optional members,
the array-store regime, the columnar message shapes, records and the
``-0.0`` / NaN caveat are written out in ``docs/architecture.md``
("The compute host contract").
"""

import os
from itertools import chain as _chain

from repro.core.sweep import id_column, record_shape, value_column
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
    "batch_kernel_enabled",
    "batched_block",
    "compute_block",
    "decide_block",
    "kernel_dtype",
]


def batch_kernel_enabled():
    """True unless ``REPRO_BATCH_KERNEL`` disables the batched path.

    Read per compute call (not cached) so test suites and the CI matrix
    leg can flip the gate between runs of one process.  Any of ``off``,
    ``0``, ``false`` or ``no`` (case-insensitive) disables; everything
    else — including unset — leaves the kernel on.
    """
    value = os.environ.get("REPRO_BATCH_KERNEL", "")
    return value.strip().lower() not in {"off", "0", "false", "no"}


def kernel_dtype(program):
    """The dtype ``program``'s blocks batch in, or None when none can.

    The static half of the batched path's gate — what holds for a whole
    run unless ``REPRO_BATCH_KERNEL`` flips: the program declares
    ``compute_batch``, numpy is importable, the kernel is enabled, the
    combiner is one the canonical reductions reproduce — ``sum`` / ``min``
    over scalar messages, the record sum over record messages, or none —
    and ``batch_dtype`` is a float or int dtype (sums and records need
    floats: the ``bincount`` reduction accumulates in float64).
    """
    if (
        program.compute_batch is None
        or _np is None
        or not batch_kernel_enabled()
    ):
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

    Programs that declare ``compute_batch`` take the batched kernel path
    when it applies (see the module docstring); the scalar loop below is
    the reference semantics and the universal fallback.
    """
    computed = batched_block(host, vertex_ids, inbox, superstep)
    if not isinstance(computed, str):
        return computed
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


def batched_block(host, vertex_ids, inbox, superstep):
    """Attempt the batched path; returns the computed count, or — a
    string — why it declined.

    Declining mutates nothing (packing is read-only and the outbox
    reduction happens before any commit), so the caller runs the scalar
    loop instead.  The reason is what a demoting store reports:
    ``"inbox-dtype"`` when packing declined (a store's values are the
    kernel's own column, so only its inbox can misfit), else
    ``"kernel-declined"``.  A host with an array ``store`` computes the
    store's resident rows and ``vertex_ids`` is not read.
    """
    program = host.program
    dtype = kernel_dtype(program)
    batch_workers = getattr(host, "batch_workers", None)
    note_costs = getattr(host, "note_costs", None)
    if dtype is None or batch_workers is None or note_costs is None:
        return "kernel-declined"
    combiner = program.combiner()
    store = getattr(host, "store", None)
    if store is not None:
        packed = _pack_store_block(host, store, inbox, superstep, dtype)
    else:
        packed = _pack_block(host, vertex_ids, inbox, superstep, dtype)
    if packed is None:
        return "inbox-dtype"
    if packed == 0:
        return 0
    block, row_ids, slot_ids, ids, rows = packed
    n = len(row_ids)
    result = program.compute_batch(block)
    if result is None:
        return "kernel-declined"  # a shape the kernel cannot reproduce
    values = result.values
    columnar = (
        ids is not None
        and values.dtype == dtype
        and values.shape == record_shape(n, program.value_width)
    )
    if store is not None and not columnar:
        return "kernel-declined"  # only its dtype can live in the column
    out = None
    if result.out is not None:
        out = _reduce_outbox(
            host, row_ids, slot_ids, result.out, combiner,
            ids if combiner is not None else None,
        )
        if out is None:
            return "kernel-declined"
    # ---- commit: from here on, mirror the scalar loop's effects ----
    mailed = _np.flatnonzero(block.msg_counts)  # mail wakes a halted row
    halt = result.halt
    if halt is True:
        voters = _np.arange(n)
    else:
        voters = mailed[:0] if halt is False else _np.flatnonzero(halt)
    if store is not None:
        store.values[rows] = values
        store.halted[rows[mailed]] = False
        store.halted[rows[voters]] = True
    else:
        host.values.update(zip(row_ids, as_objects(values)))
        halted = host.halted
        halted.difference_update(map(row_ids.__getitem__, mailed.tolist()))
        halted.update(map(row_ids.__getitem__, voters.tolist()))
    if out is not None:
        host.router.absorb_columns(*out)
    costs = result.costs
    if costs is None:
        costs = 1.0 + block.msg_counts
    note_costs(row_ids, costs)
    note_batched = getattr(host, "note_batched_block", None)
    if note_batched is not None:
        note_batched(MessageColumns(ids[:n], values) if columnar else None)
    return n


def _pack_store_block(host, store, inbox, superstep, dtype):
    """:func:`_pack_block` over an array store: every column is one
    fancy index of the store's (ids, values, adjacency blocks), nothing is
    rebuilt from Python objects.  Rows are the store's residents in
    admission order, minus — unless the host is ``continuous`` — the
    halted ones without mail: the scalar loop's skip rule as a mask."""
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
    return block, row_ids, ids, ids, rows


def _pack_block(host, vertex_ids, inbox, superstep, dtype):
    """Build the read-only ``(block, row_ids, slot_ids, ids, None)``.

    Returns None to decline and 0 when no row computes.  ``row_ids`` are
    the computed vertices — exactly the scalar loop's skip rule, in its
    order; ``ids`` is the block's vertex ids (``slot_ids``: rows first,
    then every non-computed neighbour) as one int64 column — what lets
    messages and values leave as columns — or None, which keeps this
    block on the dict shapes.

    Strict about types (:func:`~repro.core.sweep.value_column`): every
    value and message must be exactly the Python scalar — or tuple of the
    declared width of them — the kernel dtype round-trips losslessly, and
    a columnar inbox exactly the kernel dtype and message width; anything
    else declines, because a lossy cast would leak into digests.
    """
    columnar = isinstance(inbox, MessageColumns)
    if host.continuous:
        row_ids = list(vertex_ids)
    else:
        halted = host.halted
        if columnar:
            has_mail = set(inbox.targets.tolist()).__contains__
        else:
            has_mail = inbox.get
        row_ids = [v for v in vertex_ids if v not in halted or has_mail(v)]
    if not row_ids:
        return 0
    program = host.program
    width = program.message_width
    raw = list(map(host.values.__getitem__, row_ids))
    values = value_column(raw, dtype, program.value_width)
    if values is None:
        return None
    if columnar:
        if not _fits(inbox.payloads, dtype, width):
            return None
    else:
        packed = _pack_mailboxes(row_ids, inbox, dtype, width)
        if packed is None:
            return None
    topology = _block_topology(host, row_ids)
    if topology is None:
        return None
    degrees, indptr, targets, slot_ids = topology
    ids = id_column(slot_ids) if dtype.name in COLUMN_DTYPES else None
    if columnar and ids is not None:
        packed = _scatter_columns(inbox, ids[: len(row_ids)])
    elif columnar:
        # A label id joined the block after this inbox was folded: read
        # the inbox as the dict it stands for (its payload dtype was
        # checked above, so this cannot decline).
        packed = _pack_mailboxes(row_ids, inbox.mailboxes(), dtype, width)
    counts, msg_rows, msg_values = packed
    block = BlockContext(
        superstep=superstep,
        num_vertices=host.graph.num_vertices,
        values=values,
        ids=None if ids is None else ids[: len(row_ids)],
        degrees=degrees,
        indptr=indptr,
        targets=targets,
        msg_values=msg_values,
        msg_row=msg_rows,
        msg_counts=counts,
    )
    return block, row_ids, slot_ids, ids, None


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


def _block_topology(host, row_ids):
    """``(degrees, indptr, targets, slot_ids)`` for a dict host's rows.

    Rebuilt from the host's graph each block — linear in edges, no
    amortised state (a host with an array store never gets here: its
    :meth:`~repro.core.sweep.LocalCsr.gather` answers from the resident
    blocks).  ``targets`` holds block indices into ``slot_ids`` (rows
    first, then every non-computed neighbour), in adjacency order per row.
    """
    neighbors = host.graph.neighbors
    n = len(row_ids)
    index = {}
    for i, v in enumerate(row_ids):
        index[v] = i
    if len(index) != n:
        return None  # duplicate ids cannot be indexed positionally
    slot_ids = list(row_ids)
    degs = []
    flat = []
    for v in row_ids:
        ns = list(neighbors(v))
        degs.append(len(ns))
        for w in ns:
            j = index.get(w)
            if j is None:
                j = len(slot_ids)
                index[w] = j
                slot_ids.append(w)
            flat.append(j)
    degrees = _np.fromiter(degs, dtype=_np.int64, count=n)
    indptr = _np.zeros(n + 1, dtype=_np.int64)
    _np.cumsum(degrees, out=indptr[1:])
    targets = _np.fromiter(flat, dtype=_np.int64, count=len(flat))
    return degrees, indptr, targets, slot_ids


def _reduce_outbox(host, row_ids, slot_ids, out, combiner, ids):
    """Reduce kernel outbox columns to router-ready unique-key columns.

    Folds duplicate ``(source_worker, target)`` keys with the program's
    combiner in the emission order the arrays carry — which the block
    context built to match the scalar loop's send order — and returns the
    keys in first-send order, so the router's outbox dict ends byte-equal
    with the scalar path's.  Returns ``(workers, targets, payloads)``
    columns, or None to decline (an unplaced source): numpy arrays when
    ``ids`` (the block's int64 id column) is given and the fold kept the
    kernel dtype, lists of Python scalars otherwise.
    """
    src, dst, payloads = out
    if not len(src):
        return [], [], []
    payloads = _np.asarray(payloads)
    workers = host.batch_workers(row_ids)
    if workers is None:
        return None
    worker_of_row = _np.asarray(workers, dtype=_np.int64)
    stride = len(slot_ids)
    codes = worker_of_row[src] * stride + dst
    # Dense-code reduction: key space is (max worker + 1) × stride, small
    # enough to scatter into directly — O(E) bincounts instead of an
    # O(E log E) unique over every emitted message.  The reversed scatter
    # leaves each key's *first* emission index, giving first-send order.
    size = int(codes[0]) + 1 if len(codes) == 1 else int(codes.max()) + 1
    occupied = _np.flatnonzero(_np.bincount(codes, minlength=size))
    first = _np.empty(size, dtype=_np.int64)
    first[codes[::-1]] = _np.arange(len(codes) - 1, -1, -1)
    order = _np.argsort(first[occupied])  # first-send order, distinct keys
    keys = occupied[order]
    if combiner is None:  # per-key message lists, emission order within key
        by_key = _np.argsort(codes, kind="stable")
        splits = _np.searchsorted(codes[by_key], occupied[1:])
        groups = list(map(as_objects, _np.split(payloads[by_key], splits)))
        reduced = [groups[i] for i in order.tolist()]
    elif combiner is min_combiner:
        by_key = _np.argsort(codes, kind="stable")
        bounds = _np.searchsorted(codes[by_key], occupied)
        mins = _np.minimum.reduceat(payloads[by_key], bounds)
        reduced = mins[order]
    else:
        # A sum (scalar or per record component): per-key accumulation in
        # emission order from +0.0, the same addition sequence the scalar
        # combiner fold performs.
        reduced = sum_by_group(codes, payloads, size)[keys]
    if ids is not None and reduced.dtype.name in COLUMN_DTYPES:
        return keys // stride, ids[keys % stride], reduced
    if combiner is not None:
        reduced = as_objects(reduced)
    out_workers = (keys // stride).tolist()
    if isinstance(slot_ids, list):
        out_targets = [slot_ids[i] for i in (keys % stride).tolist()]
    else:  # a store's id column
        out_targets = slot_ids[keys % stride].tolist()
    return out_workers, out_targets, reduced


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
