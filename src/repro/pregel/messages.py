"""Message routing with BSP delivery semantics.

Messages sent during superstep t are delivered at t + 1 and classified
local or remote against the destination's worker *at delivery time*,
which deferred migration keeps accurate (:mod:`repro.pregel.migration`).
Combiners fold messages to one target on the sending worker.  Messages
travel on the dict plane (per-message objects, any id or payload) or the
columnar plane (:class:`MessageColumns`), chosen per superstep from the
data; both deliver the same mailboxes, in the same order, with the same
counts (``docs/architecture.md``, "The message plane").
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from itertools import repeat
from operator import add as _add
from typing import Any

try:  # numpy is optional everywhere in this repo
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the numpy-free CI leg
    _np = None

__all__ = [
    "COLUMN_DTYPES",
    "CombinedMessages",
    "MessageColumns",
    "MessageRouter",
    "as_objects",
    "is_payload_column",
    "min_combiner",
    "record_sum_combiner",
    "same_column",
    "sum_by_group",
    "sum_combiner",
]

#: Payload dtypes a :class:`MessageColumns` may carry — the two kernel
#: dtypes whose ``tolist()`` round-trips to exact Python scalars.
COLUMN_DTYPES = ("float64", "int64")


def sum_combiner(a: Any, b: Any) -> Any:
    """The classic combiner for numeric messages."""
    return a + b


def min_combiner(a: Any, b: Any) -> Any:
    """Keep the smaller message (min-label flood, shortest paths)."""
    return a if a <= b else b


def record_sum_combiner(a: Any, b: Any) -> Any:
    """Componentwise sum of two equal-width record messages (tuples)."""
    return tuple(map(_add, a, b))


def is_payload_column(column: Any) -> bool:
    """True for what the array plane carries: a 1-d :data:`COLUMN_DTYPES`
    column, or ``(n, c)`` float64 records with ``c >= 2`` (width 1 *is*
    the 1-d column, so every payload has one canonical shape)."""
    if column.ndim == 1:
        return column.dtype.name in COLUMN_DTYPES
    return bool(
        column.ndim == 2 and column.shape[1] >= 2 and column.dtype == _np.float64
    )


def as_objects(column: Any) -> list[Any]:
    """A payload column's rows as the dict plane's Python objects: exact
    scalars from a 1-d column, tuples of them from a record column."""
    if column.ndim == 1:
        rows: list[Any] = column.tolist()
        return rows
    return list(zip(*column.T.tolist()))


def sum_by_group(groups: Any, payloads: Any, size: int) -> Any:
    """Per-group sums of a float64 payload column, one exact ``bincount``
    per record component: every group accumulates in row order from
    ``+0.0`` — the left fold a ``sum`` combiner performs on that group."""
    if payloads.ndim == 1:
        return _np.bincount(groups, weights=payloads, minlength=size)
    sums = [_np.bincount(groups, weights=c, minlength=size) for c in payloads.T]
    return _np.stack(sums, axis=1)


class CombinedMessages(list):
    """One combined message standing in for ``logical_len`` originals.

    Iteration, indexing and ``list(...)`` see the single folded message, so
    a program's ``compute`` receives exactly what its combiner semantics
    promise — but ``len()`` reports the *pre-combining* message count, so
    cost models that charge per message (``VertexProgram.compute_cost``
    defaults to ``1 + len(messages)``) account the same work whether or not
    the transport combined.  That asymmetry is the whole point: it is what
    keeps compute-unit timelines bit-identical across combining and
    non-combining executors.
    """

    __slots__ = ("logical_len",)

    def __init__(self, items: Iterable[Any], logical_len: int) -> None:
        super().__init__(items)
        self.logical_len = int(logical_len)

    def __len__(self) -> int:
        return self.logical_len

    def __reduce__(self) -> tuple[Any, ...]:
        return (CombinedMessages, (list(self), self.logical_len))

    def __repr__(self) -> str:
        return (
            f"CombinedMessages({list.__repr__(self)}, "
            f"logical_len={self.logical_len})"
        )


def same_column(a: Any, b: Any) -> bool:
    """Bit-exact column equality (dtype, length and every byte); a list
    column equals only a list, by ``==``."""
    if a is None or b is None:
        return a is b
    if isinstance(a, list) or isinstance(b, list):
        return type(a) is type(b) and bool(a == b)
    return bool(
        a.dtype == b.dtype
        and a.shape == b.shape
        and a.tobytes() == b.tobytes()
    )


@dataclass(frozen=True, eq=False)
class MessageColumns:
    """One batch of per-vertex payloads as parallel numpy columns.

    The single columnar record of the message plane — the same three
    columns serve every hop between two ``compute_batch`` calls:

    * a shard's reduced **outbox** (``ShardDelta.outbox``): ``targets`` are
      destination vertex ids in first-send order, ``payloads`` the
      combiner-folded message per ``(shard, target)`` key, ``counts`` None
      (the source worker is the shard id — one shard per worker);
    * a folded **inbox** (``MessageRouter.deliver`` → ``ShardTask.inbox``):
      one row per destination in ascending id order, ``payloads`` the fold
      of its mailbox, ``counts`` the mailbox's *logical* message count
      (what ``len()`` of a :class:`CombinedMessages` reports);
    * a shard's new **values** (``ShardDelta.values``): ``targets`` are the
      computed vertex ids, ``payloads`` their values, ``counts`` None.

    ``targets`` (and ``counts``) are 1-d ``int64``, ``payloads`` 1-d
    ``float64`` or ``int64`` (:data:`COLUMN_DTYPES`) or ``(n, c)`` float64
    records (:func:`is_payload_column`), all the same length — checked on
    construction, so a record that exists is well-formed.  The
    record is immutable and so are its arrays by contract: nothing writes
    to a column after it was handed to a task, a delta or the router,
    which is what lets the wire codec and the bench replay encode the same
    record twice and get the same bytes.
    """

    targets: Any
    payloads: Any
    counts: Any = None

    def __post_init__(self) -> None:
        targets, payloads, counts = self.targets, self.payloads, self.counts
        if targets.ndim != 1 or targets.dtype != _np.int64:
            raise ValueError("targets must be a 1-d int64 column")
        if payloads.shape[:1] != targets.shape or not is_payload_column(
            payloads
        ):
            raise ValueError(
                f"payloads must be a {' or '.join(COLUMN_DTYPES)} column "
                "(or float64 records two or more wide) as long as targets"
            )
        if counts is not None and (
            counts.shape != targets.shape or counts.dtype != _np.int64
        ):
            raise ValueError("counts must be an int64 column as long as targets")

    def __len__(self) -> int:
        return len(self.targets)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MessageColumns):
            return NotImplemented
        return (
            same_column(self.targets, other.targets)
            and same_column(self.payloads, other.payloads)
            and same_column(self.counts, other.counts)
        )

    def take(self, index: Any) -> MessageColumns:
        """The rows selected by ``index`` (an index array or mask)."""
        counts = self.counts
        return MessageColumns(
            self.targets[index],
            self.payloads[index],
            None if counts is None else counts[index],
        )

    # -- dict-plane views (the API edge; each call builds a fresh object) ----

    def items(self) -> Iterator[tuple[int, Any]]:
        """``(vertex id, payload)`` pairs as Python objects — the values view."""
        return zip(self.targets.tolist(), as_objects(self.payloads))

    def entries(self, source_worker: int) -> list[tuple[tuple[int, int], Any]]:
        """The dict-plane outbox list ``[((source_worker, target), payload)]``."""
        return list(
            zip(zip(repeat(source_worker), self.targets.tolist()),
                as_objects(self.payloads))
        )

    def mailboxes(self) -> dict[int, list[Any]]:
        """The dict-plane inbox ``{target: mailbox}``.

        Type-exact with what :func:`~repro.cluster.wire.combine_inbox`
        produces from the uncombined mailboxes: a plain one-message list
        where the logical count is 1, a :class:`CombinedMessages` holding
        the fold otherwise.
        """
        targets = self.targets.tolist()
        payloads = as_objects(self.payloads)
        if self.counts is None:
            return {t: [p] for t, p in zip(targets, payloads)}
        return {
            t: [p] if c == 1 else CombinedMessages((p,), c)
            for t, p, c in zip(targets, payloads, self.counts.tolist())
        }


class MessageRouter:
    """Per-superstep outboxes with combining and local/remote accounting.

    Shapes: the outbox is the dict ``{(source_worker, target): payload}``
    (``payload`` a combined message with a combiner installed, else a
    message list) plus, on the columnar plane, a list of absorbed
    ``(source_worker, MessageColumns)`` chunks; the delivered inbox is
    either ``{target: [messages]}`` or one folded :class:`MessageColumns`.
    """

    def __init__(self, placement: Any, network: Any) -> None:
        """``placement`` maps vertex id → worker id (live object, shared with
        the system); ``network`` is the :class:`NetworkStats` collector."""
        self._placement = placement
        self._network = network
        self._combiner: Callable[[Any, Any], Any] | None = None
        self._outbox: dict[Any, Any] = {}
        # Columnar chunks, absorbed while the dict outbox was still empty —
        # so every chunk precedes every dict entry in send order.
        self._columns: list[tuple[int, MessageColumns]] = []
        self._inbox: dict[Any, Any] | MessageColumns = {}
        self._dropped: list[Any] = []  # removed vertices vs a columnar inbox

    def set_combiner(self, combiner: Callable[[Any, Any], Any] | None) -> None:
        """Install a message combiner (or None to disable)."""
        self._combiner = combiner

    def send(self, source_id: Any, target_id: Any, message: Any) -> None:
        """Queue a message for delivery next superstep.

        With a combiner installed, messages to the same target sent from the
        same *worker* fold immediately (per-worker outboxes are what a real
        implementation combines in).
        """
        source_worker = self._placement.get(source_id)
        key = (source_worker, target_id)
        if self._combiner is not None:
            existing = self._outbox.get(key)
            if existing is not None:
                self._outbox[key] = self._combiner(existing, message)
                return
            self._outbox[key] = message
        else:
            self._outbox.setdefault(key, []).append(message)

    def absorb(self, entries: Any, source_worker: int | None = None) -> None:
        """Merge shard-produced outbox entries into this superstep's outbox.

        ``entries`` is one shard's outbox in either plane: an iterable of
        ``((source_worker, target_id), payload)`` pairs in the producing
        shard's send order, where ``payload`` follows this router's
        combining convention (a combined message with a combiner
        installed, else a message list) — or a :class:`MessageColumns`
        whose rows all come from ``source_worker``.  The cluster layer
        calls this once per shard at the barrier, in shard-id order; keys
        never collide across shards because a worker's vertices live on
        exactly one shard, so a plain insert preserves both combining
        semantics and the deterministic delivery order.

        Columns stay columns (no per-message objects are built) for as
        long as the whole outbox is columnar; the first dict entry of a
        superstep sends later column chunks to the dict as well, which
        keeps the outbox in send order whatever the mix.
        """
        if isinstance(entries, MessageColumns):
            if source_worker is None:
                raise ValueError("columnar outbox needs its source_worker")
            if self._outbox:
                self._outbox.update(entries.entries(source_worker))
            elif len(entries):
                self._columns.append((source_worker, entries))
            return
        outbox = self._outbox
        for key, payload in entries:
            outbox[key] = payload

    def deliver(self) -> dict[Any, Any] | MessageColumns:
        """Flush outboxes into inboxes, counting local vs remote traffic.

        Called at the superstep barrier *after* migrations were applied, so
        remote/local classification reflects the destination's new worker.
        Returns the inbox: ``{vertex_id: [messages]}``, or — when the whole
        outbox was columnar under a ``sum``/``min``/record-sum combiner — one
        :class:`MessageColumns` with every mailbox already folded.
        """
        self._dropped = []
        chunks = self._columns
        if chunks:
            self._columns = []
            if not self._outbox and self._foldable(chunks):
                self._inbox = self._deliver_columns(chunks)
                return self._inbox
            # A mixed superstep (some shard fell back to the scalar loop):
            # everything joins the dict plane, chunks first — they were
            # absorbed before any dict entry.
            outbox: dict[Any, Any] = {}
            for source_worker, columns in chunks:
                outbox.update(columns.entries(source_worker))
            outbox.update(self._outbox)
            self._outbox = outbox
        # One C-level dict probe per entry instead of a Python method call
        # chain; the ``bulk`` view is live, so classification still sees
        # post-migration placements.  Traffic counters accumulate locally
        # and post once — integer sums, so the totals are unchanged.
        placement_get = self._placement_get()
        local = remote = 0
        inbox: dict[Any, Any] = {}
        inbox_get = inbox.get
        if self._combiner is not None:
            for (source_worker, target_id), payload in self._outbox.items():
                target_worker = placement_get(target_id)
                if target_worker is None:
                    continue  # destination vanished (removed mid-flight)
                box = inbox_get(target_id)
                if box is None:
                    inbox[target_id] = [payload]
                else:
                    box.append(payload)
                if source_worker == target_worker:
                    local += 1
                else:
                    remote += 1
        else:
            for (source_worker, target_id), payload in self._outbox.items():
                target_worker = placement_get(target_id)
                if target_worker is None:
                    continue  # destination vanished (removed mid-flight)
                box = inbox_get(target_id)
                if box is None:
                    inbox[target_id] = list(payload)
                else:
                    box.extend(payload)
                if source_worker == target_worker:
                    local += len(payload)
                else:
                    remote += len(payload)
        if local:
            self._network.count_local(local)
        if remote:
            self._network.count_remote(remote)
        self._outbox = {}
        self._inbox = inbox
        return inbox

    def _placement_get(self) -> Callable[..., Any]:
        bulk = getattr(self._placement, "bulk", None)
        return self._placement.get if bulk is None else bulk().get

    def _foldable(self, chunks: list[tuple[int, MessageColumns]]) -> bool:
        """True when :meth:`_deliver_columns` reproduces the dict plane:
        one payload dtype and width, and a combiner whose left fold numpy
        performs in the same order (the sums accumulate in float64 only;
        ``sum`` folds scalars, the record sum records)."""
        shapes = {
            (c.payloads.dtype.kind, c.payloads.shape[1:]) for _, c in chunks
        }
        if len(shapes) != 1:
            return False
        kind, width = shapes.pop()
        if self._combiner is min_combiner:
            return not width
        summing = record_sum_combiner if width else sum_combiner
        return self._combiner is summing and kind == "f"

    def _deliver_columns(
        self, chunks: list[tuple[int, MessageColumns]]
    ) -> MessageColumns:
        """Columnar delivery: stable sort by target, then one fold.

        The chunks concatenate in absorb (shard-id) order, each in its
        shard's send order — exactly the dict outbox's insertion order.  A
        *stable* sort by target therefore lists every mailbox in the order
        the dict plane's per-entry loop appends it, and ``bincount`` /
        ``minimum.reduceat`` fold each run left to right, which is the
        fold ``combine_inbox`` performs on that mailbox.  Classification
        and vanished-target drops are array compares against the distinct
        targets' homes: one ``partitions_of`` gather where the placement
        has one, else one ``get`` per distinct target.
        """
        targets = _np.concatenate([c.targets for _, c in chunks])
        payloads = _np.concatenate([c.payloads for _, c in chunks])
        workers = _np.repeat(
            _np.array([w for w, _ in chunks], dtype=_np.int64),
            [len(c) for _, c in chunks],
        )
        order = _np.argsort(targets, kind="stable")
        targets = targets[order]
        first = _np.ones(len(targets), dtype=bool)
        _np.not_equal(targets[1:], targets[:-1], out=first[1:])
        starts = _np.flatnonzero(first)
        unique = targets[starts]
        sizes = _np.diff(starts, append=len(targets))
        gather = getattr(self._placement, "partitions_of", None)
        homes = gather(unique) if gather is not None else _np.fromiter(
            map(self._placement.get, unique.tolist(), repeat(-1)),
            dtype=_np.int64,
            count=len(unique),
        )
        alive = homes >= 0  # a destination may have vanished mid-flight
        local = int(
            _np.count_nonzero(workers[order] == _np.repeat(homes, sizes))
        )
        remote = int(sizes[alive].sum()) - local
        if self._combiner is min_combiner:
            folded = _np.minimum.reduceat(payloads[order], starts)
        else:
            group = _np.repeat(_np.arange(len(unique)), sizes)
            folded = sum_by_group(group, payloads[order], len(unique))
        if local:
            self._network.count_local(local)
        if remote:
            self._network.count_remote(remote)
        inbox = MessageColumns(unique, folded, sizes)
        return inbox if alive.all() else inbox.take(alive)

    @property
    def pending_inbox(self) -> dict[Any, Any] | MessageColumns:
        """Messages awaiting processing this superstep."""
        inbox = self._inbox
        if self._dropped and isinstance(inbox, MessageColumns):
            # Set membership, like the dict plane's ``pop``: hash equality.
            gone = _np.fromiter(
                map(set(self._dropped).__contains__, inbox.targets.tolist()),
                dtype=bool,
                count=len(inbox),
            )
            self._inbox = inbox = inbox.take(~gone)
            self._dropped = []
        return inbox

    def take_inbox(self) -> dict[Any, Any] | MessageColumns:
        """Hand over the pending inbox and leave an empty one behind."""
        inbox = self.pending_inbox
        self._inbox = {}
        return inbox

    def drop_vertex(self, vertex_id: Any) -> None:
        """Discard queued state for a removed vertex."""
        if isinstance(self._inbox, dict):
            self._inbox.pop(vertex_id, None)
        else:  # columns are immutable: filtered once, when next read
            self._dropped.append(vertex_id)

    def has_pending(self) -> bool:
        """True when any vertex has undelivered or unprocessed messages."""
        return (
            bool(self._outbox)
            or bool(self._columns)
            or len(self.pending_inbox) > 0
        )
