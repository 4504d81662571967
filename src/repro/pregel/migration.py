"""Deferred vertex migration (Fig. 3) and quota arbitration.

A move decided during superstep t is announced at the t barrier and
transferred while t + 1 computes; arbitration is the only centrally
serialised decision step.  The barrier order and the column path are in
``docs/architecture.md`` ("The barrier as columns").
"""

from dataclasses import dataclass, fields
from itertools import chain, compress
from operator import eq
from typing import Any

from repro.core.sweep import id_column, sort_vertices
from repro.pregel.messages import same_column

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is optional
    _np = None

__all__ = [
    "MigrationProtocol",
    "ProposalColumns",
    "arbitrate_columns",
    "arbitrate_proposals",
    "sort_proposals",
]


@dataclass(frozen=True, eq=False)
class ProposalColumns:
    """One round's migration proposals as four parallel columns.

    The one record from a shard's decision pass to the coordinator's
    arbitration: ``ids`` (every candidate that wants to move, in candidate
    order), their ``current`` and ``desired`` partitions and the
    ``willing`` coin each already flipped.  Like
    :class:`~repro.cluster.shard.PatchColumns` it is held in one of two
    regimes, read off the data by :meth:`pack`: **typed** — int64 columns
    and a bool column, when every id is an exact ``int`` in int64 — or
    **listed**, the same columns as Python lists (labels, bigints, and
    everything a numpy-free install builds).  Lengths and regimes are
    checked on construction; equality is bit-exact per column.
    """

    ids: Any
    current: Any
    desired: Any
    willing: Any

    def __post_init__(self):
        columns = [getattr(self, spec.name) for spec in fields(self)]
        if len({type(column) is list for column in columns}) > 1:
            raise ValueError("proposal columns must be all lists or all arrays")
        if self.typed:
            want = [] if _np is None else [_np.int64] * 3 + [bool]
            if [getattr(c, "dtype", None) for c in columns] != want or (
                {getattr(c, "ndim", 0) for c in columns} != {1}
            ):
                raise ValueError(
                    "typed proposals are 1-d int64 ids and pids and bool coins"
                )
        elif set(map(type, chain(self.current, self.desired))) - {int} or (
            set(map(type, self.willing)) - {bool}
        ):
            raise ValueError("listed proposal pids must be ints, coins bools")
        if len(set(map(len, columns))) > 1:
            raise ValueError("proposal columns disagree in length")

    def __eq__(self, other):
        if not isinstance(other, ProposalColumns):
            return NotImplemented
        return all(
            same_column(getattr(self, spec.name), getattr(other, spec.name))
            for spec in fields(self)
        )

    def __len__(self):
        return len(self.ids)

    @property
    def typed(self):
        """True in the typed (numpy) regime, False in the listed one."""
        return not isinstance(self.ids, list)

    @classmethod
    def pack(cls, ids=(), current=(), desired=(), willing=()):
        """The record for parallel columns (sequences or ndarrays): typed
        when numpy is present and every id is an exact int64 ``int``,
        listed otherwise."""
        if _np is not None:
            column = ids
            if not isinstance(ids, _np.ndarray) or ids.dtype != _np.int64:
                column = id_column(_listed(ids))
            if column is not None:
                return cls(
                    column, _np.asarray(current, dtype=_np.int64),
                    _np.asarray(desired, dtype=_np.int64),
                    _np.asarray(willing, dtype=bool),
                )
        return cls(*map(_listed, (ids, current, desired, willing)))

    @classmethod
    def of_rows(cls, rows):
        """:meth:`pack` over ``(vertex, current, desired, willing)`` rows
        (what :func:`~repro.pregel.compute.decide_block` returns)."""
        return cls.pack(*map(list, zip(*rows))) if rows else cls.pack()

    @classmethod
    def concat(cls, records):
        """The records back to back, in order: typed when every non-empty
        one is, listed otherwise."""
        parts = [record for record in records if len(record)]
        if len(parts) < 2:
            return parts[0] if parts else cls.pack()
        names = [spec.name for spec in fields(cls)]
        if all(record.typed for record in parts):
            return cls(*(
                _np.concatenate([getattr(record, name) for record in parts])
                for name in names
            ))
        listed = [record.listed() for record in parts]
        return cls(*(
            list(chain.from_iterable(getattr(r, name) for r in listed))
            for name in names
        ))

    def listed(self):
        """The same record in the listed regime."""
        if not self.typed:
            return self
        return ProposalColumns(*(
            getattr(self, spec.name).tolist() for spec in fields(self)
        ))

    def rows(self):
        """``(vertex, current, desired, willing)`` tuples, in order — what
        the row oracle (:func:`arbitrate_proposals`) takes."""
        record = self.listed()
        return list(
            zip(record.ids, record.current, record.desired, record.willing)
        )


def _listed(column):
    """A column as a Python list (an ndarray through ``tolist``)."""
    return column.tolist() if hasattr(column, "tolist") else list(column)


def sort_proposals(proposals, priority=None):
    """Proposals in deterministic arbitration order (mixed-id-type safe).

    Arbitration consumes quota lanes first-come; making "first" a pure
    function of the proposal *set* (never of which shard produced a
    proposal or in which order deltas arrived) is what keeps arbitration
    executor- and mode-independent.  The base order is canonical vertex
    order; ``priority`` (a ``vertex -> sortable`` key, in practice a keyed
    per-round draw) then reshuffles it so quota contention is *unbiased* —
    a fixed canonical order would hand scarce lanes to the lowest-sorting
    ids every round, where the paper's uncoordinated workers starve nobody
    systematically.  The canonical pre-sort makes the stable reshuffle's
    tie-break deterministic too.
    """
    try:
        ordered = sorted(proposals, key=lambda p: p[0])
    except TypeError:  # mixed identifier types: order by (type, repr)
        ordered = sorted(
            proposals, key=lambda p: (type(p[0]).__name__, repr(p[0]))
        )
    if priority is not None:
        ordered.sort(key=lambda p: priority(p[0]))
    return ordered


def arbitrate_proposals(proposals, protocol, quotas, load_of):
    """Admit one round's migration proposals against the quota table.

    ``proposals`` is the round's ``(vertex, current, desired, willing)``
    list **in arbitration order** (see :func:`sort_proposals`); vertices
    still physically migrating are skipped entirely (they are not counted
    and drop out of the active set, exactly as when decisions ran in the
    coordinator).  Unwilling movers count as requested but consume nothing;
    willing movers consume ``load_of(vertex)`` from their lane or are
    blocked.  Returns ``(requested, blocked, kept_active)``.
    """
    requested = 0
    blocked = 0
    kept_active = set()
    for vertex, current, desired, willing in proposals:
        if protocol.is_migrating(vertex):
            continue
        requested += 1
        kept_active.add(vertex)
        if not willing:
            continue
        if not quotas.try_consume(current, desired, load_of(vertex)):
            blocked += 1
            continue
        protocol.request(vertex, current, desired)
    return requested, blocked, kept_active


def arbitrate_columns(proposals, order, round_index, protocol, quotas, load_of,
                      slots_of):
    """:func:`arbitrate_proposals` over ``sort_proposals(proposals,
    priority=draw)`` for a :class:`ProposalColumns` record (numpy only),
    with the same result — except that the kept proposers come back as
    their ``slots_of(ids)`` slot column, not as an id set.

    Rows rank by keyed draw (``draw_keys`` over a typed record's ids,
    ``draw_map`` for a listed one); only tied draws need the canonical id
    order, through a ``lexsort``.  One mask drops in-flight vertices,
    ``QuotaTable.admit`` meters the willing movers and the admitted are
    filed in rank order.
    """
    n = len(proposals)
    if not n:
        return 0, 0, _np.empty(0, dtype=_np.int64)
    if proposals.typed:
        ids = proposals.ids
        vertices = ids.tolist()
        draws = order.draw_keys(round_index, ids.view(_np.uint64))
        current, desired = proposals.current, proposals.desired
        willing = proposals.willing
    else:
        ids, vertices = None, proposals.ids
        draw = order.draw_map(round_index, vertices)
        draws = _np.fromiter(map(draw.__getitem__, vertices), float, count=n)
        current, desired = (
            _np.array(column, dtype=_np.int64)
            for column in (proposals.current, proposals.desired)
        )
        willing = _np.array(proposals.willing, dtype=bool)
    rank = _np.argsort(draws)
    ranked = draws[rank]
    if (ranked[1:] == ranked[:-1]).any():
        key = ids
        if key is None:
            at = {v: i for i, v in enumerate(sort_vertices(vertices))}
            key = _np.fromiter(map(at.__getitem__, vertices), _np.int64, n)
        rank = _np.lexsort((key, draws))
    kept = ~protocol.migrating(vertices)
    kept_slots = slots_of(
        ids[kept] if ids is not None
        else list(compress(vertices, kept.tolist()))
    )
    rank = rank[kept[rank] & willing[rank]]
    movers = (
        list(map(vertices.__getitem__, rank.tolist())) if ids is None
        else ids[rank].tolist()
    )
    src, dst = current[rank], desired[rank]
    admitted = quotas.admit(src, dst, list(map(load_of, movers)))
    protocol.request_many(
        compress(movers, admitted.tolist()),
        src[admitted].tolist(),
        dst[admitted].tolist(),
    )
    blocked = len(movers) - int(_np.count_nonzero(admitted))
    return int(_np.count_nonzero(kept)), blocked, kept_slots


class MigrationProtocol:
    """Collects migration requests and applies them with one-step deferral."""

    def __init__(self, network, num_workers):
        self._network = network
        self._num_workers = num_workers
        self._requested = []  # decided this superstep, not yet announced
        self._in_flight = {}  # vertex -> (old, new); transferring during t+1

    def request(self, vertex_id, old_worker, new_worker):
        """A vertex decided (during the current superstep) to migrate."""
        if old_worker == new_worker:
            raise ValueError("migration to the same worker is not a migration")
        self._requested.append((vertex_id, old_worker, new_worker))

    def request_many(self, vertices, old_workers, new_workers):
        """:meth:`request` over parallel sequences, in order."""
        if any(map(eq, old_workers, new_workers)):
            raise ValueError("migration to the same worker is not a migration")
        self._requested.extend(zip(vertices, old_workers, new_workers))

    @property
    def requested_count(self):
        """Requests queued during the in-flight superstep."""
        return len(self._requested)

    def is_migrating(self, vertex_id):
        """True while a vertex is in the red-dashed "migrating" state."""
        return vertex_id in self._in_flight

    def migrating(self, vertices):
        """:meth:`is_migrating` over a sequence, as a bool column (numpy)."""
        return _np.fromiter(
            map(self._in_flight.__contains__, vertices), dtype=bool,
            count=len(vertices),
        )

    def announce_barrier(self, placement_update):
        """Barrier step 2: publish this superstep's requests to all workers.

        ``placement_update(vertex_id, new_worker)`` flips the routing
        placement (the system passes ``PartitionState.move``).  Each origin
        worker with at least one announcement sends one notification message
        to every other worker; those messages ride the same network and are
        counted.  Returns the list of announced ``(vertex, old, new)``.
        """
        def apply(vertices, new_workers):
            for vertex_id, new_worker in zip(vertices, new_workers):
                placement_update(vertex_id, new_worker)

        return self.announce_moves(apply)

    def announce_moves(self, apply):
        """:meth:`announce_barrier` with the whole batch handed to one
        ``apply(vertices, new_workers)`` call — the bulk placement flip."""
        announced = self._requested
        self._requested = []
        vertices, olds, news = ([r[i] for r in announced] for i in range(3))
        apply(vertices, news)
        self._in_flight.update(zip(vertices, zip(olds, news)))
        if self._num_workers > 1:
            self._network.count_migration_notification(
                len(set(olds)) * (self._num_workers - 1)
            )
        return announced

    def complete_barrier(self):
        """Barrier step 3 (next superstep): finish in-flight transfers.

        Counts the physical migrations on the network and clears the
        migrating flags.  Returns the completed ``{vertex: (old, new)}``.
        """
        completed = self._in_flight
        self._in_flight = {}
        self._network.count_migration(len(completed))
        return completed

    def cancel_vertex(self, vertex_id):
        """Forget any protocol state for a removed vertex."""
        self._in_flight.pop(vertex_id, None)
        self._requested = [
            r for r in self._requested if r[0] != vertex_id
        ]
