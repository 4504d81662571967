"""One shard of the sharded execution layer.

A :class:`Shard` owns the vertices of one partition (worker): values, halt
flags, adjacency and, on an adaptive run, a placement mirror.  Per
superstep it runs the compute phase over its residents (the batched kernel
on its array store, else the scalar loop over dicts) and the decision
phase over its candidates, and returns a :class:`ShardDelta`; vertex state
crosses to and from it only as :class:`PatchColumns` (seed = patch =
snapshot).  Which representation holds the state, and when an array store
demotes to dicts, is read off the data — ``docs/architecture.md``
("Shard state").  Everything here is plain picklable data, the whole
contract the worker-process executors need.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from itertools import chain, islice, repeat
from typing import Any

from repro.core.heuristic import DecisionContext
from repro.core.sweep import (
    id_column,
    make_shard_index,
    sort_vertices,
    value_column,
)
from repro.obs import NULL_TRACER
from repro.pregel.compute import (
    batched_block,
    compute_block,
    decide_block,
    kernel_dtype,
)
from repro.pregel.messages import (
    COLUMN_DTYPES,
    MessageColumns,
    as_objects,
    is_payload_column,
    same_column,
)
from repro.pregel.migration import ProposalColumns

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is optional
    _np = None

__all__ = [
    "PatchColumns",
    "Shard",
    "ShardDelta",
    "ShardTask",
    "store_dtype",
]


@dataclass(frozen=True)
class ShardTask:
    """One superstep's input for one shard.

    ``decision`` is the round's decision input, in one of three shapes:

    * ``None`` — no decision phase this superstep (a non-adaptive run);
    * a frozen :class:`~repro.core.heuristic.DecisionContext` — a *fresh*
      snapshot (a codec struct on the wire, never pickled); the shard
      caches it for the staleness window;
    * an ``int`` round index — a *stale* round under relaxed synchrony
      (``snapshot_staleness > 0``): the shard re-keys its cached snapshot
      to this round (:meth:`DecisionContext.aged`) instead of receiving
      the capacity vector again.  The epoch (``version``) and capacities
      it decides against are deliberately those of the last resync.

    ``candidates`` names the resident vertices to evaluate, with None
    meaning *all residents* (a full sweep — the shard enumerates them
    itself, so full rounds ship no id lists at all).

    ``inbox`` is this shard's slice of the delivered messages, in the
    plane the router delivered them on: a dict ``{vertex id: message
    list}`` (mailboxes may be :class:`~repro.pregel.messages
    .CombinedMessages` once an executor folded them), or a folded
    :class:`~repro.pregel.messages.MessageColumns` — one row per mailed
    resident with its logical message count.
    """

    superstep: int
    inbox: object          # dict or MessageColumns (this shard's slice)
    num_vertices: int      # global vertex count (a master statistic)
    agg_previous: dict     # aggregator name -> last barrier's folded value
    decision: object = None
    candidates: object = None


@dataclass(frozen=True, eq=False)
class PatchColumns:
    """One shard's vertex state, or a change to it, as eight parallel columns.

    The one record that carries vertex state between coordinator and
    shard: the seed a shard is filled from, every barrier's patch, and
    :meth:`Shard.snapshot` — "the patch that would rebuild this shard".

    Upserts are five columns in canonical vertex order (the coordinator
    builds them sorted, so shard admission order — and with it compute
    order — is executor-independent): ``ids``, ``values``, ``degrees``,
    ``neighbours`` (every row's neighbour ids back to back, each row in
    ``graph.neighbors(v)`` iteration order at patch-build time) and
    ``halted``.  ``removes`` is the evicted ids; removes apply first, so a
    vertex migrating between two shards is a remove on one and an upsert
    on the other.  ``placed_ids`` / ``placed_pids`` is the barrier's
    ordered placement delta, −1 for a removal, a later entry for one
    vertex winning — a *broadcast*: every shard receives the same pair
    (the paper's workers all learn every migration announcement), which
    keeps each shard's global placement mirror exact.

    The columns are held in one of two regimes, read off the data by
    :meth:`pack`: **typed** — numpy columns, every id an exact int64 and
    every value the kernel dtype (``(n, c)`` float64 for ``c``-wide
    records), the shape an array store applies as vectorised stores — or
    **listed** — the same columns as Python lists, any id and any value
    (all a numpy-free install builds).  Lengths are checked on
    construction, so a record that exists is well-formed.  Immutable,
    columns included, like :class:`~repro.pregel.messages.MessageColumns`.
    """

    ids: Any
    values: Any
    degrees: Any
    neighbours: Any
    halted: Any
    removes: Any
    placed_ids: Any
    placed_pids: Any

    def __post_init__(self) -> None:
        degrees, rows = self.degrees, len(self.ids)
        if len({type(getattr(self, spec.name)) is list for spec in fields(self)}) > 1:
            raise ValueError("patch columns must be all lists or all arrays")
        if self.typed:
            for name in ("ids", "degrees", "neighbours", "removes",
                         "placed_ids", "placed_pids"):
                column = getattr(self, name)
                if column.ndim != 1 or column.dtype != _np.int64:
                    raise ValueError(f"{name} must be a 1-d int64 column")
            if not is_payload_column(self.values) or (
                self.halted.ndim != 1 or self.halted.dtype != bool
            ):
                raise ValueError("upsert columns disagree with the id column")
            low, total = int(degrees.min()) if rows else 0, int(degrees.sum())
        else:
            if set(map(type, degrees)) - {int}:
                raise ValueError("listed degrees must be ints")
            low, total = min(degrees, default=0), sum(degrees)
        if {len(self.values), len(degrees), len(self.halted)} != {rows}:
            raise ValueError("upsert columns disagree with the id column")
        if low < 0 or total != len(self.neighbours):
            raise ValueError("degrees disagree with the neighbour column")
        if len(self.placed_ids) != len(self.placed_pids):
            raise ValueError("placement columns disagree in length")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PatchColumns):
            return NotImplemented
        return all(
            same_column(getattr(self, spec.name), getattr(other, spec.name))
            for spec in fields(self)
        )

    @property
    def typed(self) -> bool:
        """True in the typed (numpy) regime, False in the listed one."""
        return not isinstance(self.ids, list)

    @classmethod
    def pack(
        cls, ids: list, values: Any, adjacency: Any, halted: Any,
        removes: list, placed: tuple[Any, Any], dtype: Any = None,
        width: int = 1,
    ) -> PatchColumns:
        """The record for upsert rows (``ids`` with their ``values``,
        neighbour collections ``adjacency`` and ``halted`` votes),
        ``removes`` and the ``placed`` ``(ids, pids)`` pair.

        This is the array store's gate: the record is typed when
        ``dtype`` is given and every id (upserted, neighbour, removed,
        placed) is an exact ``int`` in int64 and every value exactly
        ``dtype``'s Python scalar (for ``width`` > 1, a tuple of exactly
        ``width`` of them) — checked here, once per upserted vertex —
        and listed otherwise.  ``placed`` may be lists or the columns of
        an earlier patch of the same barrier, which all its patches share.
        """
        degrees = list(map(len, adjacency))
        neighbours = list(chain.from_iterable(adjacency))
        placed_ids, placed_pids = placed
        shared = not isinstance(placed_ids, list)
        if dtype is not None:
            typed = dict(
                ids=id_column(ids),
                values=value_column(values, dtype, width),
                neighbours=id_column(neighbours),
                removes=id_column(removes),
                placed_ids=placed_ids if shared else id_column(placed_ids),
            )
            if not any(column is None for column in typed.values()):
                return cls(
                    degrees=_np.array(degrees, dtype=_np.int64),
                    halted=_np.array(halted, dtype=bool),
                    placed_pids=_np.asarray(placed_pids, dtype=_np.int64),
                    **typed,
                )
        if shared:
            placed_ids, placed_pids = placed_ids.tolist(), placed_pids.tolist()
        return cls(
            list(ids), list(values), degrees, neighbours, list(halted),
            list(removes), placed_ids, placed_pids,
        )

    def listed(self) -> PatchColumns:
        """The same record in the listed regime (what dict state applies
        row by row): exact Python scalars, record values as tuples."""
        if not self.typed:
            return self
        return PatchColumns(
            self.ids.tolist(), as_objects(self.values),
            *(column.tolist() for column in (
                self.degrees, self.neighbours, self.halted, self.removes,
                self.placed_ids, self.placed_pids,
            )),
        )


@dataclass
class ShardDelta:
    """Everything one shard's compute pass produced for the barrier.

    ``compute_units`` is also the shard's worker compute load: one shard
    per worker, so the coordinator attributes it to ``shard_id`` directly.
    ``proposals`` is the decision phase's output, a
    :class:`~repro.pregel.migration.ProposalColumns` record — every
    candidate that wants to move with its current and desired partition,
    willingness coin already flipped (it is vertex-local state in the
    paper) — ready for the coordinator's quota arbitration.

    ``spans`` carries the shard tracer's phase spans for this superstep
    (plus any apply-patch spans recorded since the last one) back to the
    coordinator's timeline.  Pure measurement: the barrier merge absorbs
    and discards it before anything digest-relevant happens, and it is
    always empty when tracing is off.

    ``batched_blocks`` counts how many blocks this superstep ran through
    the batched vertex-kernel path (0 or 1 per shard per superstep), and
    ``demotion`` names why the shard's array store fell back to dicts
    since its last delta — ``"patch-shape"``, ``"inbox-dtype"`` or
    ``"kernel-declined"``; empty almost always, a reason once in a
    shard's life.  Observability only — they feed the coordinator's
    ``kernel.batched_blocks`` / ``shard.store.demotions`` counters and
    never enter a digest.

    ``values`` and ``outbox`` each take one of two shapes.  From the
    scalar loop (a dict shard): ``values`` is a dict ``{vertex id:
    value}`` over every computed vertex and ``outbox`` a list of
    ``((source_worker, target_id), payload)`` in send order.  From a
    batched block (an array store) ``values`` is a
    :class:`~repro.pregel.messages.MessageColumns` holding the kernel's
    own ``(ids, new values)`` arrays, and so is ``outbox`` — ``(targets,
    reduced payloads)``, the source worker being ``shard_id`` — under a
    ``sum``/``min``/record-sum combiner; without one it is the entry
    list.
    """

    shard_id: int
    computed: int
    values: object         # dict or MessageColumns, every computed vertex
    outbox: object         # entry list or MessageColumns, in send order
    halted_added: list
    halted_removed: list
    aggregated: list       # (name, value) contributions in call order
    compute_units: float
    proposals: ProposalColumns = field(default_factory=ProposalColumns.pack)
    spans: list = field(default_factory=list)
    batched_blocks: int = 0
    demotion: str = ""


class _ShardGraph:
    """The graph surface :class:`VertexContext` reads, shard-locally.

    Neighbour lists are immutable tuples maintained by patches; the global
    vertex count is a master-provided statistic refreshed per task.
    """

    __slots__ = ("_adj", "num_vertices")

    def __init__(self, adj: dict) -> None:
        self._adj = adj
        self.num_vertices = 0

    def neighbors(self, v: Any) -> tuple:
        return self._adj[v]

    def degree(self, v: Any) -> int:
        return len(self._adj[v])


class _ShardRouter:
    """Shard-local outbox with :class:`MessageRouter`'s send semantics.

    Combining happens here, per ``(source_worker, target)`` key, exactly as
    the real router does it — and since a worker's vertices all live on one
    shard (source worker ≡ shard id), the keys this router produces can
    never collide with another shard's, which is what makes the barrier
    merge order-trivial.
    """

    __slots__ = ("_worker", "_combiner", "outbox", "columns")

    def __init__(self, worker: int, combiner: Any) -> None:
        self._worker = worker
        self._combiner = combiner
        self.outbox: dict = {}
        # a batched block's outbox, kept as columns
        self.columns: MessageColumns | None = None

    def send(self, source_id: Any, target_id: Any, message: Any) -> None:
        key = (self._worker, target_id)
        if self._combiner is not None:
            existing = self.outbox.get(key)
            if existing is not None:
                self.outbox[key] = self._combiner(existing, message)
                return
            self.outbox[key] = message
        else:
            self.outbox.setdefault(key, []).append(message)

    def absorb_columns(self, targets: Any, payloads: Any) -> None:
        """Batched-kernel entry point: insert pre-reduced outbox columns.

        One entry per distinct target, already combiner-folded in
        canonical order, targets in first-send order — plain inserts
        reproduce exactly the dict the scalar ``send`` loop would have
        built (the source worker is this shard: a worker's vertices live
        on one shard).  Numpy columns are kept whole as one
        :class:`~repro.pregel.messages.MessageColumns` — the delta ships
        them as they are — while list columns join the dict.
        """
        if isinstance(targets, list):
            self.outbox.update(zip(zip(repeat(self._worker), targets), payloads))
        else:
            self.columns = MessageColumns(targets, payloads)

    def drain(self) -> Any:
        """This superstep's outbox in the shape the delta ships."""
        if self.columns is not None:
            return self.columns
        return list(self.outbox.items())


class _ShardAggregators:
    """Aggregator facade: reads last barrier's snapshot, records contributions."""

    __slots__ = ("_previous", "contributions")

    def __init__(self, previous: dict) -> None:
        self._previous = previous
        self.contributions: list = []

    def contribute(self, name: str, value: Any) -> None:
        if name not in self._previous:
            raise KeyError(f"aggregator {name!r} not registered")
        self.contributions.append((name, value))

    def previous(self, name: str) -> Any:
        return self._previous[name]


def store_dtype(program: Any) -> Any:
    """The value-column dtype an array store for ``program`` would have
    (its width is ``program.value_width``), or None when its kernel
    cannot batch or its values cannot ship as columns — the program's
    half of the store gate."""
    dtype = kernel_dtype(program)
    return dtype if dtype is not None and dtype.name in COLUMN_DTYPES else None


class Shard:
    """The resident vertex state of one worker, plus its compute pass.

    With ``heuristic`` set the shard also hosts the decision phase: it
    keeps a mirror of the *global* placement (seeded by its first patch,
    kept exact by the barrier's broadcast placement deltas) and evaluates
    the heuristic + willingness coin over its candidate residents each
    superstep the coordinator asks it to.

    ``store`` is the active array store (see the module docstring) or
    None; ``index`` the shard's one :class:`~repro.core.sweep.LocalCsr` —
    the store itself, or a dict shard's decision index, or None.
    """

    def __init__(self, shard_id: int, program: Any, combiner: Any,
                 continuous: bool, heuristic: Any = None,
                 tracer: Any = None) -> None:
        self.shard_id = shard_id
        self.program = program
        self.continuous = continuous
        # Each shard owns its own tracer (lane "shard-<id>") even when it
        # runs in the coordinator's process: drain() must only ever take
        # this shard's spans into its delta.
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.values: dict = {}
        self.halted: set = set()
        self._adj: dict = {}
        self._combiner = combiner
        self.graph = _ShardGraph(self._adj)
        self.heuristic = heuristic
        # global placement mirror (decision phase); None = not adaptive
        self.placement: dict | None = None if heuristic is None else {}
        self._decision_cache: DecisionContext | None = None
        dtype = store_dtype(program)
        self.index = make_shard_index(
            heuristic, dtype, 1 if dtype is None else program.value_width
        )
        index = self.index
        self.store = index if index is not None and index.values is not None else None
        self._demotion = ""
        # Per-superstep scratch, bound during run_superstep.
        self.router: _ShardRouter | None = None
        self.aggregators: _ShardAggregators | None = None
        self._compute_units = 0.0
        self._computed_ids: list = []
        self._value_columns: MessageColumns | None = None

    def __len__(self) -> int:
        store = self.store
        return len(self.values) if store is None else store.residents

    # ------------------------------------------------------------------
    # Membership (driven by coordinator patches)
    # ------------------------------------------------------------------

    def apply_patch(self, patch: PatchColumns) -> None:
        """Apply one barrier's changes (removes first, then upserts).

        One path: dict state, when that is what the shard holds (a store
        demotes first if the patch is not typed in its dtype and width),
        takes the listed rows; the ``LocalCsr`` — store or decision index
        alike — takes the columns in one bulk call each.  The
        ``apply-patch`` span recorded here ships with the *next*
        superstep's delta (patches precede compute in the step protocol).
        """
        with self.tracer.span(
            "apply-patch", upserts=len(patch.ids), removes=len(patch.removes)
        ):
            store = self.store
            if store is not None and not (
                patch.typed
                and patch.values.dtype == store.values.dtype
                and patch.values.shape[1:] == store.values.shape[1:]
            ):
                self._demote("patch-shape")
            if self.store is None:
                self._apply_rows(patch.listed())
            index = self.index
            if index is None:
                return
            # The mirror first (its columns are independent of the
            # residents'): at seeding it names every vertex, which keeps
            # the id → slot table dense from the first lookup on.
            if len(patch.placed_ids):
                index.place_many(patch.placed_ids, patch.placed_pids)
            index.evict_many(patch.removes)
            index.admit_many(
                patch.ids, patch.degrees, patch.neighbours,
                patch.values, patch.halted,
            )

    def _apply_rows(self, patch: PatchColumns) -> None:
        """A listed patch into the dict state, row by row."""
        values, halted, adj = self.values, self.halted, self._adj
        for vertex in patch.removes:
            values.pop(vertex, None)
            adj.pop(vertex, None)
            halted.discard(vertex)
        neighbours = iter(patch.neighbours)
        for vertex, value, degree, is_halted in zip(
            patch.ids, patch.values, patch.degrees, patch.halted
        ):
            values[vertex] = value  # an existing vertex keeps its compute slot
            adj[vertex] = tuple(islice(neighbours, degree))
            if is_halted:
                halted.add(vertex)
            else:
                halted.discard(vertex)
        placement = self.placement
        if placement is not None:
            for vertex, pid in zip(patch.placed_ids, patch.placed_pids):
                if pid < 0:
                    placement.pop(vertex, None)
                else:
                    placement[vertex] = pid

    def _demote(self, reason: str) -> None:
        """Turn the array store into dict state — once, one way: its own
        snapshot, listed, applied to the dicts.

        The ``LocalCsr`` stays on as the decision index (adjacency and
        placement columns are exact and keep being fed) when the
        heuristic reads it; its value column is dropped.  ``reason`` —
        which gate the store fell through — goes home in the next delta
        and, when tracing, on the ``demote`` span timing the conversion.
        """
        store = self.store
        with self.tracer.span("demote", reason=reason):
            self._apply_rows(self.snapshot().listed())
        store.values = None
        self.store = None
        if not store.decides:
            self.index = None
        self._demotion = reason

    # ------------------------------------------------------------------
    # Compute (the host contracts of compute_block and batched_block)
    # ------------------------------------------------------------------

    def note_cost(self, vertex: Any, cost: float) -> None:
        """Compute-host contract: record one computed vertex and its cost."""
        self._compute_units += cost
        self._computed_ids.append(vertex)

    def note_batched_block(self, values: MessageColumns, costs: Any) -> None:
        """Record one block the store's kernel computed.

        ``values`` is the block's ``(ids, new values)``, which the delta
        ships as they are; ``costs`` its per-row compute costs.  ``cumsum``
        accumulates strictly left to right, so the final prefix sum
        associates exactly like the scalar loop's per-vertex ``+=`` —
        compute-unit timelines stay bit-identical.
        """
        self._value_columns = values
        if len(costs):
            self._compute_units += float(costs.cumsum()[-1])

    @property
    def placement_of(self) -> Any:
        """The decision-host contract of :func:`decide_block`: mirror reads."""
        return self.placement.get

    def _decision_snapshot(self, task: ShardTask) -> DecisionContext | None:
        """Resolve the task's decision input to a usable snapshot (or None).

        A fresh :class:`DecisionContext` is cached (it opens a staleness
        window); a bare round index re-keys the cached snapshot to that
        round — the shard-side half of the stale-snapshot lifecycle, which
        keeps stale rounds from re-shipping the capacity vector at all.
        """
        decision = task.decision
        if decision is None:
            return None
        if isinstance(decision, DecisionContext):
            self._decision_cache = decision
            return decision
        cached = self._decision_cache
        if cached is None:  # pragma: no cover - protocol misuse
            raise RuntimeError(
                f"shard {self.shard_id} received a stale decision round "
                f"({decision!r}) before any snapshot was shipped"
            )
        return cached.aged(decision)

    def _decision_phase(self, task: ShardTask) -> ProposalColumns:
        """Evaluate the decision step for ``task``; returns the proposals.

        Candidate order is canonicalised locally (the coordinator ships
        slices of a set), and None means every resident.  Evaluation order
        cannot matter — decisions see only the frozen snapshot and the
        willingness draws are keyed — but a deterministic order makes the
        delta itself reproducible byte for byte.
        """
        context = self._decision_snapshot(task)
        if context is None or self.placement is None:
            return ProposalColumns.pack()
        store, index = self.store, self.index
        if store is not None:  # ascending ids: sort_vertices over an int column
            if task.candidates is None:
                rows = store.rows()
                slots = rows[_np.argsort(store.ids[rows])]
            else:
                slots = store.slots_of(
                    _np.sort(_np.asarray(task.candidates, dtype=_np.int64))
                )
            return ProposalColumns.pack(*store.decisions(context, slots))
        candidates = sort_vertices(
            self.values if task.candidates is None else task.candidates
        )
        if index is not None:
            return ProposalColumns.pack(
                *index.decisions(context, index.slots_of(candidates))
            )
        return ProposalColumns.of_rows(decide_block(self, context, candidates))

    def run_superstep(self, task: ShardTask) -> ShardDelta:
        """Run the compute pass for ``task``; returns the :class:`ShardDelta`."""
        tracer = self.tracer
        router = self.router = _ShardRouter(self.shard_id, self._combiner)
        aggregators = self.aggregators = _ShardAggregators(task.agg_previous)
        self.graph.num_vertices = task.num_vertices
        self._compute_units = 0.0
        self._computed_ids = []
        self._value_columns = None
        with tracer.span(
            "compute", superstep=task.superstep, residents=len(self)
        ):
            store = self.store
            computed: Any = None
            if store is not None:
                rows = store.rows()
                asleep = store.halted[rows]
                computed = batched_block(self, task.inbox, task.superstep)
                if isinstance(computed, str):  # the scalar loop reads dicts
                    self._demote(computed)
                    store = computed = None
            if computed is None:
                halted_before = set(self.halted)
                computed = compute_block(
                    self, list(self.values), task.inbox, task.superstep
                )
        proposals = ProposalColumns.pack()
        if task.decision is not None:
            with tracer.span("decide", superstep=task.superstep):
                proposals = self._decision_phase(task)
        spans = tracer.drain() if tracer.enabled else []
        values: Any = self._value_columns
        batched = values is not None
        if not batched:
            values = {v: self.values[v] for v in self._computed_ids}
        if store is not None:  # halt transitions off the mask, ids ascending
            ids, halted = store.ids[rows], store.halted[rows]
            halted_added = _np.sort(ids[halted & ~asleep]).tolist()
            halted_removed = _np.sort(ids[asleep & ~halted]).tolist()
        else:
            halted_added = sort_vertices(self.halted - halted_before)
            halted_removed = sort_vertices(halted_before - self.halted)
        delta = ShardDelta(
            shard_id=self.shard_id,
            computed=computed,
            values=values,
            outbox=router.drain(),
            halted_added=halted_added,
            halted_removed=halted_removed,
            aggregated=aggregators.contributions,
            compute_units=self._compute_units,
            proposals=proposals,
            spans=spans,
            batched_blocks=int(batched),
            demotion=self._demotion,
        )
        self.router = None
        self.aggregators = None
        self._demotion = ""
        return delta

    def snapshot(self) -> PatchColumns:
        """The patch that would rebuild this shard: residents in compute
        order with values, adjacency and halt votes, and the placement
        mirror (ascending by id) as the delta — typed from a store, listed
        from dict state.  ``Shard(...).apply_patch(s.snapshot())`` holds
        what ``s`` holds: the checkpoint / restore / consistency record."""
        store = self.store
        if store is not None:
            rows = store.rows()
            degrees, neighbours = store.adjacency(rows)
            return PatchColumns(
                store.ids[rows], store.values[rows], degrees, neighbours,
                store.halted[rows], rows[:0], *store.mirror(),
            )
        ids, placement = list(self.values), self.placement or {}
        placed = sort_vertices(placement)
        return PatchColumns.pack(
            ids, list(self.values.values()), list(map(self._adj.get, ids)),
            list(map(self.halted.__contains__, ids)), [],
            (placed, [placement[v] for v in placed]),
        )

    def __repr__(self) -> str:
        return f"Shard(id={self.shard_id}, residents={len(self)})"
