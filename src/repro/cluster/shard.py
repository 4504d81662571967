"""One shard of the sharded execution layer.

A :class:`Shard` owns the vertices of one partition (worker): their values,
halted flags and a local read-only adjacency mirror.  Per superstep it runs
the shared compute loop (:func:`~repro.pregel.compute.compute_block`) over
its residents — and, when the task carries a decision snapshot, the
*decision phase* over its candidate residents: heuristic evaluation against
its local placement mirror plus the vertex-local keyed willingness coin
(:func:`~repro.pregel.compute.decide_block`, vectorised over the shard
block by the shard's :class:`~repro.core.sweep.LocalCsr` index when numpy
is present).
Everything the superstep produced comes back as a :class:`ShardDelta` —
new values, a pre-combined outbox, halt transitions, aggregator
contributions, per-worker compute cost and migration proposals.  The
coordinator merges deltas at the barrier **in shard-id order** and
arbitrates proposals in a keyed round permutation, so a superstep's outcome is
independent of which thread or process ran which shard: bit-identical
across every :mod:`~repro.cluster.executor` backend.

Between supersteps the coordinator keeps shards current with
:class:`ShardPatch` records (vertex upserts + evictions, plus the barrier's
broadcast placement delta — the simulation's analogue of the migration
announcements every worker receives) covering whatever the barrier changed:
stream mutations, announced migrations, fault recoveries.  Everything here
is plain picklable data — that is the whole contract
:class:`~repro.cluster.executor.ProcessExecutor` needs.
"""

from dataclasses import dataclass, field

from repro.core.heuristic import DecisionContext
from repro.core.sweep import make_shard_index, sort_vertices
from repro.obs import NULL_TRACER
from repro.pregel.compute import compute_block, decide_block
from repro.pregel.messages import MessageColumns

__all__ = ["Shard", "ShardDelta", "ShardPatch", "ShardTask"]


@dataclass(frozen=True)
class ShardTask:
    """One superstep's input for one shard.

    ``decision`` is the round's decision input, in one of three shapes:

    * ``None`` — no decision phase this superstep (a non-adaptive run);
    * a frozen :class:`~repro.core.heuristic.DecisionContext` — a *fresh*
      snapshot; the shard caches it for the staleness window;
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


@dataclass
class ShardPatch:
    """Barrier-produced state changes for one shard.

    ``upserts`` maps vertex id → ``(value, neighbours, halted)`` in
    canonical vertex order (the coordinator builds it sorted, so shard
    insertion order — and with it compute order — is executor-independent);
    ``removes`` lists evicted vertex ids.  Removes apply first: a vertex
    migrating between two shards appears as a remove on one and an upsert
    on the other.

    ``placement_delta`` is the barrier's ordered placement changes —
    ``(vertex, pid)`` for moves and streaming placements, ``(vertex,
    None)`` for removals.  Unlike upserts it is a *broadcast*: every shard
    receives the same delta (the paper's workers all learn every migration
    announcement), which is what keeps each shard's global placement
    mirror — the state the decision phase reads neighbour locations from —
    exact.
    """

    upserts: dict = field(default_factory=dict)
    removes: list = field(default_factory=list)
    placement_delta: list = field(default_factory=list)


@dataclass
class ShardDelta:
    """Everything one shard's compute pass produced for the barrier.

    ``compute_units`` is also the shard's worker compute load: one shard
    per worker, so the coordinator attributes it to ``shard_id`` directly.
    ``proposals`` is the decision phase's output — ``(vertex, current,
    desired, willing)`` for every candidate that wants to move, willingness
    coin already flipped (it is vertex-local state in the paper) — ready
    for the coordinator's quota arbitration.

    ``spans`` carries the shard tracer's phase spans for this superstep
    (plus any apply-patch spans recorded since the last one) back to the
    coordinator's timeline.  Pure measurement: the barrier merge absorbs
    and discards it before anything digest-relevant happens, and it is
    always empty when tracing is off.

    ``batched_blocks`` counts how many blocks this superstep ran through
    the batched vertex-kernel path (0 or 1 per shard per superstep).
    Observability only — it feeds the coordinator's
    ``kernel.batched_blocks`` counter and never enters a digest.

    ``values`` and ``outbox`` each take one of two shapes.  From the
    scalar loop (or a batched block whose ids are not an int64 column):
    ``values`` is a dict ``{vertex id: value}`` over every computed vertex
    and ``outbox`` a list of ``((source_worker, target_id), payload)`` in
    send order.  From a batched block under a ``sum``/``min`` combiner
    both are :class:`~repro.pregel.messages.MessageColumns` holding the
    kernel's own arrays — ``(ids, new values)`` and ``(targets, reduced
    payloads)``, the source worker being ``shard_id``.
    """

    shard_id: int
    computed: int
    values: object         # dict or MessageColumns, every computed vertex
    outbox: object         # entry list or MessageColumns, in send order
    halted_added: list
    halted_removed: list
    aggregated: list       # (name, value) contributions in call order
    compute_units: float
    proposals: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    batched_blocks: int = 0


class _ShardGraph:
    """The graph surface :class:`VertexContext` reads, shard-locally.

    Neighbour lists are immutable tuples maintained by patches; the global
    vertex count is a master-provided statistic refreshed per task.
    """

    __slots__ = ("_adj", "num_vertices")

    def __init__(self, adj):
        self._adj = adj
        self.num_vertices = 0

    def neighbors(self, v):
        return self._adj[v]

    def degree(self, v):
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

    def __init__(self, worker, combiner):
        self._worker = worker
        self._combiner = combiner
        self.outbox = {}
        self.columns = None  # a batched block's outbox, kept as columns

    def send(self, source_id, target_id, message):
        key = (self._worker, target_id)
        if self._combiner is not None:
            existing = self.outbox.get(key)
            if existing is not None:
                self.outbox[key] = self._combiner(existing, message)
                return
            self.outbox[key] = message
        else:
            self.outbox.setdefault(key, []).append(message)

    def absorb_columns(self, workers, targets, payloads):
        """Batched-kernel entry point: insert pre-reduced outbox columns.

        Same contract as :meth:`MessageRouter.absorb_columns
        <repro.pregel.messages.MessageRouter.absorb_columns>`: one entry
        per distinct key, already combiner-folded in canonical order, keys
        in first-send order — plain inserts reproduce exactly the dict the
        scalar ``send`` loop would have built.  ``workers`` is always this
        shard's id repeated (a worker's vertices live on one shard), so
        numpy columns are kept whole as one
        :class:`~repro.pregel.messages.MessageColumns` — the delta ships
        them as they are — while list columns join the dict.
        """
        if isinstance(workers, list):
            self.outbox.update(zip(zip(workers, targets), payloads))
        else:
            self.columns = MessageColumns(targets, payloads)

    def drain(self):
        """This superstep's outbox in the shape the delta ships."""
        if self.columns is not None:
            return self.columns
        return list(self.outbox.items())


class _ShardAggregators:
    """Aggregator facade: reads last barrier's snapshot, records contributions."""

    __slots__ = ("_previous", "contributions")

    def __init__(self, previous):
        self._previous = previous
        self.contributions = []

    def contribute(self, name, value):
        if name not in self._previous:
            raise KeyError(f"aggregator {name!r} not registered")
        self.contributions.append((name, value))

    def previous(self, name):
        return self._previous[name]


class Shard:
    """The resident vertex state of one worker, plus its compute pass.

    With ``heuristic`` set the shard also hosts the decision phase: it
    keeps a mirror of the *global* placement (seeded once at start, kept
    exact by the barrier's broadcast placement deltas) and evaluates the
    heuristic + willingness coin over its candidate residents each
    superstep the coordinator asks it to.
    """

    def __init__(self, shard_id, program, combiner, continuous,
                 heuristic=None, tracer=None):
        self.shard_id = shard_id
        self.program = program
        self.continuous = continuous
        # Each shard owns its own tracer (lane "shard-<id>") even when it
        # runs in the coordinator's process: drain() must only ever take
        # this shard's spans into its delta.
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.values = {}
        self.halted = set()
        self._adj = {}
        self._combiner = combiner
        self.graph = _ShardGraph(self._adj)
        self.heuristic = heuristic
        self.placement = None  # global placement mirror (decision phase)
        self._decision_cache = None  # last fresh snapshot (staleness window)
        # The one array index (None without numpy, or with nothing to
        # read it): kept exact by admit/evict and the placement deltas
        # alongside the dict state, read by the vectorised decision pass
        # and by the batched vertex-kernel path.
        self.block_index = make_shard_index(
            heuristic, program.compute_batch is not None
        )
        # Per-superstep scratch, bound during run_superstep.
        self.router = None
        self.aggregators = None
        self._compute_units = 0.0
        self._computed_ids = None
        self._batched_blocks = 0
        self._value_columns = None

    def __len__(self):
        return len(self.values)

    # ------------------------------------------------------------------
    # Membership (driven by coordinator patches)
    # ------------------------------------------------------------------

    def admit(self, vertex, value, neighbours, halted):
        """Upsert one resident; an existing vertex keeps its compute slot."""
        self.values[vertex] = value
        self._adj[vertex] = tuple(neighbours)
        if halted:
            self.halted.add(vertex)
        else:
            self.halted.discard(vertex)
        if self.block_index is not None:
            self.block_index.admit(vertex, self._adj[vertex])

    def evict(self, vertex):
        """Drop one resident (migration departure or stream removal)."""
        self.values.pop(vertex, None)
        self._adj.pop(vertex, None)
        self.halted.discard(vertex)
        if self.block_index is not None:
            self.block_index.evict(vertex)

    def seed_placement(self, assignment_items):
        """Install the initial global placement mirror (start-of-run)."""
        self.placement = dict(assignment_items)
        if self.block_index is not None:
            self.block_index.place_many(list(self.placement.items()))

    def apply_placement_delta(self, delta):
        """Fold one barrier's broadcast placement changes into the mirror."""
        placement = self.placement
        if placement is None:
            return
        index = self.block_index
        for vertex, pid in delta:
            if pid is None:
                placement.pop(vertex, None)
                if index is not None:
                    index.unplace(vertex)
            else:
                placement[vertex] = pid
                if index is not None:
                    index.place(vertex, pid)

    def apply_patch(self, patch):
        """Apply one barrier's changes (removes first, then upserts).

        The ``apply-patch`` span recorded here ships with the *next*
        superstep's delta (patches precede compute in the step protocol).
        """
        with self.tracer.span(
            "apply-patch",
            upserts=len(patch.upserts),
            removes=len(patch.removes),
        ):
            for vertex in patch.removes:
                self.evict(vertex)
            for vertex, (value, neighbours, halted) in patch.upserts.items():
                self.admit(vertex, value, neighbours, halted)
            if patch.placement_delta:
                self.apply_placement_delta(patch.placement_delta)

    # ------------------------------------------------------------------
    # Compute (the host contract of compute_block)
    # ------------------------------------------------------------------

    def note_cost(self, vertex, cost):
        """Compute-host contract: record one computed vertex and its cost."""
        self._compute_units += cost
        self._computed_ids.append(vertex)

    def note_costs(self, vertex_ids, costs):
        """Vectorised :meth:`note_cost` for one batched block.

        ``cumsum`` accumulates strictly left to right, so the final prefix
        sum associates exactly like the scalar loop's per-vertex ``+=`` —
        compute-unit timelines stay bit-identical.
        """
        self._computed_ids.extend(vertex_ids)
        if len(costs):
            self._compute_units += float(costs.cumsum()[-1])

    def note_batched_block(self, values=None):
        """Count one block evaluated through the batched kernel path.

        ``values`` is the block's ``(ids, new values)`` as a
        :class:`~repro.pregel.messages.MessageColumns` when the kernel's
        arrays can ship as they are; the delta then carries them instead
        of a dict rebuilt from ``self.values``.
        """
        self._batched_blocks += 1
        self._value_columns = values

    def batch_workers(self, vertex_ids):
        """Per-row source workers: this shard's id, for every resident."""
        return [self.shard_id] * len(vertex_ids)

    @property
    def placement_of(self):
        """The decision-host contract of :func:`decide_block`: mirror reads."""
        return self.placement.get

    def _decision_snapshot(self, task):
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

    def _decision_phase(self, task):
        """Evaluate the decision step for ``task``; returns the proposals.

        Candidate order is canonicalised locally (the coordinator ships
        slices of a set), and None means every resident.  Evaluation order
        cannot matter — decisions see only the frozen snapshot and the
        willingness draws are keyed — but a deterministic order makes the
        delta itself reproducible byte for byte.
        """
        context = self._decision_snapshot(task)
        if context is None or self.placement is None:
            return []
        candidates = sort_vertices(
            self.values if task.candidates is None else task.candidates
        )
        index = self.block_index
        if index is not None and index.decides:
            return index.decisions(context, candidates)
        return decide_block(self, context, candidates)

    def run_superstep(self, task):
        """Run the compute pass for ``task``; returns the :class:`ShardDelta`."""
        tracer = self.tracer
        self.router = _ShardRouter(self.shard_id, self._combiner)
        self.aggregators = _ShardAggregators(task.agg_previous)
        self.graph.num_vertices = task.num_vertices
        self._compute_units = 0.0
        self._computed_ids = []
        self._batched_blocks = 0
        self._value_columns = None
        halted_before = set(self.halted)
        with tracer.span(
            "compute", superstep=task.superstep, residents=len(self.values)
        ):
            computed = compute_block(
                self, list(self.values), task.inbox, task.superstep
            )
        proposals = []
        if task.decision is not None:
            with tracer.span("decide", superstep=task.superstep):
                proposals = self._decision_phase(task)
        spans = tracer.drain() if tracer.enabled else []
        values = self._value_columns
        if values is None:
            values = {v: self.values[v] for v in self._computed_ids}
        delta = ShardDelta(
            shard_id=self.shard_id,
            computed=computed,
            values=values,
            outbox=self.router.drain(),
            halted_added=sort_vertices(self.halted - halted_before),
            halted_removed=sort_vertices(halted_before - self.halted),
            aggregated=self.aggregators.contributions,
            compute_units=self._compute_units,
            proposals=proposals,
            spans=spans,
            batched_blocks=self._batched_blocks,
        )
        self.router = None
        self.aggregators = None
        self._computed_ids = None
        return delta

    def snapshot(self):
        """Picklable ``(values, halted)`` view for consistency checks."""
        return dict(self.values), set(self.halted)

    def __repr__(self):
        return f"Shard(id={self.shard_id}, residents={len(self.values)})"
