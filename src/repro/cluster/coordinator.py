"""The coordinator: a :class:`PregelSystem` whose compute phase is sharded.

:class:`Coordinator` keeps every semantic of the single-process system and
fans the compute phase out over one :class:`~repro.cluster.shard.Shard`
per worker, driven by a pluggable
:class:`~repro.cluster.executor.Executor`; with numpy it runs arbitration,
announce and routing as columns, while :class:`PregelSystem` stays the
per-row oracle.  ``docs/architecture.md`` ("The barrier as columns") has
the phases, the merge order and the oracle split.
"""

from collections import Counter
from functools import partial
from itertools import chain as _chain
from itertools import islice as _islice

from repro.cluster.executor import make_executor
from repro.cluster.shard import PatchColumns, Shard, ShardTask, store_dtype
from repro.core.sweep import sort_vertices
from repro.obs import Tracer
from repro.pregel.messages import MessageColumns
from repro.pregel.migration import arbitrate_columns
from repro.pregel.system import PregelSystem

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is optional
    _np = None

__all__ = ["Coordinator"]


class Coordinator(PregelSystem):
    """A simulated Pregel cluster whose supersteps run on sharded executors.

    Drop-in for :class:`PregelSystem`: same constructor plus ``executor``
    (None, an executor name — ``"inline"`` / ``"process"`` / ``"socket"``
    — or an
    :class:`~repro.cluster.executor.Executor` instance; capability records
    are validated by :func:`~repro.cluster.executor.make_executor` on the
    way in).  Call :meth:`close` (or use ``with``) to release executor
    workers.
    """

    def __init__(self, graph, program, config=None, fault_plan=None,
                 executor=None, tracer=None, metrics_registry=None):
        self._dirty = set()
        self._vertex_shard = {}
        self._pending_patches = {}
        self._placement_log = []  # this barrier's (vertex, pid | -1) delta
        self._shard_proposals = []
        super().__init__(graph, program, config, fault_plan,
                         tracer=tracer, metrics_registry=metrics_registry)
        # Array stores that fell back to dicts (a perf cliff, never a
        # correctness event): the total, and one counter per reason the
        # shards' deltas name.
        self._demotion_counter = self.metrics_registry.counter(
            "shard.store.demotions"
        )
        self._demotion_reasons = self.metrics_registry.group(
            "shard.store.demotions"
        )
        adaptive = self.config.adaptive
        combiner = program.combiner()
        continuous = self.config.continuous
        heuristic = self.config.heuristic if adaptive else None
        # Every shard owns a tracer of its own (lane "shard-<id>") even
        # when it runs in this process: run_superstep drains the shard's
        # tracer into its delta, and a shared tracer would let that drain
        # steal coordinator spans.  Disabled tracing keeps the no-op
        # default — shards then never time anything.
        trace_on = self.tracer.enabled
        shards = {
            sid: Shard(
                sid, program, combiner, continuous, heuristic,
                tracer=Tracer(lane=f"shard-{sid}") if trace_on else None,
            )
            for sid in range(self.config.num_workers)
        }
        # What PatchColumns.pack gates on: (dtype, width), dtype None when
        # the program has no kernel to batch.
        dtype = store_dtype(program)
        self._store_gate = (dtype, 1 if dtype is None else program.value_width)
        self.executor = make_executor(executor)
        # Re-home the executor's counters in the run's registry (and hand
        # it the run's tracer for wire spans) before any traffic flows.
        self.executor.bind_observability(
            tracer=self.tracer, metrics=self.metrics_registry
        )
        # Shards are only ever filled on their host: the executor takes
        # them empty, and seeding is the first patch (_seed_rows), with
        # the start placement as the broadcast delta on an adaptive run;
        # barrier deltas keep the mirrors exact from here on.
        vertices = list(graph.vertices())
        sids = list(map(self.state.partition_of, vertices))
        self._vertex_shard = dict(zip(vertices, sids))
        log = list(self.state.assignment_items()) if adaptive else []
        try:
            self.executor.start(shards)
            self.executor.apply(self._pack(self._seed_rows(vertices, sids), log))
        except BaseException:
            self.executor.stop()
            raise
        self._dirty.clear()  # initial build covered everything
        self._placement_log.clear()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self):
        """Stop the executor (idempotent).

        Guarded against a failed ``__init__``: if construction raised
        before the executor existed, there is nothing to stop — and an
        ``AttributeError`` here would mask the original error for callers
        cleaning up in a ``finally``.
        """
        executor = getattr(self, "executor", None)
        if executor is not None:
            executor.stop()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    # ------------------------------------------------------------------
    # The sharded compute phase
    # ------------------------------------------------------------------

    def _compute_phase(self, inbox):
        """Fan the compute phase out over the shards and merge the deltas."""
        num_workers = self.config.num_workers
        tracer = self.tracer
        with tracer.span("inbox-split"):
            shard_inbox = self._split_inbox(inbox, num_workers)
        agg_previous = {
            name: self.aggregators.previous(name)
            for name in self.aggregators.names()
        }
        decision_ctx = self._decision_ctx  # None on a non-adaptive run
        # Relaxed synchrony: on stale rounds every shard already caches the
        # snapshot (it was shipped on the resync round), so the task carries
        # only the bare round index to re-key the cached context with.
        shipped_decision = decision_ctx
        if decision_ctx is not None and self._snapshot_age > 0:
            shipped_decision = decision_ctx.round_index
        candidate_slices = None
        if decision_ctx is not None:
            # The coordinator's pre-arbitration decision work is just
            # this: slice the active set by resident shard (a full sweep
            # ships no ids at all — candidates=None means "all residents").
            with tracer.span(None, self._decide_counter):
                if not self._decision_needs_full_sweep(decision_ctx):
                    # Canonical order: the slices cross the wire in
                    # ShardTask.candidates and feed per-shard decision
                    # sweeps.
                    active = sort_vertices(self._active)
                    if _np is None:  # one residency probe per shard and vertex
                        shard = self._vertex_shard.get
                        candidate_slices = [
                            tuple(v for v in active if shard(v) == sid)
                            for sid in range(num_workers)
                        ]
                    else:
                        candidate_slices = [
                            tuple(map(active.__getitem__, rows.tolist()))
                            for rows in _by_shard(
                                self.state.partitions_of(active), num_workers
                            )
                        ]
        num_vertices = self.graph.num_vertices
        tasks = {
            sid: ShardTask(
                superstep=self.superstep,
                inbox=shard_inbox[sid],
                num_vertices=num_vertices,
                agg_previous=agg_previous,
                decision=shipped_decision,
                candidates=(
                    None if candidate_slices is None else candidate_slices[sid]
                ),
            )
            for sid in range(num_workers)
        }
        patches = self._pending_patches
        self._pending_patches = {}
        # Every shard's delta, or a raise before any of them is merged.
        deltas = self.executor.step(tasks, patches)

        per_worker = [0.0] * num_workers
        computed = 0
        proposals = self._shard_proposals
        proposals.clear()
        # The coordinator's own sort, not the executor's dict order, fixes
        # the merge order — what keeps results identical across executors.
        with tracer.span("barrier-merge", superstep=self.superstep):
            for sid, delta in sorted(deltas.items()):
                computed += delta.computed
                values = delta.values
                self.values.update(
                    values if isinstance(values, dict) else values.items()
                )
                self.halted.difference_update(delta.halted_removed)
                self.halted.update(delta.halted_added)
                # One shard per worker: the shard id IS the source worker.
                self.router.absorb(delta.outbox, sid)
                for name, value in delta.aggregated:
                    self.aggregators.contribute(name, value)
                proposals.extend(delta.proposals)
                # One shard per worker: the shard's compute IS the worker's.
                per_worker[sid] += delta.compute_units
                self.network.count_compute(delta.compute_units)
                if delta.batched_blocks:
                    # Which compute path ran, per trace/metrics dump — the
                    # scalar fallback leaves the counter untouched.
                    self._batched_counter.add(delta.batched_blocks)
                if delta.demotion:  # an array store fell back to dicts
                    self._demotion_counter.add(1)
                    self._demotion_reasons.add(delta.demotion, 1)
                # Worker-side spans ride home in the delta; merging them
                # here is what builds the one shared timeline.
                tracer.absorb(delta.spans)
        return computed, per_worker

    def _split_inbox(self, inbox, num_workers):
        """Slice the delivered inbox by resident shard, in its own plane.

        Mail for a vertex that is resident nowhere (removed at the
        barrier) is dropped either way.  A columnar inbox costs one
        ``partitions_of`` gather and one stable sort (the placement *is*
        the residency — :meth:`shard_consistency_check` asserts it); each
        slice keeps the inbox's ascending-id row order.
        """
        if isinstance(inbox, MessageColumns):
            sids = self.state.partitions_of(inbox.targets)
            return dict(enumerate(map(inbox.take, _by_shard(sids, num_workers))))
        vertex_shard = self._vertex_shard
        shard_inbox = {sid: {} for sid in range(num_workers)}
        for vertex, messages in inbox.items():
            sid = vertex_shard.get(vertex)
            if sid is not None:
                shard_inbox[sid][vertex] = messages
        return shard_inbox

    def _generate_proposals(self, context):
        """The proposals came back with the shards' compute deltas."""
        proposals = self._shard_proposals
        self._shard_proposals = []
        return proposals

    def _arbitrate(self, proposals, order, round_index, quotas, load_of):
        """The base class's arbitration as columns (numpy present)."""
        if _np is None:
            return super()._arbitrate(
                proposals, order, round_index, quotas, load_of
            )
        return arbitrate_columns(
            proposals, order, round_index, self.migration, quotas, load_of
        )

    # ------------------------------------------------------------------
    # Dirty tracking: every barrier mutation that shards must learn about
    # ------------------------------------------------------------------

    def _announce_migrations(self):
        if _np is None:
            return super()._announce_migrations()
        return self.migration.announce_moves(self._place_moves)

    def _place_moves(self, movers, targets):
        """:meth:`_placement_update` over the barrier's whole batch: one
        bulk move, loads folded in announced order, then the same active,
        dirty and placement-log marks."""
        if not movers:
            return
        graph = self.graph
        old = self.state.move_many(movers, targets)
        self.metrics.on_moves(
            old.tolist(), targets,
            map(partial(self.config.balance.load_of, graph), movers),
        )
        self._active.update(movers)
        self._active.update(_chain.from_iterable(map(graph.neighbors, movers)))
        self._dirty.update(movers)
        self._placement_log.extend(zip(movers, targets))

    def _placement_update(self, vertex_id, new_worker):
        super()._placement_update(vertex_id, new_worker)
        self._dirty.add(vertex_id)
        if self.config.adaptive:
            self._placement_log.append((vertex_id, new_worker))

    def _activate(self, vertices):
        # Ingest activates exactly the vertices whose adjacency an event
        # changed, so their shards must relearn it.
        vertices = list(vertices)
        super()._activate(vertices)
        self._dirty.update(vertices)

    def _deactivate(self, vertex):
        super()._deactivate(vertex)
        self._dirty.add(vertex)

    def _vertices_placed(self, placements):
        super()._vertices_placed(placements)  # program-value init
        self._dirty.update(vertex for vertex, _ in placements)
        if self.config.adaptive:
            self._placement_log.extend(placements)

    def _vertex_removed(self, vertex):
        super()._vertex_removed(vertex)
        if self.config.adaptive:
            self._placement_log.append((vertex, -1))

    def _maybe_fail_worker(self):
        worker = super()._maybe_fail_worker()
        if worker is not None:
            # Victims' values rolled back to the checkpoint; resync them.
            self._dirty.update(
                v for v, pid in self.state.assignment_items() if pid == worker
            )
        return worker

    # ------------------------------------------------------------------
    # Barrier: dirty set -> shard patches
    # ------------------------------------------------------------------

    def _after_barrier(self):
        """Turn this barrier's dirty set into next superstep's patches.

        Processing the dirty set in canonical vertex order makes every
        shard's insertion (and therefore compute) order a pure function of
        the run's history — the executor-independence invariant.  On an
        adaptive run the barrier's placement log is attached to
        *every* shard's patch (the same pair of columns — a broadcast,
        like the paper's migration announcements), so every placement
        mirror folds in the identical delta before the next decision phase.
        """
        log = self._placement_log
        if not self._dirty and not log:
            return
        with self.tracer.span("patch-build", dirty=len(self._dirty)):
            # sid -> (ids, values, adjacency, halted, removes)
            patches = {
                sid: ([], [], [], [], [])
                for sid in range(self.config.num_workers)
            }
            for vertex in sort_vertices(self._dirty):
                old_sid = self._vertex_shard.get(vertex)
                sid = None  # gone, or unplaceable: treat as non-resident
                if vertex in self.graph:
                    sid = self.state.partition_of_or_none(vertex)
                if old_sid is not None and old_sid != sid:
                    patches[old_sid][4].append(vertex)
                if sid is None:
                    self._vertex_shard.pop(vertex, None)
                else:
                    row = (vertex, self.values[vertex],
                           self.graph.neighbors(vertex), vertex in self.halted)
                    for column, item in zip(patches[sid], row):
                        column.append(item)
                    self._vertex_shard[vertex] = sid
            self._dirty.clear()
            if log:  # a broadcast: every shard gets a patch
                self._placement_log = []
            else:  # only the shards the dirty set touched do
                patches = {sid: p for sid, p in patches.items() if any(p)}
            self._pending_patches = self._pack(patches, log)

    def _pack(self, patches, log):
        """``{sid: (ids, values, adjacency, halted, removes)}`` and the
        ``(vertex, pid)`` placement log they share as :class:`PatchColumns`
        — typed wherever they fit the array store's gate, the first typed
        patch's placement columns serving the rest of the barrier's."""
        placed = [v for v, _ in log], [pid for _, pid in log]
        packed = {}
        for sid, rows in patches.items():
            patch = PatchColumns.pack(*rows, placed, *self._store_gate)
            packed[sid] = patch
            placed = patch.placed_ids, patch.placed_pids
        return packed

    def _seed_rows(self, vertices, sids):
        """Each shard's seed rows for :meth:`_pack`: its residents in graph
        order, none halted, cut from the graph-order columns by index."""
        columns = (
            vertices, list(map(self.values.__getitem__, vertices)),
            list(map(self.graph.neighbors, vertices)),
        )
        members = [[] for _ in range(self.config.num_workers)]
        for row, sid in enumerate(sids):
            members[sid].append(row)
        return {
            sid: (*(list(map(c.__getitem__, rows)) for c in columns),
                  [False] * len(rows), [])
            for sid, rows in enumerate(members)
        }

    # ------------------------------------------------------------------
    # Invariant checks
    # ------------------------------------------------------------------

    def shard_consistency_check(self):
        """Assert the shard mirror matches the authoritative state.

        Flushes any pending patches (equivalent to what the next compute
        would do first), gathers every shard's :meth:`Shard.snapshot
        <repro.cluster.shard.Shard.snapshot>` through the executor — so
        process execution checks genuinely worker-resident state — and
        compares membership, values, halt flags, every resident's
        neighbour multiset and the placement mirror against the
        coordinator's.  Raises :class:`AssertionError` on drift.

        The check is not free on the wire: the flushed patches cross as
        ``apply`` frames instead of riding the next ``step``, and the
        snapshots add ``snapshot`` frames.  So a checked run's
        ``bytes_sent.apply`` / ``.step`` and frame counts differ from an
        unchecked run's; its placement, timeline and digest do not.
        """
        if self._pending_patches:
            self.executor.apply(self._pending_patches)
            self._pending_patches = {}
        seen = {}
        expected = dict(self.state.assignment_items())
        for sid, snapshot in self.executor.snapshot().items():
            state = snapshot.listed()
            neighbours = iter(state.neighbours)
            for vertex, value, degree, halted in zip(
                state.ids, state.values, state.degrees, state.halted
            ):
                if vertex in seen:
                    raise AssertionError(
                        f"vertex {vertex!r} resident on shards "
                        f"{seen[vertex]} and {sid}"
                    )
                seen[vertex] = sid
                if self._vertex_shard.get(vertex) != sid:
                    raise AssertionError(
                        f"vertex {vertex!r} on shard {sid}, coordinator "
                        f"says {self._vertex_shard.get(vertex)}"
                    )
                if self.values.get(vertex, _MISSING) != value:
                    raise AssertionError(
                        f"value drift for {vertex!r}: shard has {value!r}, "
                        f"coordinator has {self.values.get(vertex)!r}"
                    )
                if halted != (vertex in self.halted):
                    raise AssertionError(f"halt-flag drift for {vertex!r}")
                held = list(_islice(neighbours, degree))
                wanted = list(self.graph.neighbors(vertex))
                if held != wanted and Counter(held) != Counter(wanted):
                    raise AssertionError(
                        f"adjacency drift for {vertex!r}: shard {sid} has "
                        f"{held!r}, the graph has {wanted!r}"
                    )
            # The placement mirror came through the executor too, so a
            # remote worker's is checked as directly as an in-process one.
            mirror = dict(zip(state.placed_ids, state.placed_pids))
            if self.config.adaptive and mirror != expected:
                drift = {
                    v: (mirror.get(v), expected.get(v))
                    for v in sort_vertices(set(mirror) | set(expected))
                    if mirror.get(v) != expected.get(v)
                }
                raise AssertionError(
                    f"placement mirror drift on shard {sid}: {drift}"
                )
        # The column inbox split and candidate slicing route by the
        # placement, so residency must be the placement.
        placement = self.state.partition_of_or_none
        for vertex in self.graph.vertices():
            if vertex not in seen:
                raise AssertionError(f"vertex {vertex!r} resident nowhere")
            if self._vertex_shard.get(vertex) != placement(vertex):
                raise AssertionError(
                    f"vertex {vertex!r} on shard {seen[vertex]}, placed on "
                    f"partition {placement(vertex)}"
                )
        return True

    def audit(self):
        """:meth:`PregelSystem.audit`, then :meth:`shard_consistency_check`
        — which flushes pending patches and fetches snapshots, so an
        audited run's wire counters (``bytes_sent.apply`` / ``.step``,
        snapshot frames) differ from an unaudited run's, its digest not."""
        super().audit()
        self.shard_consistency_check()


def _by_shard(sids, num_workers):
    """Each shard's rows of an int64 shard-id column (−1 = nowhere, so
    dropped), in row order."""
    order = _np.argsort(sids, kind="stable")
    starts = _np.searchsorted(sids[order], _np.arange(num_workers))
    return _np.split(order, starts)[1:]


class _Missing:
    """Sentinel that is unequal to everything (even None values)."""

    def __eq__(self, other):
        return False

    def __ne__(self, other):
        return True


_MISSING = _Missing()
