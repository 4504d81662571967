"""The coordinator: a :class:`PregelSystem` whose compute phase is sharded.

:class:`Coordinator` keeps every semantic of the single-process system —
the superstep order, the migration and capacity protocols, fault recovery,
incremental metrics, stream mutations — and swaps the compute phase for a
BSP fan-out over :class:`~repro.cluster.shard.Shard` objects driven by a
pluggable :class:`~repro.cluster.executor.Executor`:

1. **compute + decide** — the inbox splits by resident shard (a dict
   inbox per mailbox, a columnar one with a single vertex→shard lookup
   pass and array slices), every shard runs the shared compute loop
   (possibly in other threads/processes) and — when the run is adaptive
   — the decision phase over its active residents: heuristic evaluation against its local placement
   mirror plus the keyed willingness coin, vectorised over the shard block
   when numpy is present.  Each shard returns a :class:`ShardDelta`
   carrying its migration *proposals* alongside the compute results;
2. **merge + arbitrate** — deltas fold into the authoritative state *in
   shard-id order*: values, halt votes, the message outbox (pre-combined
   per worker, so keys never collide), aggregator contributions, per-worker
   compute cost.  The merge order is what makes results a pure function of
   the configuration — bit-identical across executors.  Deltas arrive as
   a stream (:meth:`~repro.cluster.executor.Executor.step_stream`, same
   order); the thread executor yields each while later shards still
   compute, so the fold overlaps the fan-out.  The coordinator's only
   decision work is quota arbitration over the proposals in a keyed round
   permutation (the capacity protocol's serialised step, unbiased across
   rounds) — its per-superstep decision cost is O(active + proposals),
   independent of edge count;
3. **barrier** — exactly the base class's barrier.  Everything it changes
   (announced migrations, stream mutations, fault recoveries) lands in a
   dirty set, and :meth:`_after_barrier` turns that into per-shard
   :class:`~repro.cluster.shard.PatchColumns` records applied just before
   the next compute — including the barrier's *broadcast placement
   delta*, the simulation's analogue of the migration announcements every
   worker receives, which keeps every shard's placement mirror exact.

``PatchColumns`` is the only record that carries vertex state to or from
a shard: the executor is started with *empty* shards and the coordinator
seeds them with one patch each through :meth:`Executor.apply
<repro.cluster.executor.Executor.apply>` (a shard is only ever filled on
its own host), and :meth:`shard_consistency_check` reads the same record
back from :meth:`Executor.snapshot
<repro.cluster.executor.Executor.snapshot>`.

Sharding follows the paper's worker model: **one shard per worker
(partition)**, so a migration between partitions is a migration between
shards and the executor's worker count is purely a throughput knob.

The single-process :class:`PregelSystem` keeps the centralised decision
phase (heuristic evaluation between barriers) and is the oracle: it runs
the identical rule against the identical snapshot with the identical
counter-split RNG, so serial and sharded timelines are byte-identical.
"""

from collections import Counter
from itertools import compress as _compress
from itertools import islice as _islice
from itertools import repeat as _repeat
from time import perf_counter, time

from repro.cluster.executor import make_executor
from repro.cluster.shard import PatchColumns, Shard, ShardTask, store_dtype
from repro.core.sweep import sort_vertices
from repro.graph.events import AddVertex, RemoveVertex
from repro.obs import Tracer
from repro.pregel.messages import MessageColumns
from repro.pregel.system import PregelSystem

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is optional
    _np = None

__all__ = ["Coordinator"]


class Coordinator(PregelSystem):
    """A simulated Pregel cluster whose supersteps run on sharded executors.

    Drop-in for :class:`PregelSystem`: same constructor plus ``executor``
    (None, an executor name — ``"inline"`` / ``"thread"`` / ``"process"``
    / ``"socket"`` — or an
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
        self._store_dtype = store_dtype(program)
        self.executor = make_executor(executor)
        # Re-home the executor's counters in the run's registry (and hand
        # it the run's tracer for wire spans) before any traffic flows.
        self.executor.bind_observability(
            tracer=self.tracer, metrics=self.metrics_registry
        )
        # Shards are only ever filled on their host: the executor takes
        # them empty, and seeding is the first patch — every shard's
        # residents in graph order, and on an adaptive run the full
        # start-of-run placement as the broadcast delta (one pair of
        # columns shared by all k patches); barrier deltas keep the
        # mirrors exact from here on.
        seeds = {sid: ({}, []) for sid in shards}
        partition_of = self.state.partition_of
        for v in graph.vertices():
            pid = self._vertex_shard[v] = partition_of(v)
            seeds[pid][0][v] = (self.values[v], tuple(graph.neighbors(v)), False)
        assignment = list(self.state.assignment_items()) if adaptive else []
        try:
            self.executor.start(shards)
            self.executor.apply(self._pack(seeds, assignment))
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
        with self.tracer.span("inbox-split"):
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
            started = perf_counter()
            if not self._decision_needs_full_sweep(decision_ctx):
                candidate_slices = {sid: [] for sid in range(num_workers)}
                vertex_shard = self._vertex_shard
                # Canonical order: the slices cross the wire in ShardTask
                # .candidates and feed per-shard decision sweeps.
                for v in sort_vertices(self._active):
                    sid = vertex_shard.get(v)
                    if sid is not None:
                        candidate_slices[sid].append(v)
            self._decision_seconds += perf_counter() - started
        num_vertices = self.graph.num_vertices
        tasks = {
            sid: ShardTask(
                superstep=self.superstep,
                inbox=shard_inbox[sid],
                num_vertices=num_vertices,
                agg_previous=agg_previous,
                decision=shipped_decision,
                candidates=(
                    None
                    if candidate_slices is None
                    else tuple(candidate_slices[sid])
                ),
            )
            for sid in range(num_workers)
        }
        patches = self._pending_patches
        self._pending_patches = {}
        # Deltas arrive in shard-id order: all computed already, or (thread
        # executor) as shards finish, so the fold overlaps the fan-out.
        stream = self.executor.step_stream(tasks, patches)

        per_worker = [0.0] * num_workers
        computed = 0
        proposals = self._shard_proposals
        proposals.clear()
        tracer = self.tracer
        traced = tracer.enabled
        if traced:
            # One span over the whole delta fold; with the thread executor
            # it also covers the waits on still-computing shards (the
            # overlap the executor's counters quantify).
            merge_wall = time()
            merge_tick = perf_counter()
        try:
            for sid, delta in stream:
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
                if traced:
                    # Worker-side spans ride home in the delta; merging
                    # them here is what builds the one shared timeline.
                    tracer.absorb(delta.spans)
        finally:
            # A merge failure must not abandon the stream mid-flight:
            # closing it runs the executor's drain (step_stream's
            # finally), so no shard future is still mutating state when
            # the caller regains control.
            stream.close()
        if traced:
            tracer.record(
                "barrier-merge", merge_wall, perf_counter() - merge_tick,
                args={"superstep": self.superstep},
            )
        return computed, per_worker

    def _split_inbox(self, inbox, num_workers):
        """Slice the delivered inbox by resident shard, in its own plane.

        Mail for a vertex that is resident nowhere (removed at the
        barrier) is dropped either way.  A columnar inbox costs one
        C-level ``_vertex_shard`` lookup per mailed vertex and one stable
        sort; each slice keeps the inbox's ascending-id row order.
        """
        vertex_shard = self._vertex_shard
        if isinstance(inbox, MessageColumns):
            sids = _np.fromiter(
                map(vertex_shard.get, inbox.targets.tolist(), _repeat(-1)),
                dtype=_np.int64,
                count=len(inbox),
            )
            order = _np.argsort(sids, kind="stable")
            bounds = _np.searchsorted(
                sids[order], _np.arange(num_workers + 1)
            ).tolist()
            return {
                sid: inbox.take(order[bounds[sid]:bounds[sid + 1]])
                for sid in range(num_workers)
            }
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

    # ------------------------------------------------------------------
    # Dirty tracking: every barrier mutation that shards must learn about
    # ------------------------------------------------------------------

    def _placement_update(self, vertex_id, new_worker):
        super()._placement_update(vertex_id, new_worker)
        self._dirty.add(vertex_id)
        if self.config.adaptive:
            self._placement_log.append((vertex_id, new_worker))

    def _apply_event(self, event):
        pre_neighbours = ()
        if isinstance(event, RemoveVertex) and event.vertex in self.graph:
            pre_neighbours = list(self.graph.neighbors(event.vertex))
        changed = super()._apply_event(event)
        if changed:
            if isinstance(event, (AddVertex, RemoveVertex)):
                self._dirty.add(event.vertex)
                self._dirty.update(pre_neighbours)
                if self.config.adaptive and isinstance(event, RemoveVertex):
                    self._placement_log.append((event.vertex, -1))
            else:  # edge events: both endpoints' adjacency changed
                self._dirty.add(event.u)
                self._dirty.add(event.v)
        return changed

    def _vertices_placed(self, placements):
        super()._vertices_placed(placements)  # program-value init
        self._dirty.update(vertex for vertex, _ in placements)
        if self.config.adaptive:
            self._placement_log.extend(placements)

    def _edges_changed(self, us, vs, changed):
        # The bulk edge kernel bypasses _apply_event, so the dirty marks
        # for changed endpoints (their adjacency tuples) land here.
        selectors = changed.tolist()
        self._dirty.update(_compress(us, selectors))
        self._dirty.update(_compress(vs, selectors))

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
            # sid -> (upserts, removes)
            patches = {sid: ({}, []) for sid in range(self.config.num_workers)}
            for vertex in sort_vertices(self._dirty):
                old_sid = self._vertex_shard.get(vertex)
                sid = None  # gone, or unplaceable: treat as non-resident
                if vertex in self.graph:
                    sid = self.state.partition_of_or_none(vertex)
                if old_sid is not None and old_sid != sid:
                    patches[old_sid][1].append(vertex)
                if sid is None:
                    self._vertex_shard.pop(vertex, None)
                else:
                    patches[sid][0][vertex] = (
                        self.values[vertex],
                        tuple(self.graph.neighbors(vertex)),
                        vertex in self.halted,
                    )
                    self._vertex_shard[vertex] = sid
            self._dirty.clear()
            if log:  # a broadcast: every shard gets a patch
                self._placement_log = []
            else:  # only the shards the dirty set touched do
                patches = {sid: p for sid, p in patches.items() if any(p)}
            self._pending_patches = self._pack(patches, log)

    def _pack(self, patches, log):
        """``{sid: (upserts, removes)}`` and the ``(vertex, pid)`` placement
        log they share as :class:`PatchColumns` — typed wherever they fit
        the array store's gate, the first typed patch's placement columns
        serving the rest of the barrier's."""
        dtype = self._store_dtype  # None: the program has no kernel to batch
        width = 1 if dtype is None else self.program.value_width
        placed = tuple(map(list, zip(*log))) or ([], [])
        packed = {}
        for sid, (upserts, removes) in patches.items():
            patch = PatchColumns.pack(upserts, removes, placed, dtype, width)
            packed[sid] = patch
            placed = patch.placed_ids, patch.placed_pids
        return packed

    # ------------------------------------------------------------------
    # Debug / test support
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
        for vertex in self.graph.vertices():
            if vertex not in seen:
                raise AssertionError(f"vertex {vertex!r} resident nowhere")
        return True


class _Missing:
    """Sentinel that is unequal to everything (even None values)."""

    def __eq__(self, other):
        return False

    def __ne__(self, other):
        return True


_MISSING = _Missing()
