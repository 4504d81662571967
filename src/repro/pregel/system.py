"""The Pregel-inspired system facade.

:class:`PregelSystem` wires the pieces together the way Fig. 2 draws
them; :meth:`~PregelSystem.run_superstep` runs compute, the background
partitioning (vertex-local proposals, serialised arbitration) and the
barrier in the protocol-mandated order drawn in ``docs/architecture.md``
("The superstep lifecycle").  It is deliberately single-process — workers
are partitions of a shared store with honest per-worker accounting — and
is the oracle the sharded :class:`~repro.cluster.coordinator.Coordinator`
is pinned byte-identical to.
"""

from dataclasses import dataclass, field
from functools import partial

from repro.core.balance import VertexBalance
from repro.core.capacity import QuotaTable
from repro.core.convergence import ConvergenceDetector
from repro.core.heuristic import (
    DecisionContext,
    GreedyMaxNeighbours,
    make_heuristic,
)
from repro.core.incremental import IncrementalMetrics
from repro.core.ingest import IngestHost, apply_events, make_ingestor
from repro.core.sweep import make_sweeper, sort_vertices
from repro.obs import NULL_TRACER, MetricsRegistry
from repro.partitioning.hashing import HashPartitioner
from repro.pregel.aggregators import Aggregators, SumAggregator
from repro.pregel.capacity_protocol import CapacityProtocol
from repro.pregel.compute import compute_block, decide_block
from repro.pregel.fault import Checkpointer, FaultPlan
from repro.pregel.messages import MessageRouter
from repro.pregel.migration import (
    MigrationProtocol,
    arbitrate_proposals,
    sort_proposals,
)
from repro.pregel.network import NetworkStats
from repro.utils import WillingnessSource, derive_seed

__all__ = ["PregelConfig", "PregelSystem", "SuperstepReport"]


@dataclass
class PregelConfig:
    """System-level knobs.

    ``adaptive`` toggles the background partitioner (the paper's paired
    clusters are this flag's two values); ``continuous`` ignores
    vote-to-halt, matching the paper's always-on deployment; the remaining
    fields mirror :class:`repro.core.runner.AdaptiveConfig`.

    ``snapshot_staleness`` relaxes the synchrony of the *decision inputs*
    (§6's "what if the barrier is not strict" question): the frozen
    :class:`~repro.core.heuristic.DecisionContext` — capacity vector plus
    snapshot epoch — is reused for up to ``k`` supersteps before a resync
    barrier publishes a fresh one.  Placement deltas still broadcast at
    *every* barrier (shard placement mirrors stay exact; message routing
    and migration announcements are untouched) — only what decisions and
    quota arbitration *see* ages, and the metered capacity broadcast drops
    to one publish per ``k + 1`` barriers.  ``0`` (default) is the paper's
    strict BSP behaviour, bit-identical to the golden timelines.
    """

    num_workers: int = 9
    adaptive: bool = True
    continuous: bool = True
    willingness: float = 0.5
    heuristic: object = field(default_factory=GreedyMaxNeighbours)
    balance: object = field(default_factory=VertexBalance)
    seed: int = 0
    checkpoint_interval: int = 10
    quiet_window: int = 30
    snapshot_staleness: int = 0

    def __post_init__(self):
        if self.num_workers < 1:
            raise ValueError("need at least one worker")
        if not 0.0 <= self.willingness <= 1.0:
            raise ValueError("willingness must be in [0, 1]")
        if isinstance(self.heuristic, str):
            self.heuristic = make_heuristic(self.heuristic)
        if not isinstance(self.snapshot_staleness, int) or (
            self.snapshot_staleness < 0
        ):
            raise ValueError("snapshot_staleness must be an int >= 0")


@dataclass
class SuperstepReport:
    """Everything observable about one completed superstep.

    Every field is deterministic; phase timings live in the run's
    ``metrics_registry`` (``phase.<name>.seconds``).
    """

    superstep: int
    traffic: object
    migrations_requested: int
    migrations_announced: int
    migrations_blocked: int
    cut_edges: int
    cut_ratio: float
    sizes: list
    computed_vertices: int
    mutations_applied: int
    failed_worker: object = None
    per_worker_compute: list = field(default_factory=list)


class _PlacementView:
    """Read-only dict-like adapter over PartitionState for the router."""

    __slots__ = ("_state",)

    def __init__(self, state):
        self._state = state

    def get(self, vertex_id, default=None):
        pid = self._state.partition_of_or_none(vertex_id)
        return default if pid is None else pid

    def bulk(self):
        """Read-only mapping view for bulk lookups (delivery loop)."""
        return self._state.assignment_view()

    def partitions_of(self, ids):
        """Column lookup for the columnar delivery (numpy only)."""
        return self._state.partitions_of(ids)


class PregelSystem(IngestHost):
    """A simulated Pregel cluster running one vertex program continuously."""

    def __init__(self, graph, program, config=None, fault_plan=None,
                 tracer=None, metrics_registry=None):
        self.graph = graph
        self.program = program
        self.config = config or PregelConfig()
        # Observability: the tracer defaults to the shared no-op; the
        # registry always exists — its phase counters are per-superstep, not
        # per-vertex, so the scopes feeding them untraced cost a handful of
        # clock reads per superstep.  Note ``metrics_registry``, not
        # ``metrics``: that name already means the incremental partition
        # metrics below.
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.metrics_registry = (
            MetricsRegistry() if metrics_registry is None else metrics_registry
        )
        registry = self.metrics_registry
        self._supersteps_counter = registry.counter("supersteps")
        self._compute_counter = registry.counter("phase.compute.seconds")
        self._decide_counter = registry.counter("phase.decide.seconds")
        self._barrier_counter = registry.counter("phase.barrier.seconds")
        self._ingest_counter = registry.counter("ingest.events")
        self._migrations_counter = registry.counter("migrations.announced")
        # Which compute path ran: blocks the shards' array stores ran
        # through the batched kernel (per-delta counts).  This oracle always
        # runs the scalar loop, so here it stays 0.
        self._batched_counter = registry.counter("kernel.batched_blocks")
        k = self.config.num_workers
        capacities = self.config.balance.capacities(graph, k)
        self.state = HashPartitioner().partition(graph, k, list(capacities))
        self.values = {
            v: program.initial_value(v, graph) for v in graph.vertices()
        }
        self.halted = set()
        self.network = NetworkStats()
        self.router = MessageRouter(_PlacementView(self.state), self.network)
        combiner = program.combiner()
        if combiner is not None:
            self.router.set_combiner(combiner)
        self.aggregators = Aggregators()
        self.aggregators.register("__migrations__", SumAggregator)
        self.migration = MigrationProtocol(self.network, k)
        self.capacity_protocol = CapacityProtocol(self.network, k)
        self.fault_plan = fault_plan or FaultPlan()
        self.checkpointer = Checkpointer(
            self.config.checkpoint_interval, self.fault_plan
        )
        self.detector = ConvergenceDetector(self.config.quiet_window)
        self.superstep = 0
        self.reports = []
        # Willingness draws are counter-split, not streamed: every draw is
        # a pure function of (lane, superstep, vertex), so any shard can
        # draw for its own residents with no coordination.
        self._willingness_lane = derive_seed(self.config.seed, "pregel_willingness")
        self._last_decision_remaining = None  # capacity trigger (uses_capacity)
        self._decision_ctx = None
        self._snapshot_age = 0  # rounds the current decision snapshot served
        self._sweeper = make_sweeper(graph, self.state, self.config.heuristic)
        self._pending_events = []
        self._capacities = list(capacities)
        self.metrics = IncrementalMetrics(graph, self.state, self.config.balance)
        self._active = self._start_active()
        self._ingestor = make_ingestor(self)
        # Superstep 0 has no published capacities yet (the paper's protocol
        # needs one barrier to propagate them), so publish the initial view.
        self.capacity_protocol.publish(self._remaining_capacities())
        self.checkpointer.maybe_checkpoint(0, self.values)

    # ------------------------------------------------------------------
    # Load / capacity bookkeeping
    # ------------------------------------------------------------------

    def _refresh_capacities(self):
        self._capacities = list(
            self.config.balance.capacities(self.graph, self.config.num_workers)
        )
        # Keep the shared state's view consistent with the policy's.
        self.state.capacities = list(self._capacities)

    def _remaining_capacities(self):
        return self.metrics.remaining(self._capacities)

    # ------------------------------------------------------------------
    # Stream mutations
    # ------------------------------------------------------------------

    def inject_events(self, events):
        """Queue stream mutations; they apply at the next barrier."""
        self._pending_events.extend(events)

    def _apply_pending_events(self):
        """Apply queued mutations at the barrier; returns the changed count
        (bulk or per event: :func:`repro.core.ingest.apply_events` picks)."""
        events = self._pending_events
        self._pending_events = []
        if not events:
            return 0
        with self.tracer.span("ingest", events=len(events)):
            applied = apply_events(self, events)
        self._ingest_counter.add(applied)
        if applied:
            self.detector.reset()
            self._refresh_capacities()
        return applied

    # IngestHost hooks (see repro.core.ingest).

    def _vertices_placed(self, placements):
        """Ingest hook: new vertices were interned and placed; give each
        its initial program value."""
        for vertex, _ in placements:
            self.values[vertex] = self.program.initial_value(vertex, self.graph)

    def _vertex_removed(self, vertex):
        """Ingest hook: ``vertex`` left graph and state; its value, halt
        flag, in-flight migration and undelivered mail go with it."""
        self.values.pop(vertex, None)
        self.halted.discard(vertex)
        self.migration.cancel_vertex(vertex)
        self.router.drop_vertex(vertex)

    # ------------------------------------------------------------------
    # Superstep phases
    # ------------------------------------------------------------------

    @property
    def continuous(self):
        """The host contract of :func:`~repro.pregel.compute.compute_block`."""
        return self.config.continuous

    def note_cost(self, vertex, cost):
        """Account one vertex's modelled compute cost (compute-host hook)."""
        pid = self.state.partition_of_or_none(vertex)
        if pid is not None:
            self._per_worker_costs[pid] += cost
        self.network.count_compute(cost)

    def _compute_phase(self, inbox):
        """Run the user program through the scalar reference loop; returns
        (computed_count, per_worker_cost)."""
        self._per_worker_costs = [0.0] * self.config.num_workers
        computed = compute_block(
            self, list(self.graph.vertices()), inbox, self.superstep
        )
        return computed, self._per_worker_costs

    # ------------------------------------------------------------------
    # The decision phase: vertex-local proposals, central arbitration
    # ------------------------------------------------------------------

    def _start_active(self):
        """The first round's active set: every vertex, as an id set."""
        return set(self.graph.vertices())

    @property
    def heuristic(self):
        """The decision-host contract of :func:`decide_block`."""
        return self.config.heuristic

    @property
    def placement_of(self):
        """Vertex → partition lookup (None when unassigned), for decisions."""
        return self.state.partition_of_or_none

    def _fresh_decision_context(self):
        """A new decision snapshot at the current epoch, or None before the
        first capacity broadcast."""
        visible = self.capacity_protocol.visible_capacities()
        if visible is None:
            return None
        return DecisionContext(
            round_index=self.superstep,
            remaining=tuple(visible),
            willingness=self.config.willingness,
            lane=self._willingness_lane,
            version=self.superstep,
        )

    def _decision_context(self):
        """This superstep's decision snapshot, honouring the staleness knob.

        With ``snapshot_staleness=0`` every superstep takes a fresh
        snapshot of the last published capacities — the strict-BSP
        behaviour the golden timelines pin.  With ``k > 0`` a snapshot is
        resynced only once its age would exceed ``k``; in between, the
        previous snapshot is re-keyed to the current round
        (:meth:`DecisionContext.aged` — capacity vector and epoch frozen,
        willingness/arbitration draws still per-round).  Updates
        ``_snapshot_age`` as a side effect.
        """
        previous = self._decision_ctx
        if previous is None or self._snapshot_age >= self.config.snapshot_staleness:
            fresh = self._fresh_decision_context()
            if fresh is not None:
                self._snapshot_age = 0
            return fresh
        self._snapshot_age += 1
        return previous.aged(self.superstep)

    def _resync_next_superstep(self):
        """True when the next superstep will take a fresh decision snapshot.

        The barrier consults this to decide whether the (metered) capacity
        broadcast must run: skipping it on barriers whose snapshot will be
        reused is the relaxed-synchrony saving, but the barrier *before* a
        resync must publish or the resync would read epoch-old data.
        """
        return (
            self._decision_ctx is None
            or self._snapshot_age >= self.config.snapshot_staleness
        )

    def _decision_needs_full_sweep(self, context):
        """True when this round must evaluate every vertex.

        The active set is exact for heuristics that read only neighbour
        locations; a capacity-consulting heuristic (``uses_capacity``)
        additionally re-evaluates everything on any change of the
        remaining-capacity snapshot — any component change can flip a
        capacity-weighted comparison, so the trigger is conservative by
        design.  Rounds with an unchanged snapshot keep the cheap
        neighbour-of-changed activation.
        """
        return getattr(self.config.heuristic, "uses_capacity", False) and (
            self._last_decision_remaining != context.remaining
        )

    def _generate_proposals(self, context):
        """Central proposal generation: the only path a shard-less
        single-process system has, and the oracle for the shards'.

        Returns ``(vertex, current, desired, willing)`` proposals for every
        candidate that wants to move, in canonical candidate order.  The
        sharded coordinator overrides this to hand back the proposals its
        shards returned with their compute deltas, as one
        :class:`~repro.pregel.migration.ProposalColumns` record.
        """
        candidates = sort_vertices(
            self.graph.vertices()
            if self._decision_needs_full_sweep(context)
            else self._active
        )
        if self._sweeper is not None:
            source = WillingnessSource(context.lane)
            round_index = context.round_index
            s = context.willingness
            _, cur, desired, movers = self._sweeper.decisions(
                self.graph.slots_of(candidates)
            )
            return [
                (v, current, wish, source.willing(round_index, v, s))
                for v, current, wish in zip(
                    map(candidates.__getitem__, movers.tolist()),
                    cur[movers].tolist(),
                    desired[movers].tolist(),
                )
            ]
        return decide_block(self, context, candidates)

    def _partitioning_phase(self):
        """Background migration decisions; returns (requested, blocked)."""
        context = self._decision_ctx
        if context is None:
            return 0, 0
        tracer = self.tracer
        with tracer.span(None, self._decide_counter):
            proposals = self._generate_proposals(context)
            # Arbitration order is a keyed per-round permutation:
            # deterministic and mode/executor-independent like the
            # willingness draws (its own derived lane, so priority never
            # correlates with the coin), but unbiased across rounds — a
            # fixed canonical order would hand scarce quota lanes to the
            # lowest ids every superstep.
            with tracer.span(
                "arbitrate", superstep=self.superstep, proposals=len(proposals)
            ):
                requested, blocked, kept_active = self._arbitrate(
                    proposals,
                    WillingnessSource(context.lane, "arbitration"),
                    context.round_index,
                    QuotaTable(context.remaining, self.config.num_workers),
                    partial(self.config.balance.load_of, self.graph),
                )
        self._active = kept_active
        self._last_decision_remaining = context.remaining
        return requested, blocked

    def _arbitrate(self, proposals, order, round_index, quotas, load_of):
        """Order one round's proposals and meter them, row by row — the
        oracle (the coordinator overrides this with the column path)."""
        draws = order.draw_map(round_index, (p[0] for p in proposals))
        return arbitrate_proposals(
            sort_proposals(proposals, priority=draws.__getitem__),
            self.migration, quotas, load_of,
        )

    def _placement_update(self, vertex_id, new_worker):
        """Flip one announced migration in the placement, with delta upkeep.

        A method (not a closure) so the sharded
        :class:`~repro.cluster.coordinator.Coordinator` can observe moves.
        """
        old = self.state.partition_of(vertex_id)
        self.state.move(vertex_id, new_worker)
        load = self.config.balance.load_of(self.graph, vertex_id)
        self.metrics.on_move(vertex_id, old, new_worker, load)
        self._active.add(vertex_id)
        self._active.update(self.graph.neighbors(vertex_id))

    def _announce_migrations(self):
        """Apply this superstep's migration announcements to the placement."""
        return self.migration.announce_barrier(self._placement_update)

    def _maybe_fail_worker(self):
        """Execute a scheduled worker failure; returns the worker or None."""
        worker = self.fault_plan.worker_failing_at(self.superstep)
        if worker is None:
            return None
        victims = [
            v
            for v, pid in self.state.assignment_items()
            if pid == worker
        ]
        self.checkpointer.restore_vertices(
            victims,
            self.values,
            reinitialise=lambda vid: self.program.initial_value(vid, self.graph),
        )
        # The barrier cannot complete: all in-flight messages are lost.
        self.router.deliver()
        self.router.take_inbox()
        self.network.count_recovery()
        return worker

    def _after_barrier(self):
        """Hook at the very end of the barrier (all state settled).

        The sharded :class:`~repro.cluster.coordinator.Coordinator` builds
        its shard patches here; the single-process system needs nothing.
        """

    # ------------------------------------------------------------------
    # The superstep
    # ------------------------------------------------------------------

    def run_superstep(self):
        """Execute one full superstep; returns its :class:`SuperstepReport`."""
        with self.tracer.span("superstep", superstep=self.superstep + 1):
            return self._run_superstep()

    def _run_superstep(self):
        """The superstep body."""
        tracer = self.tracer
        self.superstep += 1
        # Freeze the decision snapshot before compute: the sharded
        # coordinator ships it with the compute tasks, the single-process
        # system reads it afterwards — both therefore decide against the
        # identical pre-compute state (compute never changes placement,
        # adjacency or capacities).
        self._decision_ctx = (
            self._decision_context() if self.config.adaptive else None
        )
        inbox = self.router.take_inbox()
        with tracer.span(
            "compute", self._compute_counter, superstep=self.superstep
        ) as phase:
            computed, per_worker = self._compute_phase(inbox)
            phase.note(computed=computed)
        # Hot-spot aware balancing (§6 future work): feed measured
        # per-worker compute back into the balance policy so hot workers
        # offer less capacity and shed vertices.
        observe = getattr(self.config.balance, "observe_activity", None)
        if observe is not None and any(per_worker):
            observe(per_worker)
        if self.config.adaptive:
            requested, blocked = self._partitioning_phase()
        else:
            requested, blocked = 0, 0

        # ---- barrier (order matters; see module docstring) ----
        with tracer.span(
            "barrier", self._barrier_counter, superstep=self.superstep
        ) as phase:
            self.migration.complete_barrier()
            with tracer.span("deliver"):
                self.router.deliver()  # classified against the old placement
            with tracer.span("announce"):
                announced = self._announce_migrations()
            mutations = self._apply_pending_events()
            self._refresh_capacities()
            if self._resync_next_superstep():
                # Relaxed synchrony: barriers whose snapshot will be reused
                # skip the metered capacity broadcast entirely (with
                # staleness 0 this publishes every barrier, exactly the
                # strict protocol).
                self.capacity_protocol.publish(self._remaining_capacities())
            self.aggregators.barrier()
            self.checkpointer.maybe_checkpoint(self.superstep, self.values)
            failed_worker = self._maybe_fail_worker()
            self._after_barrier()
            traffic = self.network.barrier(self.superstep)
            phase.note(announced=len(announced))

        self._supersteps_counter.add(1)
        self._migrations_counter.add(len(announced))
        self.detector.observe(len(announced))
        report = SuperstepReport(
            superstep=self.superstep,
            traffic=traffic,
            migrations_requested=requested,
            migrations_announced=len(announced),
            migrations_blocked=blocked,
            cut_edges=self.state.cut_edges,
            cut_ratio=self.state.cut_ratio(),
            sizes=self.state.sizes,
            computed_vertices=computed,
            mutations_applied=mutations,
            failed_worker=failed_worker,
            per_worker_compute=per_worker,
        )
        self.reports.append(report)
        return report

    def run(self, num_supersteps):
        """Run a fixed number of supersteps; returns their reports."""
        return [self.run_superstep() for _ in range(num_supersteps)]

    def run_until_quiescent(self, max_supersteps=10000):
        """Classic (non-continuous) mode: run until all halted and no mail."""
        reports = []
        while self.superstep < max_supersteps:
            reports.append(self.run_superstep())
            all_halted = len(self.halted) >= self.graph.num_vertices
            if not self.config.continuous and all_halted and not self.router.has_pending():
                break
        return reports

    def audit(self):
        """Every invariant check, O(|V| + |E|): graph structure, then sizes,
        cut and loads against a recount; a violation raises AssertionError."""
        self.graph.validate()
        self.metrics.cross_check()

    @property
    def partitioning_converged(self):
        """True after ``quiet_window`` supersteps without announcements."""
        return self.detector.converged
