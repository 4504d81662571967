"""Synchronous-round execution of the adaptive heuristic.

:class:`AdaptiveRunner` drives the paper's algorithm the way §2 defines it
logically: at every iteration each vertex decides against the *start-of-
iteration* state (decisions in a round never see each other), willingness
``s`` gates each attempted migration, the quota table meters admissions, and
all admitted moves apply together at the end of the round.

The runner is also the adaptation entry point: :meth:`apply_events` feeds
graph mutations (from any :mod:`repro.graph.stream` source) through
:mod:`repro.core.ingest` — the event applier both engines share — which
re-activates the affected vertices; the convergence window resets, after
which stepping resumes — the paper's "background algorithm" behaviour
without the distributed machinery (that lives in :mod:`repro.pregel`).
Cut, sizes and per-partition loads are maintained as deltas by
:class:`~repro.core.incremental.IncrementalMetrics`, so long churn runs pay
O(changes) per round, not O(|V|); ``metrics="recompute"`` re-derives
everything from scratch each round as a debug cross-check.

An exact *active-set* optimisation keeps long converged phases cheap: the
paper's greedy rule depends only on a vertex's neighbour locations, so a
vertex that chose to stay cannot change its mind until a neighbour moves or
the graph mutates around it.  Heuristics that consult capacities
(``uses_capacity``) get the same story plus a *capacity trigger*: a round
whose remaining-capacity vector differs from the last evaluated round's
re-evaluates every vertex (any component change can flip a
capacity-weighted comparison — crossing-only triggers would be unsound for
a continuous openness weight), while rounds with an unchanged vector keep
the cheap neighbour-of-changed activation.  Convergence is exactly where
that pays: no migrations and no churn means no capacity movement, so quiet
phases cost O(active) instead of a full sweep per round.

With the paper's greedy heuristic (and numpy), per-vertex decisions are
produced by the vectorised :class:`~repro.core.sweep.CompactSweeper` over
the graph's CSR mirror instead of per-vertex histogram dicts; the round
semantics (candidate order, RNG stream, tie-breaks, quota contention) are
bit-for-bit identical to the per-vertex path, which the portable-vs-sweep
equivalence suite pins.  The arrays it reads belong to the
graph and the state, so the runner has nothing to keep in sync.
"""

from dataclasses import dataclass, field

from repro.core.balance import VertexBalance
from repro.core.capacity import QuotaTable
from repro.core.convergence import PAPER_QUIET_WINDOW, ConvergenceDetector
from repro.core.heuristic import GreedyMaxNeighbours, MigrationHeuristic, make_heuristic
from repro.core.incremental import IncrementalMetrics
from repro.core.ingest import apply_event, apply_events, make_ingestor
from repro.core.metrics import IterationStats, Timeline
from repro.core.sweep import generic_decisions, make_sweeper, sort_vertices
from repro.partitioning.hashing import HashPartitioner
from repro.utils import make_rng

__all__ = ["AdaptiveConfig", "AdaptiveRunner", "run_to_convergence"]

DEFAULT_WILLINGNESS = 0.5


@dataclass
class AdaptiveConfig:
    """Tunables of the adaptive algorithm.

    ``willingness`` is the paper's ``s`` (migrate with probability s when a
    better partition exists; the paper recommends 0.5); ``quiet_window`` is
    the convergence criterion (30); ``heuristic`` may be a name from
    :data:`repro.core.heuristic.HEURISTICS` or an instance; ``balance``
    is a :class:`~repro.core.balance.BalancePolicy`.

    ``metrics`` selects the bookkeeping mode: ``"incremental"`` (default)
    maintains loads/cut/sizes as deltas per admitted move and applied event;
    ``"recompute"`` additionally recomputes everything from scratch every
    round and raises on drift — the debug cross-check, and the baseline the
    scenario benchmark measures the incremental engine against.  The two
    modes produce bit-identical timelines (property-tested).
    """

    willingness: float = DEFAULT_WILLINGNESS
    quiet_window: int = PAPER_QUIET_WINDOW
    seed: int = 0
    heuristic: object = field(default_factory=GreedyMaxNeighbours)
    balance: object = field(default_factory=VertexBalance)
    placement: object = field(default_factory=HashPartitioner)
    metrics: str = "incremental"

    def __post_init__(self):
        if not 0.0 <= self.willingness <= 1.0:
            raise ValueError("willingness s must be in [0, 1]")
        if isinstance(self.heuristic, str):
            self.heuristic = make_heuristic(self.heuristic)
        if not isinstance(self.heuristic, MigrationHeuristic):
            raise TypeError("heuristic must be a MigrationHeuristic or name")
        if self.metrics not in ("incremental", "recompute"):
            raise ValueError('metrics must be "incremental" or "recompute"')


class AdaptiveRunner:
    """Iterates the adaptive heuristic over a graph + partition state."""

    def __init__(self, graph, state, config=None):
        self.graph = graph
        self.state = state
        self.config = config or AdaptiveConfig()
        self._rng = make_rng(self.config.seed, "adaptive_runner")
        self.detector = ConvergenceDetector(self.config.quiet_window)
        self.timeline = Timeline()
        self.iteration = 0
        self._capacities = None
        self._active = None
        self._last_remaining = None  # capacity trigger (uses_capacity)
        self._sweeper = make_sweeper(graph, state, self.config.heuristic)
        if self._sweeper is not None:
            # Build the CSR mirror and the id table off the hot path.
            graph.ensure_csr()
            graph.id_table()
        self.metrics = IncrementalMetrics(graph, state, self.config.balance)
        self._ingestor = make_ingestor(self)
        self._refresh_capacities()
        self._activate_all()

    # ------------------------------------------------------------------
    # Balance bookkeeping
    # ------------------------------------------------------------------

    def _refresh_capacities(self):
        """Recompute capacities from the live graph (O(k) for the shipped
        policies).

        The balance policy is the single source of truth for capacities —
        ``state.capacities`` is kept in sync so no stale vector set by an
        initial partitioner can disagree with the quotas.  Loads are *not*
        recomputed here: :class:`IncrementalMetrics` maintains them as
        deltas per admitted move / applied event.
        """
        self._capacities = list(
            self.config.balance.capacities(self.graph, self.state.num_partitions)
        )
        self.state.capacities = list(self._capacities)

    @property
    def loads(self):
        """Copy of the per-partition load vector (in balance-policy units)."""
        return self.metrics.loads

    @property
    def capacities(self):
        """Copy of the per-partition capacity vector."""
        return list(self._capacities)

    def remaining_capacities(self):
        """``C_t(i)`` vector: capacity minus current load, per partition."""
        return self.metrics.remaining(self._capacities)

    # ------------------------------------------------------------------
    # Active-set maintenance
    # ------------------------------------------------------------------

    def _needs_full_sweep(self, remaining):
        """True when this round must evaluate every vertex: a
        capacity-consulting heuristic sweeps fully on any change of the
        remaining vector since the last evaluated round (the capacity
        trigger).
        """
        return getattr(self.config.heuristic, "uses_capacity", False) and (
            self._last_remaining != tuple(remaining)
        )

    def _activate_all(self):
        self._active = set(self.graph.vertices())

    def _activate_neighbourhood(self, vertex):
        self._active.add(vertex)
        self._active.update(self.graph.neighbors(vertex))

    @property
    def active_count(self):
        """Number of vertices that will be evaluated next iteration."""
        return len(self._active)

    def _ordered_active(self):
        """The active set as a canonically ordered list.

        Sorting before the shuffle makes a round's RNG pairing a function of
        the active *membership* rather than set iteration order (which
        depends on hash-table insertion history, which two graphs with
        equal membership need not share).
        """
        return sort_vertices(self._active)

    # ------------------------------------------------------------------
    # One iteration
    # ------------------------------------------------------------------

    def step(self):
        """Run one synchronous iteration; returns its :class:`IterationStats`."""
        state = self.state
        config = self.config
        remaining = self.remaining_capacities()
        quotas = QuotaTable(remaining, state.num_partitions)
        candidates = (
            list(self.graph.vertices())
            if self._needs_full_sweep(remaining)
            else self._ordered_active()
        )
        # Random evaluation order so quota contention is unbiased.
        self._rng.shuffle(candidates)

        if self._sweeper is not None:
            decisions = self._sweeper.decisions(candidates, remaining)
        else:
            decisions = generic_decisions(
                state, config.heuristic, candidates, remaining
            )

        admitted_moves = []
        wanted = 0
        blocked = 0
        kept_active = set()
        for v, current, desired in decisions:
            if desired == current:
                continue  # settled: drops out of the active set
            wanted += 1
            kept_active.add(v)  # still unhappy until the move lands
            if self._rng.random() >= config.willingness:
                continue  # willingness coin says wait this iteration
            load = config.balance.load_of(self.graph, v)
            if not quotas.try_consume(current, desired, load):
                blocked += 1
                continue
            admitted_moves.append((v, current, desired, load))

        # Apply all admitted moves together (synchronous semantics: no
        # decision above saw any of these relocations).
        self.metrics.on_moves(admitted_moves)
        self._active = kept_active
        if self._sweeper is not None:
            kept_active.update(self._sweeper.apply_moves(admitted_moves))
        else:
            for v, _, new_pid, __ in admitted_moves:
                state.move(v, new_pid)
                self._activate_neighbourhood(v)

        self.iteration += 1
        self._last_remaining = tuple(remaining)
        sizes = state.sizes
        stats = IterationStats(
            iteration=self.iteration,
            migrations=len(admitted_moves),
            wanted_migrations=wanted,
            blocked_migrations=blocked,
            cut_edges=state.cut_edges,
            cut_ratio=state.cut_ratio(),
            max_partition_size=max(sizes),
            min_partition_size=min(sizes),
            imbalance=state.imbalance(),
            active_vertices=len(candidates),
        )
        self.timeline.append(stats)
        self.detector.observe(stats.migrations)
        if self.config.metrics == "recompute":
            self.metrics.cross_check()
        return stats

    # ------------------------------------------------------------------
    # Convergence loop
    # ------------------------------------------------------------------

    @property
    def converged(self):
        return self.detector.converged

    @property
    def quiet_iterations(self):
        """Consecutive migration-free iterations so far (window fill).

        The scenario engine surfaces this per round so timelines show how
        close the system is to re-convergence after each churn batch.
        """
        return self.detector.quiet_iterations

    @property
    def convergence_time(self):
        """Iterations of useful work before the quiet window (paper metric)."""
        return self.detector.convergence_time

    def run_until_convergence(self, max_iterations=10000):
        """Step until the quiet window fills or ``max_iterations`` elapse.

        Returns the timeline (also kept on the runner).
        """
        while not self.detector.converged and self.iteration < max_iterations:
            self.step()
        return self.timeline

    # ------------------------------------------------------------------
    # Dynamic adaptation
    # ------------------------------------------------------------------

    def apply_events(self, events):
        """Apply graph mutations and re-arm the algorithm around them.

        New vertices are placed by the configured placement strategy (hash
        by default, as in the paper's streaming system); removed vertices
        leave their partition; every touched neighbourhood re-enters the
        active set and the convergence window resets.  Loads, sizes and the
        cut count are maintained as deltas per applied event (O(1) per event
        for degree-insensitive balance policies, O(deg) otherwise) — no full
        recompute happens unless ``metrics="recompute"`` asks for the debug
        cross-check.

        Where the batched path applies (see :mod:`repro.core.ingest`),
        runs of edge events are applied array-at-a-time with bit-identical
        results; anything the bulk path cannot reproduce exactly takes the
        per-event loop.

        Returns the number of events that changed the graph.
        """
        if not isinstance(events, list):
            events = list(events)
        changed = apply_events(self, events)
        if changed:
            self.detector.reset()
            self._refresh_capacities()
            if self.config.metrics == "recompute":
                self.metrics.cross_check()
        return changed

    # The ingest host contract (see repro.core.ingest); the runner keeps no
    # per-vertex state of its own, so the notifications are no-ops.

    def _apply_event(self, event):
        return apply_event(self, event)

    def _vertices_placed(self, placements):
        """Ingest hook: new vertices were interned and placed."""

    def _vertex_removed(self, vertex):
        """Ingest hook: ``vertex`` left the graph and the state."""

    def _edges_changed(self, us, vs, changed):
        """Ingest hook: one bulk edge run applied; ``changed`` flags it."""


def run_to_convergence(graph, state, config=None, max_iterations=10000):
    """One-shot convenience: run the adaptive algorithm to convergence.

    Returns ``(runner, timeline)``; the runner exposes ``convergence_time``
    and the final state remains bound to ``state``.
    """
    runner = AdaptiveRunner(graph, state, config)
    timeline = runner.run_until_convergence(max_iterations=max_iterations)
    return runner, timeline
