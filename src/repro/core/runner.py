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
O(changes) per round, not O(|V|); :meth:`AdaptiveRunner.audit` recounts
everything from scratch and raises on drift.

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

With the paper's greedy heuristic (and numpy) the whole round runs as
columns over the graph's slots: the active set is an
:class:`~repro.core.sweep.ActiveSlots` mask, its candidates come out as
slots in canonical id order, :class:`~repro.core.sweep.CompactSweeper`
decides over the CSR mirror, :func:`~repro.utils.rng.shuffled_order` and
:func:`~repro.utils.rng.random_column` make the shuffle's and the coins'
exact draws, :meth:`QuotaTable.admit` meters the lanes on the balance
policy's ``load_column``, and the moves apply in one batch whose touched
mask is the next active set — no id list, set or sort in between.
Timelines are bit-for-bit those of the per-vertex path (a ``set`` of
ids), which the portable-vs-sweep equivalence suite pins.
"""

from dataclasses import dataclass, field

from repro.core.balance import VertexBalance
from repro.core.capacity import QuotaTable
from repro.core.convergence import PAPER_QUIET_WINDOW, ConvergenceDetector
from repro.core.heuristic import GreedyMaxNeighbours, MigrationHeuristic, make_heuristic
from repro.core.incremental import IncrementalMetrics
from repro.core.ingest import IngestHost, apply_events, make_ingestor
from repro.core.metrics import IterationStats, Timeline
from repro.core.sweep import ActiveSlots, generic_decisions, make_sweeper, sort_vertices
from repro.utils import make_rng
from repro.utils.rng import random_column, shuffled_order

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
    """

    willingness: float = DEFAULT_WILLINGNESS
    quiet_window: int = PAPER_QUIET_WINDOW
    seed: int = 0
    heuristic: object = field(default_factory=GreedyMaxNeighbours)
    balance: object = field(default_factory=VertexBalance)

    def __post_init__(self):
        if not 0.0 <= self.willingness <= 1.0:
            raise ValueError("willingness s must be in [0, 1]")
        if isinstance(self.heuristic, str):
            self.heuristic = make_heuristic(self.heuristic)
        if not isinstance(self.heuristic, MigrationHeuristic):
            raise TypeError("heuristic must be a MigrationHeuristic or name")


class AdaptiveRunner(IngestHost):
    """Iterates the adaptive heuristic over a graph + partition state.

    An :class:`~repro.core.ingest.IngestHost` with the default hooks: its
    active set is a slot mask on the sweeper path and a ``set`` on the
    portable one; :attr:`active_vertices` is the id view of either.
    """

    def __init__(self, graph, state, config=None):
        self.graph = graph
        self.state = state
        self.config = config or AdaptiveConfig()
        self._rng = make_rng(self.config.seed, "adaptive_runner")
        self.detector = ConvergenceDetector(self.config.quiet_window)
        self.timeline = Timeline()
        self.iteration = 0
        self._capacities = None
        self._last_remaining = None  # capacity trigger (uses_capacity)
        self._sweeper = make_sweeper(graph, state, self.config.heuristic)
        if self._sweeper is not None:
            # Build the CSR mirror and the id table off the hot path.
            graph.ensure_csr()
            graph.id_table()
            self._active = ActiveSlots(graph)
        else:
            self._active = set(graph.vertices())
        self.metrics = IncrementalMetrics(graph, state, self.config.balance)
        self._ingestor = make_ingestor(self)
        self._refresh_capacities()

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

    @property
    def active_count(self):
        """Number of vertices that will be evaluated next iteration."""
        return len(self._active)

    @property
    def active_vertices(self):
        """The ids that will be evaluated next iteration, as a set."""
        return set(self._active)

    # ------------------------------------------------------------------
    # One iteration
    # ------------------------------------------------------------------

    def step(self):
        """Run one synchronous iteration; returns its :class:`IterationStats`."""
        state = self.state
        remaining = self.remaining_capacities()
        quotas = QuotaTable(remaining, state.num_partitions)
        # Sorted, the round's RNG pairing is a function of the active
        # *membership*, not of set iteration order.
        full = self._needs_full_sweep(remaining)
        if self._sweeper is not None:
            candidates = (
                self.graph.slots_of(list(self.graph.vertices()))
                if full
                else self._active.ordered()
            )
            wanted, blocked, migrations = self._sweep_round(candidates, quotas)
        else:
            candidates = (
                list(self.graph.vertices())
                if full
                else sort_vertices(self._active)
            )
            wanted, blocked, migrations = self._portable_round(
                candidates, remaining, quotas
            )
        self.iteration += 1
        self._last_remaining = tuple(remaining)
        sizes = state.sizes
        stats = IterationStats(
            iteration=self.iteration,
            migrations=migrations,
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
        return stats

    def _portable_round(self, candidates, remaining, quotas):
        """One round vertex by vertex: shuffle (so quota contention is
        unbiased), decide, coin, meter, then apply every admitted move
        together (no decision saw any of them).  Returns ``(wanted,
        blocked, migrations)``; the unhappy stay active until they move."""
        config = self.config
        self._rng.shuffle(candidates)
        moves = []
        wanted = blocked = 0
        self._active = set()
        for v, current, desired in generic_decisions(
            self.state, config.heuristic, candidates, remaining
        ):
            if desired == current:
                continue
            wanted += 1
            self._active.add(v)
            if self._rng.random() >= config.willingness:
                continue  # willingness coin says wait this iteration
            load = config.balance.load_of(self.graph, v)
            if not quotas.try_consume(current, desired, load):
                blocked += 1
                continue
            moves.append((v, current, desired, load))
        for v, current, desired, load in moves:
            self.metrics.on_move(v, current, desired, load)
            self.state.move(v, desired)
            self._active.add(v)
            self._active.update(self.graph.neighbors(v))
        return wanted, blocked, len(moves)

    def _sweep_round(self, candidates, quotas):
        """:meth:`_portable_round` as columns over candidate slots, bit for
        bit: the same shuffle and coin draws, quota lanes metered by
        :meth:`QuotaTable.admit` on the policy's load column, the moves
        applied in one batch, and the touched slots the next active set."""
        sweeper = self._sweeper
        rng = self._rng
        slots, cur, desired, movers = sweeper.decisions(
            candidates, shuffled_order(rng, len(candidates))
        )
        slots, cur, desired = slots[movers], cur[movers], desired[movers]
        unhappy = slots  # they stay active until their move lands
        willing = random_column(rng, len(slots)) < self.config.willingness
        slots, cur, desired = slots[willing], cur[willing], desired[willing]
        loads = self.config.balance.load_column(self.graph, slots)
        admitted = quotas.admit(cur, desired, loads)
        slots, cur, desired = slots[admitted], cur[admitted], desired[admitted]
        self.metrics.on_moves(
            cur.tolist(), desired.tolist(), loads[admitted].tolist()
        )
        self._active = ActiveSlots(
            self.graph, sweeper.apply_moves(slots, cur, desired, unhappy)
        )
        return len(movers), len(admitted) - len(slots), len(slots)

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

        New vertices are hash-placed, as in the paper's streaming system;
        removed vertices
        leave their partition; every touched neighbourhood re-enters the
        active set and the convergence window resets.  Loads, sizes and the
        cut count are maintained as deltas per applied event (O(1) per event
        for degree-insensitive balance policies, O(deg) otherwise) — no full
        recount happens unless :meth:`audit` is called.

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
        return changed

    def audit(self):
        """Every invariant check, O(|V| + |E|): graph structure, then sizes,
        cut and loads against a recount; a violation raises AssertionError."""
        self.graph.validate()
        self.metrics.cross_check()


def run_to_convergence(graph, state, config=None, max_iterations=10000):
    """One-shot convenience: run the adaptive algorithm to convergence.

    Returns ``(runner, timeline)``; the runner exposes ``convergence_time``
    and the final state remains bound to ``state``.
    """
    runner = AdaptiveRunner(graph, state, config)
    timeline = runner.run_until_convergence(max_iterations=max_iterations)
    return runner, timeline
