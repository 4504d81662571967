"""Migration decision rules.

The paper evaluated "multiple heuristics based on local information" and
chose the simple greedy one (§2.1).  We implement that rule exactly as
:class:`GreedyMaxNeighbours` and keep the interface pluggable so the
ablation benchmark can compare the variants the paper alludes to.

A heuristic sees only what the paper allows a vertex to see: its current
partition, the partition histogram of its own neighbours, and the
partition-level remaining-capacity vector (k numbers, propagated by the
capacity protocol).  It returns the desired destination, or the current
partition to stay.

The decision phase of the distributed simulation evaluates heuristics
*inside shards*, against a frozen :class:`DecisionContext` snapshot of the
global capacity view — exactly the "local state plus global load counters"
the streaming-partitioning line shows is sufficient.  The batched entry
point :meth:`MigrationHeuristic.desired_partitions` is what shards call;
its default simply loops :meth:`~MigrationHeuristic.desired_partition`, so
custom heuristics keep working unchanged.
"""

from dataclasses import dataclass, replace

__all__ = [
    "CapacityWeightedGreedy",
    "DecisionContext",
    "DegreeDiscountedGreedy",
    "GreedyMaxNeighbours",
    "HEURISTICS",
    "MigrationHeuristic",
    "make_heuristic",
]


@dataclass(frozen=True)
class DecisionContext:
    """Frozen global snapshot one decision round evaluates against.

    This is the *entire* non-local state a vertex may consult (§2.1): the
    per-partition remaining-capacity vector published by the capacity
    protocol, the round number, the willingness probability ``s`` and the
    64-bit willingness RNG lane.  The sharded execution layer ships a fresh
    one to every shard at each capacity resync (a wire struct: it crosses
    field by field under its own codec tag, never pickled), and every shard
    (and the single-process reference path) deciding against the same
    snapshot is what makes the decision phase's outcome independent of
    where it runs.

    ``version`` is the snapshot *epoch*: the superstep whose barrier
    published the ``remaining`` vector this context carries.  Under relaxed
    synchrony (``PregelConfig(snapshot_staleness=k)``) the same snapshot is
    reused for up to ``k`` supersteps — only ``round_index`` advances (it
    keys the willingness and arbitration draws, which must stay
    per-round) — so ``version`` lags ``round_index`` by up to ``k`` until a
    resync barrier refreshes it.  With ``k=0`` the two are always equal.
    """

    round_index: int     # superstep/iteration number, keys willingness draws
    remaining: tuple     # per-partition remaining capacity C_t(i)
    willingness: float   # the paper's s
    lane: int            # WillingnessSource lane (derived from the seed)
    version: int = 0     # snapshot epoch: superstep that published `remaining`

    @property
    def num_partitions(self):
        """Number of partitions the capacity vector covers."""
        return len(self.remaining)

    @property
    def age(self):
        """Rounds this snapshot has aged: ``round_index - version``.

        Zero on a fresh (just-resynced) snapshot; never exceeds the
        configured ``snapshot_staleness``.
        """
        return self.round_index - self.version

    def aged(self, round_index):
        """The same frozen snapshot, re-keyed to a later decision round.

        Everything a vertex *reads* (capacity vector, willingness, lane,
        version) is unchanged; only the round the keyed draws are made for
        advances.  This is the whole stale-snapshot operation: shards keep
        deciding against the epoch-``version`` state while the barrier
        skips the capacity resync.
        """
        return replace(self, round_index=round_index)


class MigrationHeuristic:
    """Interface: pick a desired partition from local information only."""

    name = "abstract"

    #: True when decisions consult the remaining-capacity vector.  The
    #: active-set optimisation then adds a *capacity trigger*: a round whose
    #: capacity snapshot differs from the previous round's re-evaluates
    #: every vertex (any component change can flip a capacity-dependent
    #: comparison), while rounds with an unchanged snapshot keep the cheap
    #: neighbour-of-changed activation.
    uses_capacity = False

    def desired_partition(
        self, current_pid, neighbour_counts, remaining_capacity
    ):
        """Return the partition this vertex wants to be in.

        ``neighbour_counts`` maps partition id → number of neighbours there
        (partitions with zero neighbours are absent); ``remaining_capacity``
        is the per-partition free-capacity list.  Returning ``current_pid``
        means stay.
        """
        raise NotImplementedError

    def desired_partitions(self, context, items):
        """Batched decisions against a :class:`DecisionContext` snapshot.

        ``items`` yields ``(vertex, current_pid, neighbour_counts)``; the
        generator yields ``(vertex, current_pid, desired_pid)`` in the same
        order.  Decisions within a round are order-independent (every one
        sees the same frozen snapshot), which is what lets shards evaluate
        their blocks concurrently.  The default defers to the per-vertex
        rule; vectorised implementations (the shard sweeper) bypass this
        only for the exact paper heuristic.
        """
        remaining = context.remaining
        for vertex, current_pid, neighbour_counts in items:
            yield (
                vertex,
                current_pid,
                self.desired_partition(current_pid, neighbour_counts, remaining),
            )


class GreedyMaxNeighbours(MigrationHeuristic):
    """The paper's rule: go where the most neighbours are; prefer to stay.

    ``cand(v) = argmax_i |P(i) ∩ Γ(v)|``; if the current partition is among
    the candidates the vertex stays (migration has a cost).  Among equal
    non-current candidates the lowest id wins, keeping rounds deterministic
    given the willingness RNG.
    """

    name = "greedy"

    def desired_partition(
        self, current_pid, neighbour_counts, remaining_capacity
    ):
        if not neighbour_counts:
            return current_pid
        best_count = max(neighbour_counts.values())
        if neighbour_counts.get(current_pid, 0) == best_count:
            return current_pid
        candidates = [
            pid for pid, count in neighbour_counts.items() if count == best_count
        ]
        return min(candidates)


class CapacityWeightedGreedy(MigrationHeuristic):
    """Ablation variant: discount candidates by destination fullness.

    Score = neighbours(i) × remaining_capacity(i) / (remaining + here).  This
    trades some cut quality for fewer quota-blocked attempts; the ablation
    bench quantifies the difference.
    """

    name = "capacity-weighted"

    uses_capacity = True

    def desired_partition(
        self, current_pid, neighbour_counts, remaining_capacity
    ):
        if not neighbour_counts:
            return current_pid
        best_pid = current_pid
        best_score = None
        here = neighbour_counts.get(current_pid, 0)
        for pid, count in sorted(neighbour_counts.items()):
            remaining = remaining_capacity[pid]
            if pid != current_pid and remaining <= 0:
                continue
            openness = max(remaining, 0) / (max(remaining, 0) + 1.0)
            score = count * (1.0 if pid == current_pid else openness)
            if best_score is None or score > best_score:
                best_score = score
                best_pid = pid
        if best_pid != current_pid and neighbour_counts.get(best_pid, 0) <= here:
            return current_pid
        return best_pid


class DegreeDiscountedGreedy(MigrationHeuristic):
    """Ablation variant: require a strict majority improvement to move.

    Moves only when the best foreign partition holds strictly more than the
    current one *plus a hysteresis margin* of one neighbour — damping
    oscillation without randomness (compared against willingness-s in the
    ablation bench).
    """

    name = "hysteresis"

    margin = 1

    def desired_partition(
        self, current_pid, neighbour_counts, remaining_capacity
    ):
        if not neighbour_counts:
            return current_pid
        here = neighbour_counts.get(current_pid, 0)
        best_pid = current_pid
        best_count = here
        for pid, count in sorted(neighbour_counts.items()):
            if count > best_count:
                best_count = count
                best_pid = pid
        if best_pid != current_pid and best_count < here + 1 + self.margin:
            return current_pid
        return best_pid


HEURISTICS = {
    "greedy": GreedyMaxNeighbours,
    "capacity-weighted": CapacityWeightedGreedy,
    "hysteresis": DegreeDiscountedGreedy,
}


def make_heuristic(name):
    """Instantiate a heuristic by name.

    >>> make_heuristic("greedy").name
    'greedy'
    """
    try:
        return HEURISTICS[name]()
    except KeyError:
        raise ValueError(
            f"unknown heuristic {name!r}; choose from {sorted(HEURISTICS)}"
        ) from None
