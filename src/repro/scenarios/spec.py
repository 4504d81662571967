"""Declarative scenario specifications.

A :class:`Scenario` bundles the three things a dynamic experiment needs —
a seed-graph generator, a churn schedule and the runner configuration — as
plain data, so a scenario can be named, listed, replayed bit-for-bit,
serialised into a golden fixture and compared across paired system
configurations (adaptive vs static hash), exactly the paper's methodology.
"""

from dataclasses import dataclass, field, replace

from repro.generators.forest_fire import forest_fire_graph
from repro.generators.mesh import grid_2d, mesh_3d
from repro.generators.powerlaw import powerlaw_cluster_graph
from repro.generators.random_graphs import erdos_renyi_graph, ring_lattice
from repro.graph.graph import Graph
from repro.scenarios.churn import make_churn

__all__ = ["GRAPH_KINDS", "GraphSpec", "ChurnSpec", "Scenario", "scaled"]


GRAPH_KINDS = {
    "mesh": mesh_3d,
    "grid": grid_2d,
    "powerlaw": powerlaw_cluster_graph,
    "erdos-renyi": erdos_renyi_graph,
    "ring": ring_lattice,
    "forest-fire": forest_fire_graph,
    "empty": Graph,
}


@dataclass(frozen=True)
class GraphSpec:
    """A named generator plus its keyword arguments."""

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in GRAPH_KINDS:
            raise ValueError(
                f"unknown graph kind {self.kind!r}; choose from {sorted(GRAPH_KINDS)}"
            )

    def build(self):
        """Generate the seed graph."""
        return GRAPH_KINDS[self.kind](**self.params)


@dataclass(frozen=True)
class ChurnSpec:
    """A named churn schedule plus its keyword arguments (seed excluded).

    ``seed_offset`` decorrelates the RNG streams of composed schedules: a
    scenario composing two specs of the same kind would otherwise hand both
    the identical stream.  The effective seed is ``scenario.seed +
    seed_offset``.
    """

    kind: str
    params: dict = field(default_factory=dict)
    seed_offset: int = 0

    def build(self, graph, seed=0):
        """Generate the event stream against the (settled) base graph."""
        return make_churn(
            self.kind, graph, seed=seed + self.seed_offset, **self.params
        )


@dataclass(frozen=True)
class Scenario:
    """One replayable dynamic experiment.

    ``regime`` selects how the stream drains into rounds: ``"continuous"``
    slices it into fixed ``window``-length time batches (the Twitter mode —
    empty windows still tick), ``"buffered"`` into ``batch_size``-event
    batches (the CDR mode).  Per round the engine applies the batch, then
    runs ``steps_per_round`` adaptive iterations; after the stream drains it
    appends ``cooldown_rounds`` pure-adaptation rounds so re-convergence is
    part of the timeline.  ``settle_iterations`` bounds the pre-churn
    convergence run that gives adaptation a settled starting point.

    ``churn`` is one :class:`ChurnSpec` or a tuple of them; multiple specs
    compose by time-merging their streams
    (:meth:`~repro.graph.stream.EventStream.merged_with`) — e.g. a flash
    crowd landing on top of a diurnal drip.  Equal-time ordering across the
    merged parts follows the specs' declaration order (earlier spec wins
    the tie), with each part keeping its internal FIFO order — a pure
    function of the composed streams, never of what else the process
    happened to build.
    """

    name: str
    description: str
    graph: GraphSpec
    churn: object  # ChurnSpec or tuple of ChurnSpecs
    regime: str = "continuous"
    window: float = 2.0
    batch_size: int = 64
    num_partitions: int = 4
    willingness: float = 0.5
    quiet_window: int = 10
    slack: float = 1.10
    seed: int = 0
    settle_iterations: int = 200
    steps_per_round: int = 2
    cooldown_rounds: int = 10

    def __post_init__(self):
        churn = self.churn
        if isinstance(churn, ChurnSpec):
            churn = (churn,)
        else:
            churn = tuple(churn)
        if not churn or not all(isinstance(c, ChurnSpec) for c in churn):
            raise TypeError(
                "churn must be a ChurnSpec or a non-empty sequence of them"
            )
        object.__setattr__(self, "churn", churn)  # frozen: normalised form
        if self.regime not in ("continuous", "buffered"):
            raise ValueError('regime must be "continuous" or "buffered"')
        if self.regime == "continuous" and self.window <= 0:
            raise ValueError("continuous regime needs a positive window")
        if self.regime == "buffered" and self.batch_size < 1:
            raise ValueError("buffered regime needs batch_size >= 1")
        if self.num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        if self.steps_per_round < 0 or self.cooldown_rounds < 0:
            raise ValueError("steps_per_round/cooldown_rounds must be >= 0")

    def build_graph(self):
        return self.graph.build()

    def build_stream(self, graph):
        """The scenario's event stream: composed parts time-merged."""
        streams = [spec.build(graph, seed=self.seed) for spec in self.churn]
        merged = streams[0]
        for stream in streams[1:]:
            merged = merged.merged_with(stream)
        return merged


def scaled(scenario, **overrides):
    """A copy of ``scenario`` with field overrides (name kept unless given).

    Convenience for benchmarks that take a registry scenario up to stress
    scale: ``scaled(s, graph=GraphSpec(...), window=30.0)``.
    """
    return replace(scenario, **overrides)
