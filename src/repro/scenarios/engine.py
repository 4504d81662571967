"""The scenario engine: replay a churn schedule through an execution stack.

:func:`play_scenario` is the single entry point the CLI, the benchmarks and
the golden-timeline regression suites share.  Two engines replay the same
churn schedule:

* ``engine="adaptive"`` (default) — the logical round loop: build the seed
  graph, hash-partition it, optionally let the adaptive algorithm settle,
  then drain the schedule round by round through
  :class:`~repro.core.runner.AdaptiveRunner`.  With ``adaptive=False`` the
  engine never steps — new vertices still land by hash placement, which is
  exactly the paper's static-hash cluster of the paired experiment.
* ``engine="pregel"`` — the full distributed simulation: the same rounds
  drive a sharded :class:`~repro.cluster.coordinator.Coordinator` (vertex
  program + messages + deferred-migration protocol + capacity broadcasts),
  one superstep per adaptive iteration, on any
  :mod:`~repro.cluster.executor` backend.  The per-superstep
  :class:`~repro.pregel.system.SuperstepReport` timeline is exposed via
  :meth:`ScenarioResult.superstep_digest` and is bit-identical across
  executors (the cluster golden suite pins it).

Timelines are a pure function of ``(scenario, engine, adaptive[, program])``
— decision path, metrics mode and executor provably do not matter (the
golden suites pin the first two, the cross-executor suite the third).
"""

from dataclasses import dataclass

from repro.analysis.cost_model import CostModel
from repro.core.balance import VertexBalance
from repro.core.runner import AdaptiveConfig, AdaptiveRunner
from repro.graph.stream import batch_by_count, batch_by_time
from repro.partitioning.base import balanced_capacities
from repro.partitioning.hashing import HashPartitioner
from repro.pregel.network import SuperstepTraffic

__all__ = ["ENGINES", "RoundRecord", "ScenarioResult", "play_scenario"]

ENGINES = ("adaptive", "pregel")

# One model for every engine's "modelled superstep cost" column, so numbers
# are comparable across engines and scenarios.
_COST_MODEL = CostModel()


@dataclass(frozen=True)
class RoundRecord:
    """Everything observable about one scenario round."""

    round: int
    time: float
    events: int          # events offered in this round's batch
    changed: int         # events that actually changed the graph
    migrations: int      # migrations executed across the round's iterations
    cut_edges: int
    cut_ratio: float
    sizes: tuple
    num_vertices: int
    num_edges: int
    imbalance: float     # max partition size over the balanced load
    quiet_iterations: int  # convergence-window fill after the round
    converged: bool      # quiet window full at end of round
    superstep_cost: float  # modelled cost of the round's iterations


class ScenarioResult:
    """A completed scenario run: per-round records plus summaries."""

    # ``backend`` is ignored: there is one graph class.  The parameter stays
    # positional for the frozen perf ledger (benchmarks/e2e/workloads.py).
    def __init__(self, scenario, backend, adaptive, rounds, settle_iterations,
                 engine="adaptive", reports=None, tracer=None,
                 metrics_registry=None):
        del backend
        self.scenario = scenario
        self.adaptive = adaptive
        self.rounds = rounds
        self.settle_iterations = settle_iterations
        self.engine = engine
        self.reports = reports  # pregel engine: the SuperstepReport timeline
        self.tracer = tracer    # pregel engine: the run's span collector
        self.metrics_registry = metrics_registry  # pregel engine: counters

    def __len__(self):
        return len(self.rounds)

    def series(self, attribute):
        """Extract one per-round column, e.g. ``result.series("cut_ratio")``."""
        return [getattr(r, attribute) for r in self.rounds]

    def final_cut_ratio(self):
        return self.rounds[-1].cut_ratio if self.rounds else None

    def total_migrations(self):
        return sum(r.migrations for r in self.rounds)

    def peak_cut_ratio(self):
        return max((r.cut_ratio for r in self.rounds), default=None)

    def total_cost(self):
        """Modelled cost summed over every round."""
        return sum(r.superstep_cost for r in self.rounds)

    def digest(self):
        """JSON-able exact record for golden-timeline comparison.

        Floats survive a JSON round-trip exactly (``repr`` round-trips), so
        fixtures written from one run compare ``==`` against any later run.
        """
        return {
            "scenario": self.scenario.name,
            "seed": self.scenario.seed,
            "engine": self.engine,
            "adaptive": self.adaptive,
            "rounds": [
                {
                    "round": r.round,
                    "events": r.events,
                    "changed": r.changed,
                    "migrations": r.migrations,
                    "cut_edges": r.cut_edges,
                    "cut_ratio": r.cut_ratio,
                    "sizes": list(r.sizes),
                    "num_vertices": r.num_vertices,
                    "num_edges": r.num_edges,
                    "imbalance": r.imbalance,
                    "quiet_iterations": r.quiet_iterations,
                    "converged": r.converged,
                    "superstep_cost": r.superstep_cost,
                }
                for r in self.rounds
            ],
        }

    def superstep_digest(self):
        """JSON-able exact :class:`SuperstepReport` timeline (pregel engine).

        This is the record the cross-executor golden suite pins: every
        executor backend must reproduce it bit-for-bit.
        """
        if self.reports is None:
            raise ValueError(
                "superstep timelines exist only for engine='pregel' runs"
            )
        return {
            "scenario": self.scenario.name,
            "seed": self.scenario.seed,
            "engine": self.engine,
            "adaptive": self.adaptive,
            "supersteps": [
                {
                    "superstep": r.superstep,
                    "requested": r.migrations_requested,
                    "announced": r.migrations_announced,
                    "blocked": r.migrations_blocked,
                    "cut_edges": r.cut_edges,
                    "cut_ratio": r.cut_ratio,
                    "sizes": list(r.sizes),
                    "computed": r.computed_vertices,
                    "mutations": r.mutations_applied,
                    "failed_worker": r.failed_worker,
                    "per_worker_compute": list(r.per_worker_compute),
                    "traffic": {
                        "local": r.traffic.local_messages,
                        "remote": r.traffic.remote_messages,
                        "migrations": r.traffic.migrations,
                        "notifications": r.traffic.migration_notifications,
                        "capacity": r.traffic.capacity_messages,
                        "compute_units": r.traffic.compute_units,
                        "recovery": r.traffic.recovery_events,
                    },
                }
                for r in self.reports
            ],
        }

    def __repr__(self):
        return (
            f"ScenarioResult({self.scenario.name!r}, engine={self.engine!r}, "
            f"adaptive={self.adaptive}, "
            f"rounds={len(self.rounds)})"
        )


def _batches(scenario, stream):
    """Yield ``(time, events)`` rounds according to the scenario's regime."""
    if scenario.regime == "continuous":
        yield from batch_by_time(stream, scenario.window)
    else:
        for i, events in enumerate(batch_by_count(stream, scenario.batch_size)):
            yield float(i), events


def play_scenario(
    scenario,
    adaptive=True,
    metrics="incremental",
    max_rounds=None,
    engine="adaptive",
    executor=None,
    program=None,
    staleness=0,
    trace=None,
    metrics_registry=None,
):
    """Run ``scenario`` end to end; returns a :class:`ScenarioResult`.

    ``adaptive=False`` replays the identical event sequence without any
    migration activity (the static-hash paired cluster).  ``metrics``
    forwards to the execution config — pass ``"recompute"`` to cross-check
    every round against full recomputation.  ``max_rounds`` truncates long
    streams (benchmarks use it; golden fixtures never do).

    ``engine="pregel"`` replays the scenario through the sharded
    :class:`~repro.cluster.coordinator.Coordinator`; ``executor`` then
    selects where shards run (None/name/instance, see
    :func:`~repro.cluster.executor.make_executor`), ``program`` the vertex
    program (default: PageRank) and ``staleness`` the relaxed-synchrony
    window (:class:`~repro.pregel.system.PregelConfig.snapshot_staleness`:
    decision snapshots are reused for up to that many supersteps between
    capacity resyncs; ``0``, the default, is the strict-BSP behaviour the
    golden fixtures pin).  All three are ignored by the adaptive engine.

    ``trace`` turns on phase-span tracing (pregel engine only): pass a
    :class:`~repro.obs.Tracer` to collect spans in-process, or a path to
    export them on completion (``*.jsonl`` span rows, anything else Chrome
    trace JSON — see :mod:`repro.obs.export`).  ``metrics_registry``
    supplies the run's :class:`~repro.obs.MetricsRegistry` (one is created
    either way; passing yours lets several runs share counters).  Both are
    pure measurement — timelines and digests are byte-identical with them
    on or off.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")
    if engine == "pregel":
        return _play_pregel(
            scenario, adaptive, metrics, max_rounds, executor,
            program, staleness, trace, metrics_registry,
        )
    if trace is not None or metrics_registry is not None:
        raise ValueError(
            "trace/metrics_registry require engine='pregel' (the adaptive "
            "round loop has no phase instrumentation)"
        )
    return _play_adaptive(scenario, adaptive, metrics, max_rounds)


# ----------------------------------------------------------------------
# engine="adaptive": the logical round loop
# ----------------------------------------------------------------------


def _adaptive_round_cost(scenario, step_stats):
    """Modelled cost of one adaptive round, via the shared cost model.

    The logical runner exchanges no application messages, so the modelled
    cost covers what the distributed system would have paid for the round's
    partitioning work: one heuristic evaluation per active vertex (compute
    units), the admitted migrations, and the per-iteration capacity
    broadcast (k·(k−1) messages each).
    """
    k = scenario.num_partitions
    traffic = SuperstepTraffic(
        migrations=sum(s.migrations for s in step_stats),
        capacity_messages=k * (k - 1) * len(step_stats),
        compute_units=float(sum(s.active_vertices for s in step_stats)),
    )
    return _COST_MODEL.time_of(traffic)


def _play_adaptive(scenario, adaptive, metrics, max_rounds):
    graph = scenario.build_graph()
    capacities = balanced_capacities(
        max(1, graph.num_vertices), scenario.num_partitions, scenario.slack
    )
    state = HashPartitioner().partition(
        graph, scenario.num_partitions, list(capacities)
    )
    config = AdaptiveConfig(
        willingness=scenario.willingness,
        quiet_window=scenario.quiet_window,
        seed=scenario.seed,
        # The scenario's slack must reach the balance policy: the runner
        # refreshes capacities from it, not from the initial vector above.
        balance=VertexBalance(slack=scenario.slack),
        metrics=metrics,
    )
    runner = AdaptiveRunner(graph, state, config)
    if adaptive and scenario.settle_iterations:
        runner.run_until_convergence(max_iterations=scenario.settle_iterations)
    settle_iterations = runner.iteration

    stream = scenario.build_stream(graph)
    rounds = []

    def record(index, time, offered, changed, step_stats):
        sizes = state.sizes
        rounds.append(
            RoundRecord(
                round=index,
                time=time,
                events=offered,
                changed=changed,
                migrations=sum(s.migrations for s in step_stats),
                cut_edges=state.cut_edges,
                cut_ratio=state.cut_ratio(),
                sizes=tuple(sizes),
                num_vertices=graph.num_vertices,
                num_edges=graph.num_edges,
                imbalance=state.imbalance(),
                quiet_iterations=runner.quiet_iterations,
                converged=runner.converged,
                superstep_cost=_adaptive_round_cost(scenario, step_stats),
            )
        )

    index = 0
    for time, events in _batches(scenario, stream):
        if max_rounds is not None and index >= max_rounds:
            break
        changed = runner.apply_events(events)
        step_stats = []
        if adaptive:
            for _ in range(scenario.steps_per_round):
                step_stats.append(runner.step())
        record(index, time, len(events), changed, step_stats)
        index += 1

    if adaptive:
        # Cooldown rounds carry no stream time; -1.0 marks them (NaN would
        # break the golden fixtures' exact equality).
        for _ in range(scenario.cooldown_rounds):
            step_stats = [
                runner.step() for _ in range(scenario.steps_per_round)
            ]
            record(index, -1.0, 0, 0, step_stats)
            index += 1

    return ScenarioResult(scenario, None, adaptive, rounds, settle_iterations)


# ----------------------------------------------------------------------
# engine="pregel": the sharded distributed simulation
# ----------------------------------------------------------------------


def _play_pregel(scenario, adaptive, metrics, max_rounds, executor,
                 program, staleness=0, trace=None,
                 metrics_registry=None):
    from repro.apps.pagerank import PageRank
    from repro.cluster.coordinator import Coordinator
    from repro.obs import Tracer, write_trace
    from repro.pregel.system import PregelConfig

    tracer = None
    trace_path = None
    if trace is not None:
        if isinstance(trace, Tracer):
            tracer = trace
        else:
            trace_path = trace
            tracer = Tracer()
    if scenario.steps_per_round < 1:
        raise ValueError(
            "the pregel engine needs steps_per_round >= 1: stream mutations "
            "apply at superstep barriers, so a round must run at least one"
        )
    graph = scenario.build_graph()
    if program is None:
        program = PageRank()
    config = PregelConfig(
        num_workers=scenario.num_partitions,
        adaptive=adaptive,
        continuous=True,
        willingness=scenario.willingness,
        balance=VertexBalance(slack=scenario.slack),
        seed=scenario.seed,
        quiet_window=scenario.quiet_window,
        metrics=metrics,
        snapshot_staleness=staleness,
    )
    # Context-managed: an exception anywhere mid-scenario (bad spec, a
    # worker crash, a failing program) must stop the executor's worker
    # processes, never orphan them.
    with Coordinator(
        graph, program, config, executor=executor, tracer=tracer,
        metrics_registry=metrics_registry,
    ) as system:
        settle_iterations = 0
        if adaptive and scenario.settle_iterations:
            while (
                not system.partitioning_converged
                and settle_iterations < scenario.settle_iterations
            ):
                system.run_superstep()
                settle_iterations += 1

        stream = scenario.build_stream(graph)
        state = system.state
        rounds = []

        def run_round(index, time, events):
            system.inject_events(events)
            reports = [
                system.run_superstep()
                for _ in range(scenario.steps_per_round)
            ]
            rounds.append(
                RoundRecord(
                    round=index,
                    time=time,
                    events=len(events),
                    changed=sum(r.mutations_applied for r in reports),
                    migrations=sum(r.migrations_announced for r in reports),
                    cut_edges=state.cut_edges,
                    cut_ratio=state.cut_ratio(),
                    sizes=tuple(state.sizes),
                    num_vertices=graph.num_vertices,
                    num_edges=graph.num_edges,
                    imbalance=state.imbalance(),
                    quiet_iterations=system.detector.quiet_iterations,
                    converged=system.detector.converged,
                    superstep_cost=sum(
                        _COST_MODEL.time_of(r.traffic) for r in reports
                    ),
                )
            )

        index = 0
        for time, events in _batches(scenario, stream):
            if max_rounds is not None and index >= max_rounds:
                break
            run_round(index, time, events)
            index += 1

        if adaptive:
            for _ in range(scenario.cooldown_rounds):
                run_round(index, -1.0, [])
                index += 1

        result = ScenarioResult(
            scenario,
            None,
            adaptive,
            rounds,
            settle_iterations,
            engine="pregel",
            reports=list(system.reports),
            tracer=system.tracer,
            metrics_registry=system.metrics_registry,
        )
    # Export outside the with-block: the executor is stopped, so every
    # worker-side span the run will ever produce has been absorbed.
    if trace_path is not None:
        write_trace(tracer.spans, trace_path)
    return result
