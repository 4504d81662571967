"""Deterministic, replayable dynamic-scenario workloads.

The paper's core claim is *adaptation*: the partitioner keeps cut quality
while the graph churns underneath it.  This package turns that claim into
first-class, regression-testable workloads:

* :mod:`churn` — seeded :class:`~repro.graph.stream.EventStream` factories
  for every churn regime (growth, decay, rewiring, flash crowds, rolling
  windows, the Twitter drip, weekly CDR batches);
* :mod:`spec` — the declarative :class:`Scenario` record: graph generator +
  churn schedule + runner configuration;
* :mod:`engine` — :func:`play_scenario`, replaying a scenario through
  :class:`~repro.core.runner.AdaptiveRunner` round by round (or without
  adaptation: the static-hash paired cluster), or — ``engine="pregel"`` —
  through the sharded :class:`~repro.cluster.coordinator.Coordinator` on
  any executor;
* :mod:`io` — user-defined scenario specs from JSON/TOML files;
* :mod:`registry` — the named catalog (``repro scenario --list``).

Timelines are bit-for-bit reproducible across decision paths and metrics
modes;
``tests/test_golden_timelines.py`` pins three of them as JSON fixtures.
"""

from repro.scenarios.churn import CHURNS, make_churn
from repro.scenarios.engine import (
    ENGINES,
    RoundRecord,
    ScenarioResult,
    play_scenario,
)
from repro.scenarios.io import load_scenario, scenario_from_dict
from repro.scenarios.registry import (
    SCENARIOS,
    get_scenario,
    register_scenario,
    scenario_names,
)
from repro.scenarios.spec import GRAPH_KINDS, ChurnSpec, GraphSpec, Scenario, scaled

__all__ = [
    "CHURNS",
    "ENGINES",
    "GRAPH_KINDS",
    "ChurnSpec",
    "GraphSpec",
    "RoundRecord",
    "SCENARIOS",
    "Scenario",
    "ScenarioResult",
    "get_scenario",
    "load_scenario",
    "make_churn",
    "play_scenario",
    "register_scenario",
    "scaled",
    "scenario_from_dict",
    "scenario_names",
]
