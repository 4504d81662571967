"""The named scenario catalog.

Small, laptop-fast instances of every churn regime.  Benchmarks scale them
up with :func:`repro.scenarios.spec.scaled`; the golden-timeline regression
suite replays a subset bit-for-bit on both decision paths.
"""

from repro.scenarios.spec import ChurnSpec, GraphSpec, Scenario

__all__ = ["SCENARIOS", "get_scenario", "register_scenario", "scenario_names"]

SCENARIOS = {}


def register_scenario(scenario):
    """Add a scenario to the catalog (last registration wins); returns it."""
    SCENARIOS[scenario.name] = scenario
    return scenario


def scenario_names():
    """Sorted catalog names."""
    return sorted(SCENARIOS)


def get_scenario(name):
    """Look up a catalog scenario (ValueError with the catalog if unknown)."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; choose from {scenario_names()}"
        ) from None


register_scenario(
    Scenario(
        name="mesh-growth",
        description="6³ FEM mesh growing 25% by forest-fire arrivals (Fig. 7b)",
        graph=GraphSpec("mesh", {"nx": 6}),
        churn=ChurnSpec("growth", {"num_vertices": 54, "duration": 32.0}),
        regime="continuous",
        window=2.0,
    )
)

register_scenario(
    Scenario(
        name="powerlaw-decay",
        description="Holme–Kim graph losing 25% of its vertices over time",
        graph=GraphSpec("powerlaw", {"num_vertices": 240, "m": 3, "seed": 7}),
        churn=ChurnSpec("decay", {"fraction": 0.25, "duration": 32.0}),
        regime="continuous",
        window=2.0,
    )
)

register_scenario(
    Scenario(
        name="grid-rewire",
        description="2-D grid under constant-size random rewiring",
        graph=GraphSpec("grid", {"nx": 16, "ny": 16}),
        churn=ChurnSpec("rewire", {"num_rewires": 60, "duration": 30.0}),
        regime="continuous",
        window=2.0,
    )
)

register_scenario(
    Scenario(
        name="flash-crowd",
        description="power-law graph hit by a 60-fan burst on its hottest hub",
        graph=GraphSpec("powerlaw", {"num_vertices": 300, "m": 3, "seed": 11}),
        churn=ChurnSpec("flash-crowd", {"num_fans": 60, "at": 4.0, "duration": 4.0}),
        regime="continuous",
        window=1.0,
    )
)

register_scenario(
    Scenario(
        name="rolling-window",
        description="ring community graph with edges expiring on a rolling horizon",
        graph=GraphSpec("ring", {"num_vertices": 300, "neighbours_each_side": 3}),
        churn=ChurnSpec(
            "rolling-window",
            {"rate": 6.0, "duration": 48.0, "horizon": 12.0},
        ),
        regime="continuous",
        window=4.0,
    )
)

register_scenario(
    Scenario(
        name="twitter-drip",
        description="diurnal mention stream building a graph from nothing (Fig. 8)",
        graph=GraphSpec("empty"),
        churn=ChurnSpec(
            "twitter-drip",
            {"duration": 1800.0, "mean_rate": 1.2, "num_users": 400},
        ),
        regime="continuous",
        window=120.0,
        settle_iterations=0,
    )
)

register_scenario(
    Scenario(
        name="mesh-growth-flash",
        description="growing FEM mesh hit mid-stream by a hub flash crowd "
        "(composed churn: growth ⊕ flash-crowd)",
        graph=GraphSpec("mesh", {"nx": 6}),
        churn=(
            ChurnSpec("growth", {"num_vertices": 54, "duration": 32.0}),
            ChurnSpec(
                "flash-crowd",
                {"num_fans": 40, "at": 16.0, "duration": 4.0},
                seed_offset=1,
            ),
        ),
        regime="continuous",
        window=2.0,
    )
)

register_scenario(
    Scenario(
        name="cdr-weekly",
        description="buffered weekly subscriber churn over a month of CDRs (Fig. 9)",
        graph=GraphSpec("empty"),
        churn=ChurnSpec("cdr-weekly", {"subscribers": 300, "weeks": 4, "ties": 4}),
        regime="buffered",
        batch_size=400,
        settle_iterations=0,
        num_partitions=6,
    )
)
