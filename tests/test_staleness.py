"""Relaxed synchrony: stale decision snapshots.

The staleness contract has three sides, each pinned here:

* ``snapshot_staleness=0`` (the default) is *bit-identical* to the strict
  BSP protocol the golden fixtures pin — the knob's existence must not
  perturb a single byte of the pregel-* timelines;
* with ``k > 0`` the decision inputs age deliberately (capacity vector and
  epoch frozen for up to ``k`` extra supersteps) but everything else stays
  exact: placement mirrors still track the authoritative assignment under
  churn/migrations/faults, serial and sharded systems still replay
  identical timelines, and a resync barrier fully refreshes the snapshot;
* the capacity broadcast is *skipped* on barriers whose snapshot will be
  reused — one publish per ``k + 1`` supersteps, the protocol's metered
  saving.
"""

import json
from pathlib import Path

import pytest

from repro.apps.pagerank import PageRank
from repro.cluster import Coordinator
from repro.cluster.shard import Shard, ShardTask
from repro.core.heuristic import DecisionContext
from repro.generators import mesh_3d
from repro.graph.events import AddEdge, AddVertex, RemoveEdge, RemoveVertex
from repro.pregel.fault import FaultPlan
from repro.pregel.system import PregelConfig, PregelSystem
from repro.scenarios import get_scenario, play_scenario

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_SCENARIOS = ["mesh-growth", "grid-rewire", "cdr-weekly"]


def _fixture(name):
    return json.loads(
        (GOLDEN_DIR / f"pregel-{name}.json").read_text(encoding="utf-8")
    )


def _report_digest(reports):
    return [
        (
            r.superstep,
            r.migrations_requested,
            r.migrations_announced,
            r.migrations_blocked,
            r.cut_edges,
            tuple(r.sizes),
            r.computed_vertices,
            r.mutations_applied,
            r.traffic.capacity_messages,
        )
        for r in reports
    ]


_CHURN = {
    4: [
        AddVertex(1000),
        AddEdge(1000, 0),
        RemoveVertex(43),
        AddEdge(1000, 87),
        AddEdge(1001, 1002),
        RemoveEdge(0, 1),
    ],
    7: [RemoveVertex(1001), AddEdge(1002, 5)],
}


def _run_churned(system, steps=12, consistency=False):
    """Drive ``system`` through the shared churn script; returns the digest."""
    for step in range(steps):
        events = _CHURN.get(step)
        if events:
            system.inject_events(list(events))
        system.run_superstep()
        if consistency:
            system.shard_consistency_check()
    return _report_digest(system.reports)


# ----------------------------------------------------------------------
# k = 0: bit-identity with the strict protocol
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", GOLDEN_SCENARIOS)
def test_staleness_zero_replays_the_golden_timeline(name):
    """An explicit staleness=0 through the scenario engine changes nothing."""
    digest = play_scenario(
        get_scenario(name), engine="pregel", staleness=0
    ).superstep_digest()
    assert digest == _fixture(name)


def test_snapshot_staleness_validation():
    with pytest.raises(ValueError, match="snapshot_staleness"):
        PregelConfig(snapshot_staleness=-1)
    with pytest.raises(ValueError, match="snapshot_staleness"):
        PregelConfig(snapshot_staleness="2")


# ----------------------------------------------------------------------
# k > 0: systems, modes and executors still agree with each other
# ----------------------------------------------------------------------


@pytest.mark.parametrize("staleness", [1, 3])
def test_systems_and_modes_agree_under_staleness(staleness):
    """Serial system (central decisions) == sharded, at any k.

    Staleness changes *what* is decided (aged inputs) but must never make
    the outcome depend on where the decision runs — the oracle/executor
    identity contract survives relaxed synchrony.  (The remote leg is
    ``test_socket_executor.py``'s ``test_results_identical_under_staleness``.)
    """
    config = PregelConfig(
        num_workers=4,
        seed=3,
        quiet_window=5,
        snapshot_staleness=staleness,
    )
    serial = PregelSystem(mesh_3d(5), PageRank(), config)
    reference = _run_churned(serial)
    with Coordinator(mesh_3d(5), PageRank(), config) as sharded:
        assert _run_churned(sharded, consistency=True) == reference


def test_staleness_window_actually_changes_decisions():
    """k > 0 is a real relaxation: aged inputs alter migration activity.

    (Guards against the window silently resyncing every round, which would
    make every other test here pass vacuously.)
    """
    def run(staleness):
        system = PregelSystem(
            mesh_3d(5),
            PageRank(),
            PregelConfig(
                num_workers=4, seed=3, quiet_window=5,
                snapshot_staleness=staleness,
            ),
        )
        return _run_churned(system)

    assert run(0) != run(3)


def test_mirrors_stay_exact_under_churn_faults_and_staleness():
    """The relaxed protocol still broadcasts placement deltas every
    barrier: shard mirrors (and resident state) must remain exact even
    while decision inputs age, across churn and a worker fault."""
    config = PregelConfig(
        num_workers=4, seed=3, quiet_window=5, snapshot_staleness=2
    )
    with Coordinator(
        mesh_3d(6),
        PageRank(),
        config,
        fault_plan=FaultPlan().add(9, 2),
    ) as system:
        digest = _run_churned(system, steps=14, consistency=True)
    assert sum(row[2] for row in digest) > 0, "no migrations exercised"


# ----------------------------------------------------------------------
# The snapshot lifecycle: versions, ages, resync barriers
# ----------------------------------------------------------------------


@pytest.mark.parametrize("staleness", [0, 1, 3])
def test_resync_fully_refreshes_the_snapshot(staleness):
    """Property: age never exceeds k, and the epoch follows the resync
    cadence exactly — ``version == s - ((s - 1) % (k + 1))`` for a run
    that decides every superstep, so a resync round has ``version == s``.
    """
    system = PregelSystem(
        mesh_3d(4),
        PageRank(),
        PregelConfig(num_workers=3, seed=1, snapshot_staleness=staleness),
    )
    period = staleness + 1
    for _ in range(3 * period + 2):
        system.run_superstep()
        context = system._decision_ctx
        s = system.superstep
        assert context.round_index == s
        assert 0 <= context.age <= staleness
        assert context.version == s - ((s - 1) % period)
        if (s - 1) % period == 0:  # resync round
            assert context.age == 0
            assert context.version == s


def test_capacity_broadcast_is_gated_to_the_resync_cadence():
    """One k·(k−1) publish per (k+1) supersteps — the metered saving.

    Superstep 1's traffic additionally carries the start-of-run publish
    (the protocol needs one barrier to propagate initial capacities).
    """
    def capacity_timeline(staleness, steps=10):
        system = PregelSystem(
            mesh_3d(4),
            PageRank(),
            PregelConfig(num_workers=4, seed=1, snapshot_staleness=staleness),
        )
        return [
            r.traffic.capacity_messages for r in system.run(steps)
        ]

    publish = 4 * 3  # num_workers * (num_workers - 1) metered messages
    assert capacity_timeline(0) == [2 * publish] + [publish] * 9
    assert capacity_timeline(3) == [
        publish, 0, 0, publish, 0, 0, 0, publish, 0, 0
    ]


def test_aged_rekeys_only_the_round_index():
    context = DecisionContext(
        round_index=5,
        remaining=(3.0, 1.0, 0.0),
        willingness=0.5,
        lane=17,
        version=5,
    )
    aged = context.aged(9)
    assert aged.round_index == 9
    assert aged.version == 5
    assert aged.age == 4
    assert aged.remaining == context.remaining
    assert aged.lane == context.lane
    assert aged.num_partitions == 3
    assert context.age == 0  # the original is untouched (frozen)


def test_shard_resolves_stale_rounds_from_its_cache():
    """The wire shape: a fresh snapshot opens the window, a bare round
    index re-keys the cached snapshot (no capacity vector re-shipped)."""
    shard = Shard(0, PageRank(), None, continuous=True)

    def task(decision):
        return ShardTask(
            superstep=1, inbox={}, num_vertices=0, agg_previous={},
            decision=decision,
        )

    assert shard._decision_snapshot(task(None)) is None
    fresh = DecisionContext(
        round_index=3, remaining=(2.0, 2.0), willingness=0.5, lane=7,
        version=3,
    )
    assert shard._decision_snapshot(task(fresh)) is fresh
    stale = shard._decision_snapshot(task(5))
    assert stale == fresh.aged(5)
    assert stale.version == 3 and stale.age == 2
