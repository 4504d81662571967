"""Self-auditing runs: each engine's ``audit()`` runs every invariant check.

``AdaptiveRunner.audit()`` and ``PregelSystem.audit()`` validate the graph
and cross-check sizes, cut and loads against a full recount;
``Coordinator.audit()`` adds the shard-mirror comparison.  These tests
corrupt one piece of state the incremental bookkeeping would never touch
again and assert the next audit names it — and that the recount itself
never repairs what it reports.
"""

import io
import json

import pytest

from repro.apps.pagerank import PageRank
from repro.cli import main
from repro.cluster import Coordinator, LocalWorkerPool, SocketExecutor
from repro.core import AdaptiveConfig, AdaptiveRunner
from repro.generators import mesh_3d
from repro.partitioning import HashPartitioner, balanced_capacities
from repro.pregel.system import PregelConfig

K = 4


def _runner():
    graph = mesh_3d(4)
    caps = balanced_capacities(graph.num_vertices, K, slack=1.2)
    state = HashPartitioner().partition(graph, K, list(caps))
    runner = AdaptiveRunner(graph, state, AdaptiveConfig(seed=1, quiet_window=5))
    runner.step()
    return runner


def _coordinator(executor="inline"):
    config = PregelConfig(num_workers=K, seed=1, quiet_window=5)
    return Coordinator(mesh_3d(4), PageRank(), config, executor=executor)


def test_cross_check_reports_load_drift_without_repairing_it():
    metrics = _runner().metrics
    metrics._loads[0] += 0.5
    drifted = metrics.loads
    with pytest.raises(AssertionError, match="load drift in partition 0"):
        metrics.cross_check()
    assert metrics.loads == drifted
    with pytest.raises(AssertionError, match="load drift in partition 0"):
        metrics.cross_check()


def _corrupt_column(state):
    slot = 0
    column = state.partition_column()
    column[slot] = (column[slot] + 1) % K
    return f"partition column drift at slots \\[{slot}\\]"


def test_runner_audit_catches_a_corrupted_partition_column():
    runner = _runner()
    runner.audit()
    drift = _corrupt_column(runner.state)
    with pytest.raises(AssertionError, match=drift):
        runner.audit()


def test_coordinator_audit_catches_a_corrupted_partition_column():
    with _coordinator() as system:
        system.run(2)
        system.audit()
        drift = _corrupt_column(system.state)
        with pytest.raises(AssertionError, match=drift):
            system.audit()


def test_coordinator_audit_reads_shard_values_over_sockets():
    """A value changed without a dirty mark never reaches the shards; only
    the shard snapshot, fetched through the worker connection, shows it."""
    with LocalWorkerPool(2) as pool, _coordinator(
        SocketExecutor(pool.addresses)
    ) as system:
        system.run(2)
        system.audit()
        vertex = next(iter(system.graph.vertices()))
        system.values[vertex] = -1.0
        with pytest.raises(AssertionError, match=f"value drift for {vertex!r}"):
            system.audit()


@pytest.mark.parametrize("engine", ["adaptive", "pregel"])
def test_cli_audited_scenario_exits_0_with_the_unaudited_digest(
    engine, tmp_path
):
    digests = []
    for extra in ([], ["--audit"]):
        path = tmp_path / f"digest{len(extra)}.json"
        argv = ["scenario", "cdr-weekly", "--engine", engine,
                "--max-rounds", "4", "--json", str(path), *extra]
        assert main(argv, out=io.StringIO()) == 0
        digests.append(json.loads(path.read_text(encoding="utf-8")))
    assert digests[0] == digests[1]


def test_cli_retired_metrics_flag_exits_2(tmp_path, monkeypatch, capsys):
    """``--metrics`` is gone and must not parse as ``--metrics-json``."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["scenario", "mesh-growth", "--engine", "pregel",
              "--metrics", "recompute"], out=io.StringIO())
    assert exc.value.code == 2
    assert "unrecognized arguments: --metrics" in capsys.readouterr().err
    assert not (tmp_path / "recompute").exists()
