"""Unit tests for the dynamic-scenario subsystem (spec, churn, engine, CLI)."""

import json

import pytest

from repro.cli import main
from repro.core.sweep import sort_vertices
from repro.graph import (
    AddEdge,
    AddVertex,
    EventStream,
    Graph,
    RemoveEdge,
    RemoveVertex,
)
from repro.scenarios import (
    CHURNS,
    SCENARIOS,
    ChurnSpec,
    GraphSpec,
    Scenario,
    get_scenario,
    make_churn,
    play_scenario,
    scaled,
    scenario_names,
)
from repro.scenarios.churn import (
    decay_churn,
    flash_crowd_churn,
    growth_churn,
    rewire_churn,
    rolling_window_churn,
)
from repro.utils import make_rng


def _rolling_window_per_push(graph, *, seed, rate, duration, horizon, locality):
    """The per-push reference: each arrival and expiry inserted in turn."""
    rng = make_rng(seed, "rolling_window")
    vertices = list(graph.vertices())
    stream = EventStream()
    live = {}
    t = 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= duration:
            break
        u = vertices[rng.randrange(len(vertices))]
        v = None
        if rng.random() < locality:
            hops = sort_vertices(graph.neighbors(u))
            if hops:
                w = hops[rng.randrange(len(hops))]
                two_hops = sort_vertices(graph.neighbors(w))
                if two_hops:
                    v = two_hops[rng.randrange(len(two_hops))]
        if v is None or v == u:
            v = vertices[rng.randrange(len(vertices))]
        if v == u:
            continue
        a, b = sort_vertices((u, v))
        if graph.has_edge(a, b):
            continue
        expiry = live.get((a, b))
        if expiry is not None and expiry > t:
            continue
        stream.push(t, AddEdge(a, b))
        stream.push(t + horizon, RemoveEdge(a, b))
        live[(a, b)] = t + horizon
    return stream


@pytest.fixture
def base_graph():
    return Graph([(i, i + 1) for i in range(29)] + [(29, 0)])  # 30-cycle


class TestSpecs:
    def test_unknown_graph_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown graph kind"):
            GraphSpec("no-such-generator")

    def test_unknown_churn_kind_rejected(self, base_graph):
        with pytest.raises(ValueError, match="unknown churn kind"):
            make_churn("no-such-churn", base_graph)

    def test_graph_spec_builds_on_backend(self):
        graph = GraphSpec("grid", {"nx": 4, "ny": 4}).build()
        assert graph.num_vertices == 16
        assert graph.slot_ids == list(graph)  # interned in insertion order

    def test_scenario_validation(self):
        graph = GraphSpec("grid", {"nx": 4})
        churn = ChurnSpec("decay", {"fraction": 0.1})
        with pytest.raises(ValueError, match="regime"):
            Scenario("x", "", graph, churn, regime="sometimes")
        with pytest.raises(ValueError, match="window"):
            Scenario("x", "", graph, churn, window=0.0)
        with pytest.raises(ValueError, match="batch_size"):
            Scenario("x", "", graph, churn, regime="buffered", batch_size=0)

    def test_scaled_overrides(self):
        scenario = get_scenario("mesh-growth")
        bigger = scaled(scenario, seed=9, window=4.0)
        assert (bigger.seed, bigger.window) == (9, 4.0)
        assert bigger.name == scenario.name
        assert scenario.seed == 0  # original untouched


class TestRegistry:
    def test_catalog_covers_every_churn_regime(self):
        used = {part.kind for s in SCENARIOS.values() for part in s.churn}
        assert used == set(CHURNS), "every churn factory needs a catalog entry"

    def test_names_sorted_and_resolvable(self):
        names = scenario_names()
        assert names == sorted(names) and names
        for name in names:
            assert get_scenario(name).name == name

    def test_unknown_scenario_lists_catalog(self):
        with pytest.raises(ValueError, match="mesh-growth"):
            get_scenario("nope")


class TestChurnFactories:
    def test_growth_emits_vertex_then_edges_per_arrival(self, base_graph):
        stream = growth_churn(base_graph, num_vertices=5, duration=10.0)
        per_time = {}
        for te in stream:
            per_time.setdefault(te.time, []).append(te.event)
        for events in per_time.values():
            assert isinstance(events[0], AddVertex)
            assert all(isinstance(e, AddEdge) for e in events[1:])
        assert len(per_time) == 5

    def test_decay_removes_requested_fraction(self, base_graph):
        stream = decay_churn(base_graph, fraction=0.5, duration=8.0)
        assert len(stream) == 15
        assert all(isinstance(te.event, RemoveVertex) for te in stream)
        victims = {te.event.vertex for te in stream}
        assert victims <= set(base_graph.vertices())

    def test_rewire_keeps_size_stable(self, base_graph):
        stream = rewire_churn(base_graph, num_rewires=10, duration=5.0)
        working = base_graph.copy()
        stream.replay_into(working)
        assert working.num_vertices == base_graph.num_vertices
        assert abs(working.num_edges - base_graph.num_edges) <= 10

    def test_flash_crowd_targets_max_degree_hub(self):
        graph = Graph([(0, i) for i in range(1, 8)] + [(1, 2)])
        stream = flash_crowd_churn(graph, num_fans=6, at=1.0, duration=1.0)
        hub_edges = [
            te.event
            for te in stream
            if isinstance(te.event, AddEdge) and te.event.v == 0
        ]
        assert len(hub_edges) == 6  # every fan wires to vertex 0

    def test_rolling_window_expires_every_arrival(self, base_graph):
        stream = rolling_window_churn(
            base_graph, rate=5.0, duration=10.0, horizon=3.0
        )
        adds = [te for te in stream if isinstance(te.event, AddEdge)]
        removes = [te for te in stream if not isinstance(te.event, AddEdge)]
        assert len(adds) == len(removes) and adds
        # Replaying the whole stream (arrivals + expiries) restores topology.
        working = base_graph.copy()
        stream.replay_into(working)
        assert working.num_edges == base_graph.num_edges

    @pytest.mark.parametrize("seed", [0, 1])
    def test_rolling_window_equals_the_per_push_loop(self, seed):
        """One sort over the collected events is the per-push stream."""
        graph = Graph([(i, (i + d) % 60) for i in range(60) for d in (1, 2)])
        params = dict(rate=40.0, duration=20.0, horizon=0.75, locality=0.7)
        bulk = rolling_window_churn(graph, seed=seed, **params)
        oracle = _rolling_window_per_push(graph, seed=seed, **params)
        assert len(bulk) > 500
        assert [(te.time, te.event) for te in bulk] == [
            (te.time, te.event) for te in oracle
        ]

    def test_factories_are_seed_deterministic(self, base_graph):
        for kind in ("growth", "decay", "rewire", "rolling-window"):
            a = make_churn(kind, base_graph, seed=3)
            b = make_churn(kind, base_graph, seed=3)
            assert [(te.time, te.event) for te in a] == [
                (te.time, te.event) for te in b
            ], kind

    def test_streams_are_time_sorted(self, base_graph):
        for kind in CHURNS:
            stream = make_churn(kind, base_graph, seed=1)
            assert isinstance(stream, EventStream)
            times = [te.time for te in stream]
            assert times == sorted(times), kind


class TestEngine:
    def test_adaptive_improves_on_static(self):
        scenario = get_scenario("grid-rewire")
        adaptive = play_scenario(scenario)
        static = play_scenario(scenario, adaptive=False)
        # Identical event application on both clusters...
        assert adaptive.series("changed")[: len(static)] == static.series("changed")
        assert static.total_migrations() == 0
        # ...but only the adaptive side recovers cut quality.
        assert adaptive.final_cut_ratio() < static.final_cut_ratio()

    def test_static_run_has_no_cooldown(self):
        scenario = get_scenario("grid-rewire")
        static = play_scenario(scenario, adaptive=False)
        assert all(r.time >= 0 for r in static.rounds)

    def test_max_rounds_truncates(self):
        result = play_scenario(get_scenario("mesh-growth"), max_rounds=3)
        streamed = [r for r in result.rounds if r.time >= 0]
        assert len(streamed) == 3

    def test_buffered_regime_counts_batches(self):
        result = play_scenario(get_scenario("cdr-weekly"), max_rounds=4)
        streamed = [r for r in result.rounds if r.time >= 0]
        assert [r.events for r in streamed[:-1]] == [400] * (len(streamed) - 1)

    def test_digest_round_trips_exactly_through_json(self):
        result = play_scenario(get_scenario("powerlaw-decay"))
        digest = result.digest()
        assert json.loads(json.dumps(digest)) == digest

    def test_result_summaries(self):
        result = play_scenario(get_scenario("mesh-growth"))
        assert result.peak_cut_ratio() >= result.final_cut_ratio()
        assert len(result.series("cut_ratio")) == len(result)
        assert result.total_migrations() == sum(result.series("migrations"))

    def test_slack_reaches_the_balance_policy(self):
        # Tight slack gates migrations harder than loose slack: the two
        # digests must differ — slack is not a dead field.
        scenario = get_scenario("cdr-weekly")
        tight = play_scenario(scaled(scenario, slack=1.0)).digest()
        loose = play_scenario(scaled(scenario, slack=2.0)).digest()
        assert tight != loose

    def test_sizes_partition_vertices_every_round(self):
        result = play_scenario(get_scenario("cdr-weekly"))
        for r in result.rounds:
            assert sum(r.sizes) == r.num_vertices


class TestScenarioCli:
    def test_list(self, capsys):
        assert main(["scenario", "--list"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    def test_missing_name_prints_catalog(self, capsys):
        assert main(["scenario"]) == 2
        assert "mesh-growth" in capsys.readouterr().out

    def test_run_with_json_digest(self, tmp_path, capsys):
        out_file = tmp_path / "digest.json"
        code = main(
            ["scenario", "mesh-growth", "--max-rounds", "4",
             "--json", str(out_file)]
        )
        assert code == 0
        assert "final cut ratio" in capsys.readouterr().out
        digest = json.loads(out_file.read_text())
        assert digest["scenario"] == "mesh-growth"
        assert digest["rounds"]

    def test_static_flag(self, capsys):
        code = main(["scenario", "grid-rewire", "--static", "--max-rounds", "3"])
        assert code == 0
        assert "static hash" in capsys.readouterr().out

    def test_zero_rounds_handled_cleanly(self, capsys):
        code = main(
            ["scenario", "cdr-weekly", "--static", "--max-rounds", "0"]
        )
        assert code == 0
        assert "no rounds executed" in capsys.readouterr().out

    def test_seed_override(self, capsys):
        code = main(["scenario", "mesh-growth", "--seed", "5", "--max-rounds", "2"])
        assert code == 0
        assert "seed=5" in capsys.readouterr().out
