"""Scenario composition, file-loaded specs and the richer round records."""

import json
import sys

import pytest

from repro.scenarios import (
    ChurnSpec,
    GraphSpec,
    Scenario,
    get_scenario,
    load_scenario,
    play_scenario,
    scenario_from_dict,
)

from repro.scenarios import io as scenario_io

# TOML parses via tomllib (3.11+) or the tomli backport (3.10 dev extra);
# gate on what the loader actually resolved, not on the stdlib module.
HAVE_TOML = scenario_io._toml is not None


def _composed_scenario(**overrides):
    fields = dict(
        name="composed",
        description="growth with a flash crowd on top",
        graph=GraphSpec("mesh", {"nx": 4}),
        churn=(
            ChurnSpec("growth", {"num_vertices": 16, "duration": 8.0}),
            ChurnSpec(
                "flash-crowd",
                {"num_fans": 10, "at": 4.0, "duration": 2.0},
                seed_offset=1,
            ),
        ),
        window=2.0,
        num_partitions=3,
        settle_iterations=40,
        cooldown_rounds=4,
    )
    fields.update(overrides)
    return Scenario(**fields)


class TestComposition:
    def test_single_churn_normalises_to_tuple(self):
        scenario = get_scenario("mesh-growth")
        assert isinstance(scenario.churn, tuple)
        assert len(scenario.churn) == 1

    def test_invalid_churn_rejected(self):
        with pytest.raises(TypeError, match="churn must be"):
            _composed_scenario(churn=())
        with pytest.raises(TypeError, match="churn must be"):
            _composed_scenario(churn=("growth",))

    def test_composed_stream_is_the_merge_of_its_parts(self):
        scenario = _composed_scenario()
        graph = scenario.build_graph()
        merged = scenario.build_stream(graph)
        part_a = scenario.churn[0].build(graph, seed=scenario.seed)
        part_b = scenario.churn[1].build(graph, seed=scenario.seed)
        assert len(merged) == len(part_a) + len(part_b)
        expected = part_a.merged_with(part_b)
        assert [(te.time, te.event) for te in merged] == [
            (te.time, te.event) for te in expected
        ]

    def test_seed_offset_decorrelates_equal_parts(self):
        scenario = _composed_scenario(
            churn=(
                ChurnSpec("growth", {"num_vertices": 12, "duration": 8.0}),
                ChurnSpec(
                    "growth",
                    {"num_vertices": 12, "duration": 8.0, "id_prefix": "g2"},
                    seed_offset=1,
                ),
            )
        )
        graph = scenario.build_graph()
        a, b = (
            spec.build(graph, seed=scenario.seed) for spec in scenario.churn
        )
        assert [te.time for te in a] != [te.time for te in b]

    def test_composed_scenario_replays_deterministically(self):
        scenario = _composed_scenario()
        first = play_scenario(scenario).digest()
        second = play_scenario(scenario).digest()
        assert first == second
        assert sum(r["changed"] for r in first["rounds"]) > 0

    def test_catalog_composed_scenario_runs(self):
        scenario = get_scenario("mesh-growth-flash")
        result = play_scenario(scenario, max_rounds=6)
        # max_rounds truncates the stream; cooldown rounds still run.
        assert len(result.rounds) == 6 + scenario.cooldown_rounds
        assert result.rounds[-1].num_vertices > 216  # both parts landed


class TestRoundRecordFields:
    def test_round_records_carry_health_columns(self):
        result = play_scenario(get_scenario("mesh-growth"), max_rounds=4)
        for record in result.rounds:
            assert record.imbalance >= 1.0
            assert record.quiet_iterations >= 0
            assert isinstance(record.converged, bool)
            assert record.superstep_cost >= 0.0
        assert any(r.superstep_cost > 0 for r in result.rounds)

    def test_cooldown_reaches_convergence_flag(self):
        result = play_scenario(get_scenario("mesh-growth"))
        assert result.rounds[-1].converged
        assert (
            result.rounds[-1].quiet_iterations
            >= get_scenario("mesh-growth").quiet_window
        )

    def test_static_run_has_zero_cost_and_no_convergence_claim(self):
        result = play_scenario(
            get_scenario("mesh-growth"), adaptive=False, max_rounds=4
        )
        assert all(r.superstep_cost == 0.0 for r in result.rounds)
        assert all(not r.converged for r in result.rounds)

    def test_digest_round_trips_with_new_fields(self):
        digest = play_scenario(
            get_scenario("grid-rewire"), max_rounds=4
        ).digest()
        assert json.loads(json.dumps(digest)) == digest
        for row in digest["rounds"]:
            for key in (
                "imbalance",
                "quiet_iterations",
                "converged",
                "superstep_cost",
            ):
                assert key in row


SPEC_DOC = {
    "name": "file-scenario",
    "description": "loaded from disk",
    "graph": {"kind": "mesh", "params": {"nx": 4}},
    "churn": [
        {"kind": "growth", "params": {"num_vertices": 12, "duration": 8.0}},
        {
            "kind": "flash-crowd",
            "params": {"num_fans": 8, "at": 4.0},
            "seed_offset": 2,
        },
    ],
    "window": 2.0,
    "num_partitions": 3,
    "settle_iterations": 30,
}


class TestSpecLoading:
    def test_from_dict_builds_equivalent_scenario(self):
        scenario = scenario_from_dict(SPEC_DOC)
        assert scenario.name == "file-scenario"
        assert scenario.num_partitions == 3
        assert [c.kind for c in scenario.churn] == ["growth", "flash-crowd"]
        assert scenario.churn[1].seed_offset == 2

    def test_json_spec_loads_and_plays(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(SPEC_DOC), encoding="utf-8")
        scenario = load_scenario(path)
        result = play_scenario(scenario, max_rounds=3)
        assert len(result.rounds) == 3 + scenario.cooldown_rounds
        # File-loaded and dict-built scenarios are the same frozen record.
        assert scenario == scenario_from_dict(SPEC_DOC)

    @pytest.mark.skipif(
        not HAVE_TOML, reason="needs tomllib (3.11+) or tomli installed"
    )
    def test_toml_spec_loads(self, tmp_path):
        toml_doc = """
name = "toml-scenario"
description = "loaded from TOML"
window = 2.0
num_partitions = 3

[graph]
kind = "mesh"
[graph.params]
nx = 4

[[churn]]
kind = "growth"
[churn.params]
num_vertices = 12
duration = 8.0
"""
        path = tmp_path / "scenario.toml"
        path.write_text(toml_doc, encoding="utf-8")
        scenario = load_scenario(path)
        assert scenario.name == "toml-scenario"
        assert scenario.churn[0].kind == "growth"

    @pytest.mark.skipif(
        HAVE_TOML, reason="exercises the no-TOML-parser gate"
    )
    def test_toml_without_any_parser_is_a_clear_error(self, tmp_path):
        path = tmp_path / "scenario.toml"
        path.write_text("name = 'x'\n", encoding="utf-8")
        with pytest.raises(ValueError, match="tomllib.*tomli"):
            load_scenario(path)

    def test_toml_gate_message_names_both_parsers(self, tmp_path,
                                                  monkeypatch):
        # Simulate 3.10-without-tomli regardless of the running
        # interpreter: the error must point at both escape hatches.
        monkeypatch.setattr(scenario_io, "_toml", None)
        path = tmp_path / "scenario.toml"
        path.write_text("name = 'x'\n", encoding="utf-8")
        with pytest.raises(ValueError, match="tomli"):
            load_scenario(path)

    def test_unknown_extension_rejected(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text("{}", encoding="utf-8")
        with pytest.raises(ValueError, match="use .json or .toml"):
            load_scenario(path)

    @pytest.mark.parametrize(
        "mutation, message",
        [
            (lambda d: d.pop("name"), "lacks"),
            (lambda d: d.pop("churn"), "lacks"),
            (lambda d: d.update(tempo=3), "unknown scenario keys"),
            (lambda d: d.update(graph={"params": {}}), "'graph' must be"),
            (
                lambda d: d.update(graph={"kind": "mesh", "parms": {}}),
                "unknown graph keys",
            ),
            (
                lambda d: d.update(churn=[{"params": {}}]),
                "churn entry must be",
            ),
            (
                lambda d: d.update(
                    churn=[{"kind": "growth", "tempo": 1}]
                ),
                "unknown churn keys",
            ),
        ],
    )
    def test_malformed_documents_rejected(self, mutation, message):
        doc = json.loads(json.dumps(SPEC_DOC))
        mutation(doc)
        with pytest.raises(ValueError, match=message):
            scenario_from_dict(doc)


class TestCliSpec:
    def test_cli_spec_flag(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(SPEC_DOC), encoding="utf-8")
        code = main(
            ["scenario", "--spec", str(path), "--max-rounds", "3"],
            out=sys.stdout,
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "file-scenario" in output
        assert "imbal" in output  # the richer table columns

    def test_cli_rejects_conflicting_or_dangling_flags(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(SPEC_DOC), encoding="utf-8")
        # name + --spec conflict
        assert main(
            ["scenario", "mesh-growth", "--spec", str(path)], out=sys.stdout
        ) == 2
        # --workers without a parallel executor
        assert main(
            ["scenario", "mesh-growth", "--engine", "pregel", "--workers", "4"],
            out=sys.stdout,
        ) == 2
        # --executor outside the pregel engine
        assert main(
            ["scenario", "mesh-growth", "--executor", "process"],
            out=sys.stdout,
        ) == 2
        capsys.readouterr()

    def test_cli_pregel_engine(self, capsys):
        from repro.cli import main

        code = main(
            [
                "scenario",
                "mesh-growth",
                "--engine",
                "pregel",
                "--max-rounds",
                "3",
            ],
            out=sys.stdout,
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "pregel (inline executor)" in output
