"""Tests for the text visualiser and the command-line interface."""

import io

import pytest

from repro.cli import main
from repro.core import AdaptiveConfig, run_to_convergence
from repro.generators import mesh_3d
from repro.partitioning import HashPartitioner, balanced_capacities
from repro.viz import partition_histogram, render_mesh_slice


class TestRenderMeshSlice:
    def _state(self, side, k=4):
        graph = mesh_3d(side)
        caps = balanced_capacities(graph.num_vertices, k)
        return graph, HashPartitioner().partition(graph, k, list(caps))

    def test_frame_dimensions(self):
        _, state = self._state(5)
        frame = render_mesh_slice(state, 5, 5, 5)
        lines = frame.splitlines()
        assert len(lines) == 5
        assert all(len(line) == 5 for line in lines)

    def test_glyphs_match_partitions(self):
        _, state = self._state(4, k=3)
        frame = render_mesh_slice(state, 4, 4, 4, z=0)
        assert set(frame.replace("\n", "")) <= set("012")

    def test_unassigned_renders_dot(self):
        graph, state = self._state(3)
        victim = (0 * 3 + 0) * 3 + 1  # (0,0,z=1): top-left of middle slice
        state.remove_vertex(victim)
        frame = render_mesh_slice(state, 3, 3, 3)  # default z = 1
        assert frame.splitlines()[0][0] == "."

    def test_z_out_of_range(self):
        _, state = self._state(3)
        with pytest.raises(ValueError):
            render_mesh_slice(state, 3, 3, 3, z=5)

    def test_converged_slice_has_fewer_colour_changes(self):
        # The paper's video: regions coalesce.  Count horizontal glyph
        # transitions before and after adaptation; converged must be lower.
        graph, state = self._state(8, k=4)

        def transitions(frame):
            count = 0
            for line in frame.splitlines():
                count += sum(1 for a, b in zip(line, line[1:]) if a != b)
            return count

        before = transitions(render_mesh_slice(state, 8, 8, 8))
        run_to_convergence(graph, state, AdaptiveConfig(seed=0, quiet_window=10))
        after = transitions(render_mesh_slice(state, 8, 8, 8))
        assert after < before


class TestPartitionHistogram:
    def test_bars_scale_with_sizes(self):
        graph = mesh_3d(3)
        caps = balanced_capacities(graph.num_vertices, 2)
        state = HashPartitioner().partition(graph, 2, list(caps))
        text = partition_histogram(state, width=10)
        lines = text.splitlines()
        assert len(lines) == 2
        assert all("|" in line for line in lines)

    def test_empty_state(self):
        from repro.graph import Graph
        from repro.partitioning import PartitionState

        state = PartitionState(Graph(), 2)
        text = partition_histogram(state)
        assert "p0" in text and "p1" in text


class TestCli:
    def _run(self, argv):
        out = io.StringIO()
        code = main(argv, out=out)
        return code, out.getvalue()

    def test_datasets_lists_catalog(self):
        code, output = self._run(["datasets"])
        assert code == 0
        assert "64kcube" in output
        assert "epinion" in output

    def test_generate_then_partition(self, tmp_path):
        edgelist = tmp_path / "g.txt"
        code, output = self._run(
            ["generate", "plc1000", str(edgelist), "--scale", "0.3"]
        )
        assert code == 0
        assert edgelist.exists()
        assignment = tmp_path / "assignment.jsonl"
        code, output = self._run(
            [
                "partition", str(edgelist), "-k", "4",
                "--max-iterations", "150", "-o", str(assignment),
            ]
        )
        assert code == 0
        assert "adaptive cut ratio" in output
        assert assignment.exists()

    def test_partition_with_metis_strategy(self, tmp_path):
        edgelist = tmp_path / "g.txt"
        self._run(["generate", "1e4", str(edgelist), "--scale", "0.05"])
        code, output = self._run(
            ["partition", str(edgelist), "--strategy", "METIS", "-k", "4"]
        )
        assert code == 0
        assert "METIS initial cut ratio" in output
        # METIS path skips the adaptive loop
        assert "adaptive cut ratio" not in output

    def test_watch_renders_frames(self):
        code, output = self._run(
            ["watch", "--side", "6", "--frames", "2",
             "--iterations-per-frame", "5"]
        )
        assert code == 0
        assert output.count("-- frame") == 2
        assert "final:" in output

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            self._run(["nope"])

    @pytest.mark.parametrize("executor", ["thread", "process"])
    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_scenario_rejects_nonpositive_workers(self, executor, workers):
        # Used to escape as a ValueError traceback from the executor.
        code, output = self._run(
            ["scenario", "mesh-growth", "--engine", "pregel",
             "--executor", executor, "--workers", workers]
        )
        assert code == 2
        assert output == "--workers must be >= 1\n"

    @pytest.mark.parametrize("value", [None, ""])
    def test_scenario_socket_without_addresses_exits_2(
        self, monkeypatch, value
    ):
        # Used to escape as a ValueError traceback from SocketExecutor.start.
        if value is None:
            monkeypatch.delenv("REPRO_SOCKET_WORKERS", raising=False)
        else:
            monkeypatch.setenv("REPRO_SOCKET_WORKERS", value)
        code, output = self._run(
            ["scenario", "mesh-growth", "--engine", "pregel",
             "--executor", "socket"]
        )
        assert code == 2
        assert output.startswith("--executor socket needs worker addresses")
        assert output.count("\n") == 1

    def test_scenario_unknown_name_exits_2(self):
        # Used to escape as a ValueError traceback from get_scenario.
        code, output = self._run(["scenario", "nosuch"])
        assert code == 2
        assert output.startswith("cannot load scenario: unknown scenario")
        assert output.count("\n") == 1

    @pytest.mark.parametrize(
        "filename, text",
        [
            ("missing.json", None),
            ("broken.json", "{not json"),
            ("broken.toml", "name = [unclosed"),
            ("partial.json", '{"name": "half"}'),
        ],
        ids=["missing", "malformed-json", "malformed-toml", "incomplete"],
    )
    def test_scenario_bad_spec_exits_2(self, tmp_path, filename, text):
        # Used to escape as FileNotFoundError / JSONDecodeError /
        # TOMLDecodeError / ValueError tracebacks from load_scenario.
        spec = tmp_path / filename
        if text is not None:
            spec.write_text(text, encoding="utf-8")
        code, output = self._run(["scenario", "--spec", str(spec)])
        assert code == 2
        assert output.startswith("cannot load scenario: ")
        assert output.count("\n") == 1

    def test_scenario_rejects_negative_max_rounds(self):
        # Used to be silently treated as 0.
        code, output = self._run(
            ["scenario", "mesh-growth", "--max-rounds", "-3"]
        )
        assert code == 2
        assert output == "--max-rounds must be >= 0\n"

    def test_workers_help_lists_the_real_executors(self, capsys):
        with pytest.raises(SystemExit):
            self._run(["scenario", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "thread/process/socket" in help_text
        assert "pipelined" not in help_text
        assert "--decisions" not in help_text


class TestLabelPropagation:
    def test_finds_planted_communities(self, two_cliques):
        from repro.apps.label_propagation import LabelPropagation
        from repro.pregel import PregelConfig, PregelSystem

        system = PregelSystem(
            two_cliques,
            LabelPropagation(),
            PregelConfig(num_workers=2, adaptive=False, continuous=False, seed=0),
        )
        system.run_until_quiescent(60)
        communities = LabelPropagation.communities(system.values)
        # the two 4-cliques are found (possibly merged across the bridge)
        assert len(communities) <= 2
        if len(communities) == 2:
            sizes = sorted(len(c) for c in communities.values())
            assert sizes == [4, 4]

    def test_labels_are_valid_vertices(self, small_mesh):
        from repro.apps.label_propagation import LabelPropagation
        from repro.pregel import PregelConfig, PregelSystem

        system = PregelSystem(
            small_mesh,
            LabelPropagation(max_rounds=10),
            PregelConfig(num_workers=2, adaptive=False, continuous=False, seed=0),
        )
        system.run(12)
        assert set(system.values.values()) <= set(small_mesh.vertices())
