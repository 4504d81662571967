"""Tests for edge-list and partition/stream persistence."""

import math

import pytest

from repro.generators import mesh_3d, powerlaw_cluster_graph
from repro.graph import AddEdge, AddVertex, Graph, RemoveVertex
from repro.graph.stream import EventStream
from repro.io import (
    load_event_stream,
    load_partition,
    read_edgelist,
    save_event_stream,
    save_partition,
    write_edgelist,
)
from repro.partitioning import HashPartitioner, balanced_capacities


class TestEdgelist:
    def test_roundtrip_preserves_topology(self, tmp_path):
        graph = powerlaw_cluster_graph(120, m=2, seed=0)
        path = tmp_path / "graph.txt"
        write_edgelist(graph, path)
        loaded = read_edgelist(path)
        assert loaded.num_vertices == graph.num_vertices
        assert set(map(frozenset, loaded.edges())) == set(
            map(frozenset, graph.edges())
        )

    # The view checked: the adjacency sets alone, or also the CSR mirror
    # the loaded graph builds ("compact"), which validate() then checks.
    @pytest.mark.parametrize("view", ["adjacency", "compact"])
    @pytest.mark.parametrize("labels", [False, True])
    def test_roundtrip_keeps_isolated_vertices(self, tmp_path, view, labels):
        name = (lambda i: f"v{i}") if labels else int
        graph = Graph([(name(1), name(2)), (name(2), name(3))])
        graph.add_vertices([name(7), name(9)])
        path = tmp_path / "graph.txt"
        write_edgelist(graph, path)
        loaded = read_edgelist(path)
        if view == "compact":
            loaded.ensure_csr()
        assert list(loaded) == list(graph)
        assert (loaded.num_vertices, loaded.num_edges) == (5, 2)
        assert loaded.num_isolated == 2
        loaded.validate()

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# SNAP header\n\n% chaco comment\n1 2\n2 3\n")
        graph = read_edgelist(path)
        assert graph.num_edges == 2

    def test_directed_duplicates_collapse(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1 2\n2 1\n")
        graph = read_edgelist(path)
        assert graph.num_edges == 1

    def test_self_loops_dropped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1 1\n1 2\n")
        graph = read_edgelist(path)
        assert graph.num_edges == 1

    def test_integer_promotion_all_or_nothing(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1 2\nalpha 2\n")
        graph = read_edgelist(path)
        # one non-int id keeps everything as strings
        assert "1" in graph and "alpha" in graph

    def test_pure_int_ids(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("10 20\n")
        graph = read_edgelist(path)
        assert 10 in graph

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("justone\n")
        with pytest.raises(ValueError, match="expected two ids"):
            read_edgelist(path)

    def test_extra_columns_tolerated(self, tmp_path):
        # SNAP files sometimes carry timestamps/weights in column 3
        path = tmp_path / "g.txt"
        path.write_text("1 2 1354000000\n")
        graph = read_edgelist(path)
        assert graph.has_edge(1, 2)


class TestPartitionPersistence:
    def test_roundtrip(self, tmp_path):
        graph = mesh_3d(4)
        caps = balanced_capacities(graph.num_vertices, 3)
        state = HashPartitioner().partition(graph, 3, list(caps))
        path = tmp_path / "partition.jsonl"
        save_partition(state, path)
        loaded = load_partition(graph, path)
        assert dict(loaded.assignment_items()) == dict(state.assignment_items())
        assert loaded.cut_edges == state.cut_edges
        assert loaded.capacities == state.capacities

    def test_infinite_capacities_roundtrip(self, tmp_path):
        graph = Graph([(1, 2)])
        from repro.partitioning import PartitionState

        state = PartitionState(graph, 2)
        state.assign(1, 0)
        state.assign(2, 1)
        path = tmp_path / "p.jsonl"
        save_partition(state, path)
        loaded = load_partition(graph, path)
        assert loaded.capacities == [math.inf, math.inf]

    def test_vanished_vertices_skipped(self, tmp_path):
        graph = mesh_3d(3)
        caps = balanced_capacities(graph.num_vertices, 2)
        state = HashPartitioner().partition(graph, 2, list(caps))
        path = tmp_path / "p.jsonl"
        save_partition(state, path)
        graph.remove_vertex(0)  # churn between save and load
        loaded = load_partition(graph, path)
        assert 0 not in loaded
        assert len(loaded) == graph.num_vertices
        assert loaded.cut_edges == loaded.recompute_cut_edges()


class TestStreamPersistence:
    def test_roundtrip_all_event_kinds(self, tmp_path):
        from repro.graph import RemoveEdge

        stream = EventStream()
        stream.push(0.5, AddVertex("a"))
        stream.push(1.0, AddEdge("a", "b"))
        stream.push(2.0, RemoveEdge("a", "b"))
        stream.push(3.0, RemoveVertex("a"))
        path = tmp_path / "stream.jsonl"
        save_event_stream(stream, path)
        loaded = load_event_stream(path)
        assert [(te.time, te.event) for te in loaded] == [
            (te.time, te.event) for te in stream
        ]

    def test_unknown_kind_raises(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('[1.0, "explode", []]\n')
        with pytest.raises(ValueError, match="unknown event kind"):
            load_event_stream(path)

    def test_replay_equivalence(self, tmp_path):
        # a saved+loaded stream must drive a graph to the same topology
        from repro.generators import TweetStreamConfig, generate_tweet_stream

        stream = generate_tweet_stream(
            TweetStreamConfig(duration=120.0, mean_rate=3.0, num_users=50, seed=1)
        )
        path = tmp_path / "tweets.jsonl"
        save_event_stream(stream, path)
        loaded = load_event_stream(path)
        g1, g2 = Graph(), Graph()
        stream.replay_into(g1)
        loaded.replay_into(g2)
        assert set(map(frozenset, g1.edges())) == set(map(frozenset, g2.edges()))
