"""The shard-local decision phase: oracle identity, keyed RNG, activation.

The contract of the decision phase is that *where* migration proposals are
generated can never change *what* happens:

* the sharded :class:`~repro.cluster.Coordinator` (shard-local generation,
  pinned against the golden fixtures by ``test_cluster_golden.py`` across
  every executor) and the single-process
  :class:`~repro.pregel.system.PregelSystem` (central generation — the
  oracle) replay byte-identical timelines;
* the counter-split willingness RNG is a pure function of
  ``(lane, round, vertex)`` — invariant to shard count, chunking of the
  candidate set, evaluation order, and the scalar/vectorised path split;
* the vectorised :class:`~repro.core.sweep.LocalCsr` shard index and the
  portable :func:`~repro.pregel.compute.decide_block` produce identical
  proposals, and the same index answers the batched kernel's topology
  queries;
* shard placement mirrors track the authoritative assignment exactly under
  churn, migrations and faults.
"""

import json
from pathlib import Path

import pytest

from repro.apps.pagerank import PageRank
from repro.cluster import Coordinator, InlineExecutor
from repro.core.heuristic import (
    CapacityWeightedGreedy,
    DecisionContext,
    GreedyMaxNeighbours,
)
from repro.core.runner import AdaptiveConfig, AdaptiveRunner
from repro.core.sweep import make_shard_index
from repro.generators import mesh_3d, powerlaw_cluster_graph
from repro.graph.events import AddEdge, AddVertex, RemoveEdge, RemoveVertex
from repro.partitioning.base import balanced_capacities
from repro.partitioning.hashing import HashPartitioner
from repro.pregel.compute import decide_block
from repro.pregel.fault import FaultPlan
from repro.pregel.migration import ProposalColumns
from repro.pregel.system import PregelConfig, PregelSystem
from repro.scenarios import get_scenario, play_scenario
from repro.utils.rng import WillingnessSource, vertex_key

try:
    import numpy
except ImportError:  # pragma: no cover - numpy is optional
    numpy = None

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_SCENARIOS = ["mesh-growth", "grid-rewire", "cdr-weekly"]


def _fixture(name):
    return json.loads(
        (GOLDEN_DIR / f"pregel-{name}.json").read_text(encoding="utf-8")
    )


# ----------------------------------------------------------------------
# Oracle identity: central generation (serial) == shard-local (sharded)
# ----------------------------------------------------------------------


def _decision_digest(reports):
    return [
        (
            r.superstep,
            r.migrations_requested,
            r.migrations_announced,
            r.migrations_blocked,
            r.cut_edges,
            tuple(r.sizes),
        )
        for r in reports
    ]


def _serial_and_sharded(make_graph, config, supersteps, events_at=None):
    """Decision digests of the serial oracle and the sharded coordinator.

    Both systems get a fresh graph from ``make_graph`` and the same
    ``{superstep index: events}`` injections; the sharded one also runs
    its shard/mirror consistency check every superstep.
    """
    events_at = events_at or {}
    serial = PregelSystem(make_graph(), PageRank(), config)
    with Coordinator(
        make_graph(), PageRank(), config, executor=InlineExecutor()
    ) as sharded:
        for step in range(supersteps):
            for system in (serial, sharded):
                if step in events_at:
                    system.inject_events(list(events_at[step]))
                system.run_superstep()
            sharded.shard_consistency_check()
        return _decision_digest(serial.reports), _decision_digest(
            sharded.reports
        )


class _SerialOracle(PregelSystem):
    """:class:`PregelSystem` behind the coordinator's constructor, so the
    scenario engine can replay through central proposal generation."""

    def __init__(self, graph, program, config=None, fault_plan=None,
                 executor=None, tracer=None, metrics_registry=None):
        super().__init__(graph, program, config, fault_plan,
                         tracer=tracer, metrics_registry=metrics_registry)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


@pytest.mark.parametrize("name", GOLDEN_SCENARIOS)
def test_serial_oracle_replays_the_golden_timeline(name, monkeypatch):
    """Central generation against the fixtures the shards are pinned to:
    where proposals are generated moves work, never results."""
    monkeypatch.setattr(
        "repro.cluster.coordinator.Coordinator", _SerialOracle
    )
    digest = play_scenario(
        get_scenario(name), engine="pregel"
    ).superstep_digest()
    assert digest == _fixture(name)


def test_single_process_system_matches_the_sharded_default():
    """A shard-less PregelSystem runs the same decision pipeline."""
    config = PregelConfig(num_workers=4, seed=3, quiet_window=5)
    serial, sharded = _serial_and_sharded(lambda: mesh_3d(5), config, 10)
    assert serial == sharded


# ----------------------------------------------------------------------
# The counter-split willingness RNG
# ----------------------------------------------------------------------


class TestWillingnessSource:
    def test_draws_are_pure_functions_of_lane_round_vertex(self):
        a = WillingnessSource(7, "lane")
        b = WillingnessSource(7, "lane")
        assert [a.draw(r, v) for r in range(5) for v in range(20)] == [
            b.draw(r, v) for r in range(5) for v in range(20)
        ]

    def test_rounds_and_vertices_decorrelate(self):
        s = WillingnessSource(7, "lane")
        by_round = {s.draw(r, 11) for r in range(50)}
        by_vertex = {s.draw(3, v) for v in range(50)}
        assert len(by_round) == 50
        assert len(by_vertex) == 50
        for draw in by_round | by_vertex:
            assert 0.0 <= draw < 1.0

    def test_lanes_are_independent(self):
        assert WillingnessSource(7, "a").draw(1, 2) != WillingnessSource(
            7, "b"
        ).draw(1, 2)

    def test_non_int_ids_key_stably(self):
        s = WillingnessSource(7, "lane")
        assert s.draw(1, "alpha") == s.draw(1, "alpha")
        assert s.draw(1, "alpha") != s.draw(1, "beta")
        assert s.draw(1, ("a", 1)) != s.draw(1, ("a", 2))

    def test_bools_do_not_collide_with_ints(self):
        # bool is an int subclass; the key function must not conflate them
        # with 0/1 on one path only.
        assert vertex_key(True) != vertex_key(1)
        assert vertex_key(False) != vertex_key(0)

    @pytest.mark.skipif(numpy is None, reason="needs numpy")
    def test_vectorised_path_is_bit_identical_to_scalar(self):
        s = WillingnessSource(42, "pregel_willingness")
        ids = list(range(200)) + [2**40 + 3, 2**63 - 1]
        keys = numpy.array([vertex_key(v) for v in ids], dtype=numpy.uint64)
        assert s.draw_keys(9, keys).tolist() == [s.draw(9, v) for v in ids]

    def test_draws_are_chunking_invariant(self):
        """The shard-count-invariance property, at the source level.

        However the vertex set is split into shards, every vertex's draw is
        the same — the whole point of counter-splitting over stream RNG.
        """
        s = WillingnessSource(13, "lane")
        vertices = list(range(97))
        whole = {v: s.draw(4, v) for v in vertices}
        for num_shards in (1, 2, 3, 7, 96, 97):
            chunks = [vertices[i::num_shards] for i in range(num_shards)]
            split = {}
            for chunk in chunks:
                for v in chunk:
                    split[v] = s.draw(4, v)
            assert split == whole


# ----------------------------------------------------------------------
# decide_block: chunking invariance + sweeper equivalence
# ----------------------------------------------------------------------


class _DecisionHost:
    """Minimal decide_block host over explicit adjacency + placement."""

    def __init__(self, adj, placement, heuristic):
        self._adj = adj
        self.placement = placement
        self.heuristic = heuristic
        self.graph = self

    def neighbors(self, v):
        return self._adj[v]

    @property
    def placement_of(self):
        return self.placement.get


def _toy_decision_problem(seed=5):
    graph = powerlaw_cluster_graph(120, m=2, seed=seed)
    k = 4
    caps = balanced_capacities(graph.num_vertices, k, 1.1)
    state = HashPartitioner().partition(graph, k, list(caps))
    adj = {v: tuple(graph.neighbors(v)) for v in graph.vertices()}
    placement = dict(state.assignment_items())
    context = DecisionContext(
        round_index=3,
        remaining=tuple(float(c) for c in caps),
        willingness=0.5,
        lane=WillingnessSource(seed, "lane").lane,
    )
    return adj, placement, context


def test_decide_block_is_chunking_invariant():
    adj, placement, context = _toy_decision_problem()
    host = _DecisionHost(adj, placement, GreedyMaxNeighbours())
    candidates = sorted(adj)
    whole = decide_block(host, context, candidates)
    assert whole, "toy problem produced no movers; weaken the setup"
    for num_shards in (2, 3, 5):
        chunks = [candidates[i::num_shards] for i in range(num_shards)]
        merged = []
        for chunk in chunks:
            merged.extend(decide_block(host, context, sorted(chunk)))
        assert sorted(merged) == sorted(whole)


def _admit(index, adjacency):
    """Feed ``{vertex: neighbours}`` to the index as one bulk upsert."""
    rows = list(adjacency.values())
    index.admit_many(
        list(adjacency),
        numpy.array([len(row) for row in rows], dtype=numpy.int64),
        [w for row in rows for w in row],
    )


def _place(index, placement):
    index.place_many(
        list(placement),
        numpy.array(
            [-1 if pid is None else pid for pid in placement.values()],
            dtype=numpy.int64,
        ),
    )


def _decisions(index, context, candidates):
    """The index's proposal columns as decide_block's rows."""
    columns = index.decisions(context, index.slots_of(candidates))
    return ProposalColumns.pack(*columns).rows()


@pytest.mark.skipif(numpy is None, reason="needs numpy")
def test_shard_sweeper_matches_decide_block():
    adj, placement, context = _toy_decision_problem()
    host = _DecisionHost(adj, placement, GreedyMaxNeighbours())
    sweeper = make_shard_index(GreedyMaxNeighbours())
    assert sweeper is not None and sweeper.decides
    _admit(sweeper, adj)
    _place(sweeper, placement)
    candidates = sorted(adj)
    assert _decisions(sweeper, context, candidates) == decide_block(
        host, context, candidates
    )


@pytest.mark.skipif(numpy is None, reason="needs numpy")
def test_shard_sweeper_tracks_churn_and_compaction():
    """Admit/evict/re-admit churn (forcing block garbage) stays exact."""
    adj, placement, context = _toy_decision_problem()
    host = _DecisionHost(adj, placement, GreedyMaxNeighbours())
    sweeper = make_shard_index(GreedyMaxNeighbours())
    sweeper._GROW = 8  # tiny arena: compaction triggers many times
    _admit(sweeper, adj)
    _place(sweeper, placement)
    # Rewrite every vertex's block a few times, evict/readmit half.
    for repeat in range(3):
        for v in list(adj):
            if v % 2 == repeat % 2:
                sweeper.evict_many([v])
            _admit(sweeper, {v: adj[v]})
    candidates = sorted(adj)
    assert _decisions(sweeper, context, candidates) == decide_block(
        host, context, candidates
    )


@pytest.mark.skipif(numpy is None, reason="needs numpy")
def test_fresh_ids_take_slots_in_ascending_order_sorted_or_not():
    """Slot numbering does not depend on whether the interning sorted:
    an ascending batch (a seeding broadcast) keeps its order, an unsorted
    one with repeats is numbered as its sorted distinct ids; a later
    placement entry for one vertex wins either way."""
    index = make_shard_index(GreedyMaxNeighbours())
    assert index.slots_of(numpy.array([5, 9, 12])).tolist() == [0, 1, 2]
    got = index.slots_of(numpy.array([30, 7, 30, 9, 20]))
    assert got.tolist() == [5, 3, 5, 1, 4]
    assert index.ids[: index.count].tolist() == [5, 9, 12, 7, 20, 30]
    assert index.slots_of(numpy.array([40, 40, 41])).tolist() == [6, 6, 7]
    assert index.count == 8
    index.place_many(numpy.array([7, 5, 7, 30]), numpy.array([1, 2, 3, 0]))
    index.place_many(numpy.array([9, 12, 20]), numpy.array([4, 5, 6]))
    assert index.mirror()[0].tolist() == [5, 7, 9, 12, 20, 30]
    assert index.mirror()[1].tolist() == [2, 3, 4, 5, 6, 0]


@pytest.mark.skipif(numpy is None, reason="needs numpy")
def test_shard_sweeper_place_many_matches_place():
    """Bulk placement == one call per vertex, in every id regime: the
    dense table (modest ints), the dict (negative / sparse ints) and
    object ids (labels, tuples, bigints) arriving after the ints."""
    dense = {v: v % 3 for v in range(40)}
    sparse = {-5: 1, 10**9: 0}
    labels = {"gw-1": 0, ("rack", 7): 2, 2**63 + 9: 2}
    bulk = make_shard_index(GreedyMaxNeighbours())
    single = make_shard_index(GreedyMaxNeighbours())
    seen = {}
    for batch, has_table, dtype in (
        (dense, True, numpy.int64),
        (sparse, False, numpy.int64),
        (labels, False, object),
    ):
        _place(bulk, batch)
        for vertex, pid in batch.items():
            _place(single, {vertex: pid})
        seen.update(batch)
        for index in (bulk, single):
            assert (index._table is not None) == has_table
            assert index.ids.dtype == dtype and index.count == len(seen)
            ids = index.ids[: index.count].tolist()
            assert ids == list(seen) and list(map(type, ids)) == list(
                map(type, seen)
            )
            slots = index.slots_of(list(seen))
            assert slots.tolist() == list(range(len(seen)))
            assert index._keys[slots].tolist() == [
                vertex_key(v) for v in seen
            ]
            assert index._place[slots].tolist() == list(seen.values())


@pytest.mark.skipif(numpy is None, reason="needs numpy")
def test_shard_index_serves_both_readers_across_compaction():
    """One index, two readers: interleaved admit/evict/place churn keeps
    ``decisions()`` equal to the portable path *and* ``gather()`` equal to
    the adjacency it was fed, before and after block compaction."""
    adj, placement, context = _toy_decision_problem()
    placement = dict(placement)
    k = context.num_partitions
    index = make_shard_index(GreedyMaxNeighbours(), "float64")
    index._GROW = 8  # tiny arena: compaction triggers many times
    compactions = []
    compact = index._compact
    index._compact = lambda: (compactions.append(1), compact())
    residents = {}  # what a dict shard would hold, in admission order

    def admit(v, neighbours):
        residents[v] = tuple(neighbours)
        _admit(index, {v: residents[v]})

    def check():
        host = _DecisionHost(residents, placement, GreedyMaxNeighbours())
        candidates = sorted(residents)
        assert _decisions(index, context, candidates) == decide_block(
            host, context, candidates
        )
        rows = index.rows()
        assert index.ids[rows].tolist() == list(residents)
        assert index.residents == len(residents)
        degrees, indptr, targets, block_slots = index.gather(rows)
        slot_ids = index.ids[block_slots].tolist()
        assert slot_ids[: len(rows)] == list(residents)
        assert degrees.tolist() == [len(residents[v]) for v in residents]
        for i, v in enumerate(residents):
            block = targets[indptr[i] : indptr[i + 1]].tolist()
            assert [slot_ids[t] for t in block] == list(residents[v])

    _place(index, placement)
    for v in sorted(adj)[::2]:
        admit(v, adj[v])
    check()
    assert not compactions
    for repeat in range(4):
        for v in sorted(adj):
            if v % 4 == repeat:
                residents.pop(v, None)
                index.evict_many([v])
            elif v % 3 == repeat % 3:
                admit(v, adj[v][repeat % 2 :])  # adjacency patch
            if v % 5 == repeat:
                placement[v] = (placement.get(v, 0) + 1) % k
                _place(index, {v: placement[v]})
            elif v % 7 == repeat and v not in residents:
                placement.pop(v, None)
                _place(index, {v: None})
        check()
    assert compactions, "the churn never compacted; shrink _GROW"


def test_arbitration_order_is_keyed_per_round():
    """Quota contention priority reshuffles every round (no fixed-id bias)
    but is a pure function of (lane, round, vertex)."""
    from repro.pregel.migration import sort_proposals

    proposals = [(v, 0, 1, True) for v in range(64)]
    lane = WillingnessSource(0, "pregel_willingness").lane
    source = WillingnessSource(lane, "arbitration")

    def order(round_index):
        return [
            p[0]
            for p in sort_proposals(
                proposals, priority=lambda v: source.draw(round_index, v)
            )
        ]

    assert order(1) == order(1)          # deterministic
    assert order(1) != order(2)          # round-specific permutation
    assert order(1) != sorted(range(64))  # not the canonical id order
    assert sorted(order(1)) == sorted(range(64))


def test_make_shard_sweeper_gates():
    """No reader, no index: vectorised decisions only for the exact rule,
    a value column only where the shard has no other reader of its state
    (no heuristic, or the exact rule)."""

    class Subclassed(GreedyMaxNeighbours):
        pass

    for heuristic in (Subclassed(), CapacityWeightedGreedy(), None):
        assert make_shard_index(heuristic) is None
    if numpy is None:
        assert make_shard_index(GreedyMaxNeighbours(), "float64") is None
        return
    index = make_shard_index(GreedyMaxNeighbours())
    assert index.decides and index.values is None
    store = make_shard_index(GreedyMaxNeighbours(), "float64")
    assert store.decides and store.values.dtype == numpy.float64
    store = make_shard_index(None, "int64")
    assert not store.decides and store.values.dtype == numpy.int64
    for heuristic in (Subclassed(), CapacityWeightedGreedy()):
        # The portable decision path reads dict state: no store under it.
        assert make_shard_index(heuristic, "float64") is None


def test_an_active_store_shard_holds_no_dict_state(scalar_twin):
    """One representation at a time: while the array store is active the
    shard's dicts stay empty (and a dict shard — the kernel-less twin's,
    or any shard without numpy — holds no value column)."""
    config = PregelConfig(num_workers=3, seed=1, quiet_window=5)
    for program in (PageRank(), scalar_twin(PageRank())):
        executor = InlineExecutor()
        with Coordinator(mesh_3d(4), program, config, executor=executor) as system:
            system.run(4)
            system.shard_consistency_check()
            shards = list(executor._shards.values())
        for shard in shards:
            state = vars(shard)
            assert len(shard) > 0
            if numpy is None or program.compute_batch is None:
                # The dict shard: real dicts, and (with numpy) a decision
                # index that holds no values.
                assert shard.store is None
                assert (shard.index is None) == (numpy is None)
                assert shard.index is None or shard.index.values is None
                assert len(state["values"]) == len(shard)
                continue
            assert shard.store is shard.index is not None
            for name in ("values", "halted", "_adj", "placement"):
                assert not state[name], name
            assert shard.store.residents == len(shard)


# ----------------------------------------------------------------------
# Placement mirrors + the full stack under churn
# ----------------------------------------------------------------------


def _churned_coordinator(prepare=None):
    graph = mesh_3d(6)
    config = PregelConfig(num_workers=4, seed=3, quiet_window=5)
    system = Coordinator(
        graph,
        PageRank(),
        config,
        fault_plan=FaultPlan().add(9, 2),
        executor=InlineExecutor(),
    )
    if prepare is not None:
        prepare(system)
    try:
        for step in range(14):
            if step == 4:
                system.inject_events(
                    [
                        AddVertex(1000),
                        AddEdge(1000, 0),
                        RemoveVertex(43),
                        AddEdge(1000, 87),
                        AddEdge(1001, 1002),
                        RemoveEdge(0, 1),
                    ]
                )
            if step == 7:
                system.inject_events([RemoveVertex(1001), AddEdge(1002, 5)])
            system.run_superstep()
            system.shard_consistency_check()  # includes the mirror check
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
            )
            for r in system.reports
        ]
    finally:
        system.close()


def test_placement_mirrors_stay_exact_under_churn_and_faults():
    _churned_coordinator()


def test_non_int_vertex_ids_through_the_sharded_decision_phase():
    """String ids exercise the sha-keyed willingness path shard-side; the
    serial oracle must still agree, and mirrors must stay exact."""
    config = PregelConfig(num_workers=3, seed=1, quiet_window=5)
    events = [
        AddVertex("hub"),
        AddEdge("hub", 0),
        AddEdge("hub", 1),
        AddEdge("spoke-a", "hub"),
        RemoveEdge(0, 1),
    ]
    serial, sharded = _serial_and_sharded(
        lambda: mesh_3d(4), config, 8, events_at={2: events}
    )
    assert serial == sharded


def test_pregel_bulk_ingestion_is_loop_identical(per_event_loop):
    """Bulk edge runs == the per-event loop forced on the same graph."""
    assert _churned_coordinator() == _churned_coordinator(per_event_loop)


@pytest.mark.parametrize("path", ["adjacency", "compact"])
def test_pregel_scenario_backends_identical(path, request):
    """Scenario-level pin: the pregel engine's golden digest is the same
    on both read paths — "adjacency" ingests per event from the adjacency
    sets (the portable paths), "compact" in bulk over the CSR mirror."""
    if path == "adjacency":
        request.getfixturevalue("portable_paths")
    digest = play_scenario(
        get_scenario("mesh-growth"), engine="pregel"
    ).superstep_digest()
    assert digest == _fixture("mesh-growth")


# ----------------------------------------------------------------------
# Capacity-aware incremental activation (CapacityWeightedGreedy)
# ----------------------------------------------------------------------


class TestCapacityAwareActivation:
    def test_flag_is_set(self):
        assert CapacityWeightedGreedy.uses_capacity is True
        assert GreedyMaxNeighbours.uses_capacity is False

    def _runner(self, seed=2):
        graph = powerlaw_cluster_graph(200, m=2, seed=5)
        caps = balanced_capacities(graph.num_vertices, 4, 1.1)
        state = HashPartitioner().partition(graph, 4, list(caps))
        return graph, state, AdaptiveRunner(
            graph,
            state,
            AdaptiveConfig(seed=seed, heuristic=CapacityWeightedGreedy()),
        )

    def test_activation_is_sound(self):
        """Every vertex that wants to move is in the evaluated candidate
        set, every round — the exactness contract of the active set."""
        graph, state, runner = self._runner()
        heuristic = runner.config.heuristic
        for i in range(50):
            if i == 15:
                runner.apply_events(
                    [AddEdge(500, 3), AddEdge(500, 9), RemoveEdge(0, 1)]
                )
            remaining = runner.remaining_capacities()
            if runner._needs_full_sweep(remaining):
                candidates = set(graph.vertices())
            else:
                candidates = runner.active_vertices
            for v in graph.vertices():
                current = state.partition_of_or_none(v)
                if current is None:
                    continue
                desired = heuristic.desired_partition(
                    current, state.neighbour_partition_counts(v), remaining
                )
                assert desired == current or v in candidates, (
                    f"round {i}: vertex {v} wants {current}->{desired} but "
                    "was not scheduled for evaluation"
                )
            runner.step()

    def test_quiet_rounds_skip_the_full_sweep(self):
        """Once migrations stop, capacities stop moving and the active set
        engages — the whole point of the capacity trigger."""
        graph, state, runner = self._runner()
        active_counts = [runner.step().active_vertices for _ in range(60)]
        assert active_counts[0] == graph.num_vertices
        assert active_counts[-1] < graph.num_vertices
        assert active_counts[-1] == runner.active_count

    def test_capacity_change_retriggers_full_sweep(self):
        graph, state, runner = self._runner()
        for _ in range(60):
            runner.step()
        assert runner.step().active_vertices < graph.num_vertices
        # Churn moves capacities (|V| changes -> balanced capacities move):
        # the next round must re-evaluate everything.
        runner.apply_events([AddVertex(9000), AddEdge(9000, 0)])
        assert runner.step().active_vertices == graph.num_vertices

    def test_pregel_capacity_heuristic_modes_identical(self):
        """The capacity-aware heuristic composes with the shard-local
        phase: the serial oracle and the shards replay identical
        timelines."""
        config = PregelConfig(
            num_workers=4,
            seed=3,
            quiet_window=5,
            heuristic=CapacityWeightedGreedy(),
        )
        serial, sharded = _serial_and_sharded(
            lambda: mesh_3d(5),
            config,
            10,
            events_at={4: [AddEdge(700, 0), RemoveEdge(0, 1)]},
        )
        assert serial == sharded
        assert any(requested for _, requested, *_ in sharded), "vacuous run"


class _CandidateSpy(InlineExecutor):
    """Records every candidate slice the coordinator ships to a shard."""

    def __init__(self):
        super().__init__()
        self.slices = []

    def step(self, tasks, patches):
        for task in tasks.values():
            if task.candidates is not None:
                self.slices.append(list(task.candidates))
        return super().step(tasks, patches)


def test_shipped_candidate_slices_are_canonically_ordered():
    """Regression for the DET001 fix in ``Coordinator._compute_phase``.

    Candidate slices are wire payload: their order must be a function of
    the graph, not of the active set's hash-table layout.  The vertex ids
    (multiples of 100) are chosen to collide in CPython's set table, so
    raw set iteration would ship them out of order — the receiving shard
    re-sorts before deciding, which is exactly why the divergence was
    silent until reprolint flagged it.
    """
    from repro.graph import Graph

    ids = [100 * i for i in range(24)]
    assert list(set(ids)) != sorted(ids)  # the ids do scramble
    graph = Graph(list(zip(ids, ids[1:])))
    spy = _CandidateSpy()
    config = PregelConfig(num_workers=3, seed=1, quiet_window=5)
    with Coordinator(graph, PageRank(), config, executor=spy) as system:
        system.run(8)
    assert any(len(s) > 1 for s in spy.slices), "vacuous run: no slices"
    for shipped in spy.slices:
        assert shipped == sorted(shipped)
