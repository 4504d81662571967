"""The runner's slot-mask active set against the portable ``set`` path.

On the sweeper path :class:`~repro.core.runner.AdaptiveRunner` keeps its
active set as an :class:`~repro.core.sweep.ActiveSlots` mask over the
graph's slots and takes its candidates as slots in canonical id order;
the portable path keeps a ``set`` of ids and sorts it every round.  Churn
that removes vertices turns their slots into holes, and later additions
reuse them: through all of it both runners must run the same timeline,
hold the same active set and take the same candidates in the same order.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import sweep
from repro.core.balance import EdgeBalance, VertexBalance
from repro.core.runner import AdaptiveConfig, AdaptiveRunner
from repro.core.sweep import ActiveSlots, sort_vertices
from repro.generators import forest_fire_expansion
from repro.graph import AddEdge, AddVertex, Graph, RemoveEdge, RemoveVertex
from repro.partitioning import HashPartitioner, balanced_capacities

needs_numpy = pytest.mark.skipif(
    sweep._np is None, reason="the slot mask needs numpy"
)

ID_KINDS = {
    "ints": st.integers(min_value=0, max_value=15),
    "labels": st.sampled_from([f"v{i}" for i in range(12)]),
    "mixed": st.one_of(
        st.integers(min_value=0, max_value=8), st.sampled_from("abcd")
    ),
}
BALANCES = {"vertex": VertexBalance, "edge": EdgeBalance}


def _events(ids):
    pair = st.tuples(ids, ids).filter(lambda p: p[0] != p[1])
    return st.one_of(
        pair.map(lambda p: AddEdge(*p)),
        pair.map(lambda p: RemoveEdge(*p)),
        st.builds(AddVertex, ids),
        st.builds(RemoveVertex, ids),
    )


def _runner(edges, balance):
    graph = Graph(edges=edges)
    caps = balanced_capacities(max(1, graph.num_vertices), 3, 1.10)
    state = HashPartitioner().partition(graph, 3, list(caps))
    config = AdaptiveConfig(seed=5, quiet_window=4, balance=balance())
    return AdaptiveRunner(graph, state, config)


def _candidate_ids(runner):
    ids = runner.graph.slot_ids
    return list(map(ids.__getitem__, runner._active.ordered().tolist()))


@needs_numpy
@given(
    kind=st.sampled_from(sorted(ID_KINDS)),
    balance=st.sampled_from(sorted(BALANCES)),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_slot_mask_runner_matches_the_portable_set(
    on_portable_paths, kind, balance, data
):
    ids = ID_KINDS[kind]
    pairs = st.tuples(ids, ids).filter(lambda p: p[0] != p[1])
    edges = data.draw(st.lists(pairs, max_size=20, unique=True))
    rounds = data.draw(
        st.lists(st.lists(_events(ids), max_size=20), max_size=4)
    )
    masked = _runner(edges, BALANCES[balance])
    with on_portable_paths():
        portable = _runner(edges, BALANCES[balance])
    assert isinstance(masked._active, ActiveSlots)
    assert isinstance(portable._active, set)
    for events in rounds:
        # EdgeBalance is degree-sensitive: its events take the per-event
        # loop, so both hooks run once per event there.
        assert masked.apply_events(events) == portable.apply_events(events)
        for _ in range(2):
            assert masked.active_count == portable.active_count
            assert masked.active_vertices == portable.active_vertices
            assert _candidate_ids(masked) == sort_vertices(portable._active)
            assert masked.step() == portable.step()
    assert list(masked.timeline) == list(portable.timeline)
    assert masked.loads == portable.loads
    masked.audit()


@needs_numpy
def test_removed_vertex_leaves_the_mask_and_its_slot_is_reused():
    runner = _runner([(0, 1), (1, 2), (2, 3)], VertexBalance)
    slot = runner.graph.slot_of(3)
    runner.apply_events([RemoveVertex(3)])
    assert not runner._active.mask[slot]
    assert 3 not in runner.active_vertices
    runner.apply_events([AddVertex(9)])
    assert runner.graph.slot_of(9) == slot  # the hole is reused ...
    assert runner._active.mask[slot]        # ... and active again
    assert _candidate_ids(runner) == sort_vertices(runner.active_vertices)


@needs_numpy
def test_growth_stream_grows_the_mask_by_doubling(on_portable_paths):
    # A forest fire adds one vertex per AddVertex; each takes a fresh slot
    # and activates it, so the mask must grow amortised, not per vertex.
    ring = [(i, (i + 1) % 50) for i in range(50)]
    masked = _runner(ring, VertexBalance)
    with on_portable_paths():
        portable = _runner(ring, VertexBalance)
    events, new_ids = forest_fire_expansion(masked.graph, 400, seed=3)
    mask, copies = masked._active.mask, 0
    for event in events:
        masked.apply_events([event])
        portable.apply_events([event])
        copies += masked._active.mask is not mask
        mask = masked._active.mask
    assert copies <= 4  # 50 slots doubled up to 800
    assert masked.active_vertices == portable.active_vertices
    assert set(new_ids) <= masked.active_vertices
    assert _candidate_ids(masked) == sort_vertices(portable._active)
    for _ in range(3):
        assert masked.step() == portable.step()
    assert list(masked.timeline) == list(portable.timeline)
    masked.audit()
