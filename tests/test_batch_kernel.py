"""Batched-kernel equivalence suite: batched == scalar, bit for bit.

The numpy block kernel (:meth:`BatchedVertexProgram.compute_batch`) is an
optimisation, never semantics: every observable — superstep reports,
final values *and their Python types*, halted transitions, traffic
counters — must replay the scalar reference loop exactly.  The kernel
runs only on a shard's array store; the scalar side of each comparison
is the same program with its kernel switched off (the ``scalar_twin``
fixture), and the single-process ``PregelSystem`` — the oracle — never
batches at all.  The suite drives each batched app through the
situations where a vectorised rewrite classically drifts:

* mixed halted/woken vertices (components converging at different
  supersteps, label propagation's adopt-nothing rounds);
* empty inboxes and isolated vertices (TunkRank's kernel *declines* the
  block there — scalar ``sum(())`` is an int, digest-visible);
* adaptive churn (migrations re-slot vertices between blocks mid-run);
* string vertex ids (no array store holds a label id, so every shard
  runs the scalar loop and no kernel engages);
* record values and messages (the cardiac FEM programs' ``(v, w)`` and
  ``(Σv, n)`` tuples ride ``(n, 2)`` columns), over random graphs,
  sub-step counts and worker counts, and through a *mixed* superstep
  where the shards a label id reaches demote while the others batch;
* a numpy-free interpreter (the dispatch gate falls back to scalar);
* the committed golden timelines, on both compute paths;
* the oracle itself: ``PregelSystem`` never batches, and the sharded
  kernel run replays its reports.

``decision_seconds`` is wall-clock and excluded from comparisons, the
same as the golden digests do.
"""

import dataclasses
import json
import struct
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.pregel.compute as compute_mod
from repro.apps import (
    ConnectedComponents,
    PageRank,
    SingleSourceShortestPaths,
    TunkRank,
)
from repro.apps.fem_simulation import (
    CardiacFemSimulation,
    CombinedCardiacFemSimulation,
)
from repro.apps.label_propagation import LabelPropagation
from repro.cluster import Coordinator
from repro.generators import erdos_renyi_graph, mesh_3d
from repro.graph import Graph
from repro.graph.events import AddEdge
from repro.obs import MetricsRegistry
from repro.pregel.messages import record_sum_combiner, sum_combiner
from repro.pregel.system import PregelConfig, PregelSystem
from repro.scenarios import get_scenario, play_scenario

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_SCENARIOS = ["mesh-growth", "grid-rewire", "cdr-weekly"]
FEM = partial(CardiacFemSimulation, substeps=2, stimulus_vertices=(0, 7))
FEM_COMBINED = partial(
    CombinedCardiacFemSimulation, substeps=3, stimulus_vertices=(0,)
)
SSSP = partial(SingleSourceShortestPaths, 0)
#: Kernels whose arithmetic names vertex ids: they need an int64 id column.
ID_KEYED = [FEM, FEM_COMBINED, SSSP]
APPS = [PageRank, TunkRank, LabelPropagation, ConnectedComponents, *ID_KEYED]
HOSTS = [PregelSystem, Coordinator]


def _app_id(app):
    return getattr(app, "func", app).__name__


def _bits(value):
    """Floats as their bit patterns (tuples componentwise), so equality
    is to the last bit and type-exact."""
    if type(value) is tuple:
        return tuple(map(_bits, value))
    return struct.pack("<d", value) if type(value) is float else value


def _sparse_graph():
    """Random graph with isolated vertices and uneven degrees.

    Isolated vertices never receive mail (TunkRank's decline path, empty
    inboxes in the packer); the sparse components converge at different
    supersteps, so later rounds mix halted and woken vertices.
    """
    return erdos_renyi_graph(220, 0.02, seed=11)


def _string_id_graph():
    """The sparse graph re-keyed onto string vertex ids."""
    base = _sparse_graph()
    graph = Graph()
    for v in base.vertices():
        graph.add_vertex(f"u{v:03d}")
    for u, v in base.edges():
        graph.add_edge(f"u{u:03d}", f"u{v:03d}")
    return graph


def _run(host_cls, graph, program, supersteps=8, workers=4, events=None):
    """Replay ``supersteps`` supersteps; return (reports, values, blocks).

    Adaptive partitioning stays on so migrations re-slot vertices between
    kernel blocks mid-run — the churn case.  Reports are normalised by
    zeroing ``decision_seconds`` (wall-clock, not digest-pinned).
    ``blocks`` is the ``kernel.batched_blocks`` counter — proof the fast
    path actually engaged rather than silently declining everywhere.
    ``events`` are injected after the third superstep.
    """
    registry = MetricsRegistry()
    config = PregelConfig(num_workers=workers, seed=3, adaptive=True)
    host = host_cls(graph, program, config, metrics_registry=registry)
    try:
        reports = []
        for step in range(supersteps):
            if events and step == 3:
                host.inject_events(events)
            reports.append(dataclasses.replace(
                host.run_superstep(), decision_seconds=0.0
            ))
        values = dict(host.values)
    finally:
        close = getattr(host, "close", None)
        if close is not None:
            close()
    return reports, values, registry.counter("kernel.batched_blocks").value


def _assert_same_values(got, want, exact=True):
    """Same vertices, same value types; the same bits when ``exact``,
    else equal up to float rounding."""
    assert got.keys() == want.keys(), "vertex sets diverged"
    for key, value in got.items():
        assert type(value) is type(want[key]), (
            f"value type drifted for {key!r}: "
            f"{type(value).__name__} != {type(want[key]).__name__}"
        )
        if exact:
            assert _bits(value) == _bits(want[key]), f"value of {key!r}"
        else:
            assert value == pytest.approx(want[key], rel=1e-12, abs=1e-15)


def _assert_equivalent(host_cls, graph_factory, app, scalar_twin,
                       expect_kernel=True, **run_args):
    """``app`` on ``host_cls`` replays its scalar twin bit for bit, and
    took the kernel exactly when ``expect_kernel`` (and numpy) say so."""
    batched = _run(host_cls, graph_factory(), app(), **run_args)
    scalar = _run(host_cls, graph_factory(), scalar_twin(app()), **run_args)
    assert batched[0] == scalar[0], "superstep reports diverged"
    _assert_same_values(batched[1], scalar[1])
    engaged = expect_kernel and compute_mod._np is not None
    assert (batched[2] > 0) == engaged, "kernel engagement not as expected"
    assert scalar[2] == 0, "the scalar twin took the kernel"


@pytest.mark.parametrize("host_cls", HOSTS, ids=lambda c: c.__name__)
@pytest.mark.parametrize("app", APPS, ids=_app_id)
def test_batched_matches_scalar(host_cls, app, scalar_twin):
    """Sparse churn graph: reports, values and value types are identical.

    On ``PregelSystem`` the kernel is invisible: the oracle always runs
    the scalar loop, so both legs batch nothing."""
    _assert_equivalent(
        host_cls, _sparse_graph, app, scalar_twin,
        expect_kernel=host_cls is Coordinator,
    )


@pytest.mark.parametrize("app", APPS, ids=_app_id)
def test_pregel_system_is_the_scalar_oracle(app):
    """The oracle never batches and the sharded kernel run replays it.

    ``PregelSystem`` records no batched block, ``Coordinator`` records
    some; their superstep reports (compute units and message counts
    included) are identical and so are the final values' types.  Values
    are bit-identical too, except under a ``sum`` combiner: the oracle's
    one block folds each mailbox in a different order from the shards'
    merge, so those agree to rounding."""
    oracle = _run(PregelSystem, _sparse_graph(), app())
    sharded = _run(Coordinator, _sparse_graph(), app())
    assert oracle[2] == 0, "the oracle took the kernel"
    if compute_mod._np is not None:
        assert sharded[2] > 0, "the sharded run never took the kernel"
    assert sharded[0] == oracle[0], "superstep reports diverged"
    summed = app().combiner() in (sum_combiner, record_sum_combiner)
    _assert_same_values(sharded[1], oracle[1], exact=not summed)


@pytest.mark.parametrize("app", APPS, ids=_app_id)
def test_string_id_graphs(app, scalar_twin):
    """String vertex ids replay identically — on the scalar loop.

    No array store holds a label id: each shard's first (listed) patch
    demotes its store, so every block of every app runs the scalar loop
    and no kernel engages.
    """
    _assert_equivalent(
        Coordinator, _string_id_graph, app, scalar_twin, expect_kernel=False
    )


@pytest.mark.parametrize("app", APPS, ids=_app_id)
def test_numpy_free_fallback(app, monkeypatch, scalar_twin):
    """Without numpy the dispatch gate must fall back to the scalar loop."""
    scalar = _run(Coordinator, _sparse_graph(), scalar_twin(app()))
    monkeypatch.setattr(compute_mod, "_np", None)
    fallback = _run(Coordinator, _sparse_graph(), app())
    assert fallback[0] == scalar[0]
    _assert_same_values(fallback[1], scalar[1])
    assert fallback[2] == 0, "kernel engaged without numpy"


def test_kernel_declines_partial_inboxes(scalar_twin):
    """TunkRank's decline path engages and still replays the scalar run.

    On the sparse graph some mailed blocks contain vertices whose inbox
    is empty at superstep 2+; the kernel returns ``None`` there, the
    store demotes and the scalar loop takes over for the whole block.
    """
    _assert_equivalent(Coordinator, _sparse_graph, TunkRank, scalar_twin)


@pytest.mark.parametrize("name", GOLDEN_SCENARIOS)
def test_golden_replay_with_kernel_forced_on(name, scalar_twin):
    """The committed pregel fixtures replay exactly with the kernel on —
    and with it off, the scalar twin of the scenarios' PageRank."""
    expected = json.loads(
        (GOLDEN_DIR / f"pregel-{name}.json").read_text(encoding="utf-8")
    )
    for program in (None, scalar_twin(PageRank())):
        digest = play_scenario(
            get_scenario(name), engine="pregel", program=program
        ).superstep_digest()
        assert digest == expected, (
            f"{name} diverged from its golden timeline "
            f"({'scalar twin' if program else 'batched kernel'})"
        )


@pytest.mark.skipif(compute_mod._np is None, reason="numpy not installed")
@given(
    graph=st.one_of(
        st.builds(mesh_3d, st.integers(2, 4)),
        st.builds(
            erdos_renyi_graph, st.integers(8, 60), st.just(0.08),
            seed=st.integers(0, 9),
        ),
    ),
    app=st.sampled_from([CardiacFemSimulation, CombinedCardiacFemSimulation]),
    substeps=st.integers(1, 4),
    stimulus=st.sets(st.integers(0, 70), max_size=3),
    workers=st.integers(1, 5),
)
@settings(max_examples=25, deadline=None, derandomize=True)
def test_fem_kernels_match_scalar_on_random_graphs(
    scalar_twin, graph, app, substeps, stimulus, workers
):
    """Record kernels over random meshes, sub-cycle counts, stimulus sets
    (absent ids included) and worker counts, with migrations re-slotting
    rows: reports (``compute_units`` and every message count in them) and
    ``(v, w)`` bits equal the scalar loop's."""
    program = partial(app, substeps=substeps, stimulus_vertices=stimulus)
    _assert_equivalent(
        Coordinator, graph.copy, program, scalar_twin,
        supersteps=5, workers=workers,
    )


@pytest.mark.parametrize("app", [FEM, FEM_COMBINED], ids=_app_id)
def test_fem_mixed_superstep_with_a_label_id(app, scalar_twin):
    """A label vertex arrives mid-run: the shards whose patch carries it
    (as a resident or a neighbour) cannot hold it in an int64 column, so
    their stores demote and the scalar loop sends dict entries while the
    other shards still batch — mixed supersteps, on the dict message
    plane, same bits."""
    events = [AddEdge("late", 0), AddEdge("late", 33)]
    run_args = dict(supersteps=7, events=events)
    _assert_equivalent(
        Coordinator, partial(mesh_3d, 4), app, scalar_twin, **run_args
    )
    if compute_mod._np is not None:
        blocks = _run(Coordinator, mesh_3d(4), app(), **run_args)[2]
        assert 3 * 4 < blocks < 7 * 4, "no superstep was mixed"


@pytest.mark.parametrize("app", [FEM_COMBINED, SSSP], ids=_app_id)
def test_superstep_digest_is_kernel_independent(app, scalar_twin):
    """The scenario engine's pinned digest (churn on a growing mesh) is
    the same record with the record / shortest-paths kernels on and off."""
    digests = []
    for program in (app(), scalar_twin(app())):
        digests.append(play_scenario(
            get_scenario("mesh-growth"), engine="pregel", program=program,
            max_rounds=6,
        ).superstep_digest())
    assert digests[0] == digests[1]
