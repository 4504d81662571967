"""Decision-path matrix — Fig. 6-style adaptive-sweep scaling on the one
graph, the portable per-vertex path against the vectorised sweep,
asserting bit-identical timelines and reporting the sweep's speedup.

The sweep routes the runner's per-iteration decision pass through
:class:`repro.core.sweep.CompactSweeper` (one vectorised histogram pass over
the graph's CSR mirror instead of a dict per vertex read from the adjacency
sets) and batch-applies each round's admitted moves.  The reference side
runs the paper's rule as :class:`_PortableGreedy`, a no-op subclass the
sweep's exact-type gate rejects, so it takes the portable path.  Round
semantics are preserved exactly — same candidate order, same RNG stream,
same tie-breaks — so the timelines must match entry-for-entry, and the
speedup is pure decision path.

Asserted at full scale: ≥3× on the 100k-vertex mesh sweep, plus timeline
identity at every size.
"""

import math
import time

from repro.analysis import format_table
from repro.core import AdaptiveConfig, AdaptiveRunner
from repro.core.heuristic import GreedyMaxNeighbours
from repro.generators import mesh_with_vertex_count, powerlaw_cluster_graph
from repro.partitioning import HashPartitioner, balanced_capacities

from benchmarks import _harness
from benchmarks._harness import PARTITIONS, pick, record_result

MESH_SIZES = pick([10_000, 30_000, 100_000], [1_000, 2_000])
PLAW_SIZES = pick([10_000, 30_000], [1_000])
ITERATIONS = pick(20, 8)  # fixed sweep window: identical work on both sides
TIMING_REPEATS = pick(2, 1)  # wall-clock = min over repeats (noise rejection)
SPEEDUP_TARGET = 3.0      # asserted at the largest mesh size, full scale only


class _PortableGreedy(GreedyMaxNeighbours):
    """The paper's rule, unchanged; not the exact type the sweep accepts."""


def _runner(graph, heuristic, seed=0):
    caps = balanced_capacities(graph.num_vertices, PARTITIONS, 1.10)
    state = HashPartitioner().partition(graph, PARTITIONS, list(caps))
    config = AdaptiveConfig(seed=seed, heuristic=heuristic)
    return AdaptiveRunner(graph, state, config)


def _time_sweep(graph, heuristic, iterations, seed=0):
    """Best wall-clock over TIMING_REPEATS identical sweeps + last runner."""
    best = None
    runner = None
    for _ in range(TIMING_REPEATS):
        runner = _runner(graph, heuristic, seed=seed)
        start = time.perf_counter()
        for _ in range(iterations):
            runner.step()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, runner


def _measure(make_graph, size):
    graph = make_graph(size)
    portable_time, portable_runner = _time_sweep(
        graph, _PortableGreedy(), ITERATIONS
    )
    sweep_time, sweep_runner = _time_sweep(
        graph, GreedyMaxNeighbours(), ITERATIONS
    )
    assert sweep_runner._sweeper is not None, "the sweep must engage"
    assert list(portable_runner.timeline) == list(sweep_runner.timeline), (
        f"timelines diverged at |V|={size}"
    )
    assert (
        sweep_runner.state.cut_edges
        == sweep_runner.state.recompute_cut_edges()
    )
    return {
        "vertices": graph.num_vertices,
        "edges": graph.num_edges,
        "portable_s": portable_time,
        "sweep_s": sweep_time,
        "speedup": portable_time / sweep_time,
        "final_cut_ratio": sweep_runner.state.cut_ratio(),
    }


def _mesh(size):
    return mesh_with_vertex_count(size)


def _plaw(size):
    return powerlaw_cluster_graph(
        size, m=max(1, round(math.log(size) / 2)), seed=0
    )


def _experiment():
    return {
        "mesh": [_measure(_mesh, size) for size in MESH_SIZES],
        "plaw": [_measure(_plaw, size) for size in PLAW_SIZES],
    }


def test_backend_matrix(run_once, capsys):
    results = run_once(_experiment)
    record_result("backend_matrix", results)
    with capsys.disabled():
        for family, rows in results.items():
            print()
            print(
                format_table(
                    ["|V|", "|E|", "portable s", "sweep s", "speedup"],
                    [
                        [
                            r["vertices"],
                            r["edges"],
                            r["portable_s"],
                            r["sweep_s"],
                            r["speedup"],
                        ]
                        for r in rows
                    ],
                    title=(
                        f"Decision paths ({family}): {ITERATIONS}-iteration "
                        "adaptive sweep, identical timelines"
                    ),
                )
            )
    if _harness.SMOKE:
        return  # equivalence asserted above; speedup is meaningless at toy scale
    # The acceptance bar: ≥3x on the 100k-vertex mesh sweep.
    headline = results["mesh"][-1]
    assert headline["speedup"] >= SPEEDUP_TARGET, headline
    # The sweep must never be slower anywhere in the matrix.
    for family, rows in results.items():
        for row in rows:
            assert row["speedup"] > 1.0, (family, row)
