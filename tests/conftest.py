"""Shared fixtures for the test suite."""

import subprocess
from contextlib import contextmanager

import pytest

from repro.generators import mesh_3d, powerlaw_cluster_graph
from repro.graph import Graph


def pytest_addoption(parser):
    parser.addoption(
        "--regen-golden",
        action="store_true",
        default=False,
        help="rewrite tests/golden/*.json fixtures from the current code "
        "(then re-run without the flag and commit the diff deliberately)",
    )


@pytest.fixture
def regen_golden(request):
    """True when this run should rewrite the golden fixtures."""
    return request.config.getoption("--regen-golden")


@pytest.fixture(scope="session")
def per_event_loop():
    """Force an ingest host onto the per-event loop — the oracle.

    ``repro.core.ingest`` picks the bulk path from what it can observe
    (numpy, hash placement, degree-insensitive balance);
    the batch-vs-loop suites need the loop on a configuration that would
    otherwise batch, and take it from here rather than from a config knob.
    Works on an ``AdaptiveRunner``, a ``PregelSystem`` or a
    ``Coordinator``; returns the host.
    """

    def force(host):
        host._ingestor = None
        return host

    return force


@pytest.fixture(scope="session")
def scalar_twin():
    """Switch a program's batched kernel off — the scalar reference.

    ``compute_batch = None`` on the instance shadows the method, so the
    program is kernel-less to every gate (``kernel_dtype``): shards are
    dict shards running the scalar loop, on any executor, since the
    attribute pickles with the instance.  Returns the program.
    """

    def twin(program):
        program.compute_batch = None
        return program

    return twin


@contextmanager
def _portable_paths():
    import repro.core.runner
    import repro.pregel.system

    with pytest.MonkeyPatch.context() as patch:
        for module in (repro.core.runner, repro.pregel.system):
            patch.setattr(module, "make_sweeper", lambda *args: None)
            patch.setattr(module, "make_ingestor", lambda host: None)
        yield


@pytest.fixture
def portable_paths():
    """Build every host from here on on the portable paths: per-vertex
    decisions read from the adjacency sets and the per-event ingest loop
    (what a numpy-free host runs), instead of the sweep and bulk ingest
    over the CSR mirror.  For runs whose hosts a test cannot reach, such
    as a whole ``play_scenario`` replay."""
    with _portable_paths():
        yield


@pytest.fixture(scope="session")
def on_portable_paths():
    """:func:`portable_paths` as a context manager, for a test that builds
    hosts on both paths (a hypothesis test builds them per example)."""
    return _portable_paths


@pytest.fixture
def spawned(monkeypatch):
    """Every ``Popen`` the test makes — a process executor's workers — so
    "stopped" can be asserted by pid, also after a start that raised."""
    procs = []
    real = subprocess.Popen

    def recording_popen(*args, **kwargs):
        procs.append(real(*args, **kwargs))
        return procs[-1]

    monkeypatch.setattr(subprocess, "Popen", recording_popen)
    return procs


@pytest.fixture
def triangle():
    """A 3-clique."""
    return Graph([(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def path_graph():
    """A 6-vertex path 0-1-2-3-4-5."""
    return Graph([(i, i + 1) for i in range(5)])


@pytest.fixture
def two_cliques():
    """Two 4-cliques joined by a single bridge edge (0..3) - (4..7)."""
    edges = []
    for block in (range(0, 4), range(4, 8)):
        block = list(block)
        for i in range(len(block)):
            for j in range(i + 1, len(block)):
                edges.append((block[i], block[j]))
    edges.append((3, 4))
    return Graph(edges)


@pytest.fixture
def small_mesh():
    """A 6×6×6 FEM mesh (216 vertices)."""
    return mesh_3d(6)


@pytest.fixture
def small_powerlaw():
    """A 300-vertex Holme–Kim graph."""
    return powerlaw_cluster_graph(300, m=3, seed=7)
