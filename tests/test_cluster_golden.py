"""Golden superstep timelines: the cluster layer's bit-identity contract.

The three catalog scenarios already pinned by ``test_golden_timelines.py``
replay here through the **pregel engine** — vertex program, messages,
deferred-migration protocol, capacity broadcasts — and the exact
per-superstep :class:`SuperstepReport` digest is pinned as a JSON fixture.
Every executor backend must reproduce the fixture byte-for-byte: a shard
that computes out of canonical order, a merge that folds deltas in
completion order, or a patch that misses a barrier mutation all fail
loudly here.

Regenerate after an *intentional* semantic change::

    python -m pytest tests/test_cluster_golden.py --regen-golden
    git diff tests/golden/   # review the drift before committing it

``REPRO_CLUSTER_EXECUTORS`` (comma-separated) narrows the executor axis —
the CI matrix job uses it to run each backend in isolation.
"""

import atexit
import json
import os
from pathlib import Path

import pytest

from repro.cluster import LocalWorkerPool, SocketExecutor
from repro.scenarios import get_scenario, play_scenario

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_SCENARIOS = ["mesh-growth", "grid-rewire", "cdr-weekly"]
EXECUTORS = [
    name.strip()
    for name in os.environ.get(
        "REPRO_CLUSTER_EXECUTORS", "inline,process,socket"
    ).split(",")
    if name.strip()
]

_POOL = None


def _fixture_path(name):
    return GOLDEN_DIR / f"pregel-{name}.json"


def _replay(name, executor):
    if executor == "socket":
        # One localhost worker pool backs every socket replay; each run is
        # its own coordinator session on a fresh SocketExecutor (the
        # coordinator stops its executor at close).
        global _POOL
        if _POOL is None:
            _POOL = LocalWorkerPool(2)
            atexit.register(_POOL.close)
        executor = SocketExecutor(_POOL.addresses)
    result = play_scenario(
        get_scenario(name), engine="pregel", executor=executor
    )
    return result


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("name", GOLDEN_SCENARIOS)
def test_pregel_golden_timeline(name, executor, regen_golden):
    result = _replay(name, executor)
    digest = result.superstep_digest()
    path = _fixture_path(name)
    if regen_golden and executor == EXECUTORS[0]:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(
            json.dumps(digest, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    assert path.exists(), (
        f"missing fixture {path}; generate it with "
        "`python -m pytest tests/test_cluster_golden.py --regen-golden`"
    )
    expected = json.loads(path.read_text(encoding="utf-8"))
    assert digest == expected, (
        f"{name} on the {executor} executor diverged from the golden "
        "superstep timeline — if this change is intentional, regenerate "
        "with --regen-golden and commit the fixture diff"
    )
    # The per-round view must stay consistent with the superstep view.
    rounds = result.digest()["rounds"]
    assert sum(r["migrations"] for r in rounds) == sum(
        s["announced"] for s in digest["supersteps"][result.settle_iterations:]
    )


@pytest.mark.parametrize("name", GOLDEN_SCENARIOS)
def test_pregel_golden_fixture_is_nontrivial(name):
    """Fixtures must pin a live distributed run, not a frozen one."""
    expected = json.loads(_fixture_path(name).read_text(encoding="utf-8"))
    supersteps = expected["supersteps"]
    assert len(supersteps) >= 10
    assert sum(s["announced"] for s in supersteps) > 0, "no migrations pinned"
    assert sum(s["mutations"] for s in supersteps) > 0, "no churn applied"
    assert any(
        s["traffic"]["local"] + s["traffic"]["remote"] > 0 for s in supersteps
    ), "no messages exchanged"
    for s in supersteps:
        assert sum(s["sizes"]) >= 0
        assert s["traffic"]["capacity"] > 0  # the broadcast is metered


@pytest.mark.parametrize("name", GOLDEN_SCENARIOS)
def test_pregel_metrics_recompute_matches_golden(name):
    """Auditing after every round replays the identical timeline."""
    digest = play_scenario(
        get_scenario(name),
        engine="pregel",
        executor="inline",
        audit=True,
    ).superstep_digest()
    expected = json.loads(_fixture_path(name).read_text(encoding="utf-8"))
    assert digest == expected
