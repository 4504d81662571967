"""Golden-timeline regression suite.

Three catalog scenarios are pinned as JSON fixtures: the exact per-round
``(events, changed, migrations, cut_edges, cut_ratio, sizes, |V|, |E|)``
record of a full scenario replay.  Both read paths must reproduce the
fixture **exactly** (floats survive the JSON round-trip bit-for-bit), so any change
to the heuristic, the RNG pairing, the incremental metrics engine, the
sweeper, the event algebra or the churn generators that shifts dynamic
behaviour fails loudly here instead of drifting silently.

To regenerate after an *intentional* semantic change::

    python -m pytest tests/test_golden_timelines.py --regen-golden
    git diff tests/golden/   # review the drift before committing it
"""

import json
from pathlib import Path

import pytest

from repro.scenarios import get_scenario, play_scenario

GOLDEN_DIR = Path(__file__).parent / "golden"
# One per churn family shape: growth (continuous, vertices arriving),
# rewiring (continuous, constant size) and CDR (buffered, add+remove).
GOLDEN_SCENARIOS = ["mesh-growth", "grid-rewire", "cdr-weekly"]
# The two read paths over the one graph: "adjacency" decides per vertex
# and ingests per event from the adjacency sets (the portable paths, as on
# a numpy-free host); "compact" sweeps and bulk-ingests over the CSR mirror.
PATHS = ["adjacency", "compact"]


def _fixture_path(name):
    return GOLDEN_DIR / f"{name}.json"


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("name", GOLDEN_SCENARIOS)
def test_golden_timeline(name, path, regen_golden, request):
    if path == "adjacency":
        request.getfixturevalue("portable_paths")
    digest = play_scenario(get_scenario(name)).digest()
    fixture = _fixture_path(name)
    if regen_golden and path == PATHS[0]:
        GOLDEN_DIR.mkdir(exist_ok=True)
        fixture.write_text(
            json.dumps(digest, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    assert fixture.exists(), (
        f"missing fixture {fixture}; generate it with "
        "`python -m pytest tests/test_golden_timelines.py --regen-golden`"
    )
    expected = json.loads(fixture.read_text(encoding="utf-8"))
    assert digest == expected, (
        f"{name} on the {path} path diverged from the golden timeline — if this "
        "change is intentional, regenerate with --regen-golden and commit "
        "the fixture diff"
    )


@pytest.mark.parametrize("name", GOLDEN_SCENARIOS)
def test_golden_fixture_is_nontrivial(name):
    """Fixtures must pin real dynamics, not an empty or frozen run."""
    expected = json.loads(_fixture_path(name).read_text(encoding="utf-8"))
    rounds = expected["rounds"]
    assert len(rounds) >= 10
    assert sum(r["changed"] for r in rounds) > 0, "no events ever applied"
    assert sum(r["migrations"] for r in rounds) > 0, "no adaptation recorded"
    # Sizes always partition the vertex set.
    for r in rounds:
        assert sum(r["sizes"]) == r["num_vertices"]


@pytest.mark.parametrize("name", GOLDEN_SCENARIOS)
def test_metrics_modes_match_golden(name):
    """Auditing after every round replays the identical timeline."""
    digest = play_scenario(get_scenario(name), audit=True).digest()
    expected = json.loads(_fixture_path(name).read_text(encoding="utf-8"))
    assert digest == expected
