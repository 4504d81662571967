"""The wire tag census: what the protocol actually sends, frame by frame.

Replays the adaptive scenario catalog through the pregel engine over a
:class:`~repro.cluster.LocalWorkerPool` and records every tag
:func:`repro.cluster.wire._decode` reads, keyed by command kind — a reply
counts under the command it answers (``step-reply``).  Two claims:

* pickle crosses only in the session-start ``init`` frame (the user's
  program and the empty shards); every step, apply and snapshot byte —
  including the round's ``DecisionContext`` — goes through the codec's
  own checked tags;
* every tag read is one the codec still defines: nothing sends a retired
  tag.

Both hold with and without numpy (the numpy-free leg takes the dict
plane's tags instead of the column ones).
"""

import threading
from collections import Counter, defaultdict

import pytest

from repro.cluster import LocalWorkerPool, SocketExecutor, wire
from repro.scenarios import get_scenario, play_scenario, scenario_names

COMMANDS = frozenset({"init", "step", "apply", "snapshot", "stop"})
#: Rounds per scenario: enough for settle, churn and stale-free decision
#: rounds on every catalog entry, little enough for the suite's budget.
MAX_ROUNDS = 2

LIVE_TAGS = frozenset(
    value for name, value in vars(wire).items() if name.startswith("_TAG_")
)


@pytest.fixture(scope="module")
def census():
    """Command kind -> Counter of decoded tags, over the whole catalog."""
    tally = defaultdict(Counter)
    local = threading.local()
    decode, loads, dumps = wire._decode, wire.loads, wire.dumps

    def counting_decode(reader):
        local.tags.append(reader.buf[reader.pos])
        return decode(reader)

    def tracking_dumps(obj):
        if type(obj) is tuple and obj and obj[0] in COMMANDS:
            local.sent = obj[0]
        return dumps(obj)

    def counting_loads(payload):
        local.tags = []
        message = loads(payload)
        head = message[0]
        kind = head if head in COMMANDS else f"{local.sent}-reply"
        tally[kind].update(local.tags)
        return message

    patch = pytest.MonkeyPatch()
    patch.setattr(wire, "_decode", counting_decode)
    patch.setattr(wire, "loads", counting_loads)
    patch.setattr(wire, "dumps", tracking_dumps)
    try:
        with LocalWorkerPool(2) as pool:
            for name in scenario_names():
                play_scenario(
                    get_scenario(name),
                    engine="pregel",
                    executor=SocketExecutor(pool.addresses),
                    max_rounds=MAX_ROUNDS,
                )
    finally:
        patch.undo()
    return dict(tally)


def test_the_census_saw_the_whole_protocol(census):
    assert {"init", "step", "step-reply", "apply"} <= set(census)
    # The spy works: the init frame's program and shards are pickled ...
    assert census["init"][wire._TAG_PICKLE] > 0
    # ... and decision rounds really crossed, their proposals coming
    # home as one record per shard.
    assert census["step"][wire._TAG_CONTEXT] > 0
    assert census["step-reply"][wire._TAG_PROPOSALS] > 0


def test_only_the_init_frame_is_pickled(census):
    pickled = {
        kind: tags[wire._TAG_PICKLE]
        for kind, tags in census.items()
        if kind != "init" and tags[wire._TAG_PICKLE]
    }
    assert pickled == {}


def test_every_decoded_tag_is_live(census):
    stray = {
        kind: sorted(map(hex, set(tags) - LIVE_TAGS))
        for kind, tags in census.items()
        if set(tags) - LIVE_TAGS
    }
    assert stray == {}
