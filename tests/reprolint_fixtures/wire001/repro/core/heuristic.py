"""WIRE001 fixture: a declared wire struct outside the shard module, and
a type that is NOT pickle-fallback-safe.

``DecisionContext`` is a declared wire struct (``LintConfig.wire_structs``
names it in ``core/heuristic.py``) that the fixture codec never
registers.  ``Snapshot`` is built by a class factory, so it is not a
top-level class in this module — ``pickle`` cannot re-import it by
qualified name.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class DecisionContext:
    """Missing from the codec's struct table: it would pickle every send."""

    round_index: int
    remaining: tuple


def _make_class():
    """Return a class object defined inside a function (pickle-unsafe)."""

    class Snapshot:
        """Not reachable as ``repro.core.heuristic.Snapshot``."""

        round_index = 0

    return Snapshot


Snapshot = _make_class()


def make_snapshot():
    """Factory the shard fixture re-exports."""
    return Snapshot()
