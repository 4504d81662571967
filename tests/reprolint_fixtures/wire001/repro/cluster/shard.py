"""WIRE001 fixture: wire structs with deliberate codec-coverage gaps."""

from dataclasses import dataclass

from repro.core.heuristic import DecisionContext, make_context


@dataclass(frozen=True)
class ShardTask:
    """Covered fields plus ``extra``, which the codec never touches."""

    superstep: int
    inbox: dict
    extra: float


@dataclass(frozen=True)
class ShardPatch:
    """Absent from the codec's dispatch table entirely."""

    upserts: dict


@dataclass(frozen=True)
class ShardDelta:
    """Fully covered, but references a non-picklable imported type."""

    shard_id: int
    context: DecisionContext


@dataclass(frozen=True)
class PatchColumns:
    """A wire record beside the structs; the codec drops ``placed_pids``
    on encode."""

    ids: object
    placed_pids: object


__all__ = [
    "PatchColumns",
    "ShardDelta",
    "ShardPatch",
    "ShardTask",
    "make_context",
]
