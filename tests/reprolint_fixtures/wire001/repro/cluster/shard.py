"""WIRE001 fixture: wire structs and a record with deliberate codec gaps."""

from dataclasses import dataclass

from repro.core.heuristic import Snapshot, make_snapshot


@dataclass(frozen=True)
class ShardTask:
    """Registered with the struct codec: every field crosses."""

    superstep: int
    inbox: dict


@dataclass(frozen=True)
class ShardDelta:
    """Absent from the codec's struct table, and references a
    non-picklable imported type."""

    shard_id: int
    context: Snapshot


@dataclass(frozen=True)
class PatchColumns:
    """A wire record beside the structs; the codec drops ``placed_pids``
    on encode."""

    ids: object
    placed_pids: object


__all__ = [
    "PatchColumns",
    "ShardDelta",
    "ShardTask",
    "make_snapshot",
]
