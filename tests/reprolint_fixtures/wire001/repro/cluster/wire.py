"""WIRE001 fixture: a miniature codec with deliberate gaps."""

from repro.cluster.shard import PatchColumns, ShardDelta, ShardTask
from repro.pregel.messages import MessageColumns

_TAG_TASK = 1
_TAG_DELTA = 2
_TAG_COLUMNS = 3
_TAG_PATCH_COLUMNS = 4


def _encode_task(obj, out):
    """Reads superstep and inbox but never ``extra``."""
    out.append((_TAG_TASK, obj.superstep, obj.inbox))


def _encode_delta(obj, out):
    """Reads every ShardDelta field."""
    out.append((_TAG_DELTA, obj.shard_id, obj.context))


def _encode_columns(obj, out):
    """Reads targets and payloads but never ``counts``."""
    out.append((_TAG_COLUMNS, obj.targets, obj.payloads))


def _encode_patch_columns(obj, out):
    """Reads ids but never ``placed_pids``."""
    out.append((_TAG_PATCH_COLUMNS, obj.ids))


_ENCODERS = {
    ShardTask: _encode_task,
    ShardDelta: _encode_delta,
    MessageColumns: _encode_columns,
    PatchColumns: _encode_patch_columns,
}


def _decode(payload):
    """Reconstructs ShardTask without ``inbox``/``extra``, the record
    without ``payloads``; delta and patch columns fully."""
    tag = payload[0]
    if tag == _TAG_TASK:
        return ShardTask(superstep=payload[1])
    if tag == _TAG_COLUMNS:
        return MessageColumns(targets=payload[1], counts=None)
    if tag == _TAG_PATCH_COLUMNS:
        return PatchColumns(ids=payload[1], placed_pids=None)
    return ShardDelta(shard_id=payload[1], context=payload[2])
