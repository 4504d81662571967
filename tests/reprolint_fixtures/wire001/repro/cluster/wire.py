"""WIRE001 fixture: a miniature codec with deliberate gaps."""

from dataclasses import fields

from repro.cluster.shard import PatchColumns, ShardTask
from repro.pregel.messages import MessageColumns

_TAG_TASK = 1
_TAG_COLUMNS = 3
_TAG_PATCH_COLUMNS = 4


def _encode(obj, out):
    """The generic field encoder."""
    out.append(obj)


def _encode_columns(obj, out):
    """Reads targets and payloads but never ``counts``."""
    out.append((_TAG_COLUMNS, obj.targets, obj.payloads))


def _encode_patch_columns(obj, out):
    """Reads ids but never ``placed_pids``."""
    out.append((_TAG_PATCH_COLUMNS, obj.ids))


# ShardDelta is a declared wire struct but never registered here.
_STRUCTS = {ShardTask: _TAG_TASK}
# ``inbox`` is a real field; ``outbocks`` names none (a typo never applies).
_FIELD_ENCODERS = {"inbox": _encode_columns, "outbocks": _encode_columns}


def _encode_struct(obj, out):
    """Every field, in declaration order — nothing to drop."""
    out.append(_STRUCTS[type(obj)])
    for spec in fields(obj):
        _FIELD_ENCODERS.get(spec.name, _encode)(getattr(obj, spec.name), out)


_ENCODERS = {
    MessageColumns: _encode_columns,
    PatchColumns: _encode_patch_columns,
    **dict.fromkeys(_STRUCTS, _encode_struct),
}


def _decode(payload):
    """Rebuilds structs positionally; the message record without
    ``payloads``, the patch record fully."""
    tag = payload[0]
    if tag == _TAG_COLUMNS:
        return MessageColumns(targets=payload[1], counts=None)
    if tag == _TAG_PATCH_COLUMNS:
        return PatchColumns(ids=payload[1], placed_pids=None)
    return ShardTask(*payload[1:])
