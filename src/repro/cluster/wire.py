"""The cluster wire format: framing, a compact binary codec, inbox combining.

Every byte the persistent-worker protocol moves — over TCP to a ``repro
worker``, whether a local ``--executor process`` spawned it or it runs on
another host — goes through this module.  Three layers:

**Framing.**  A frame is ``[u32 length][payload]`` (little-endian length,
bounded by :data:`MAX_FRAME`); the payload is the codec version byte
(:data:`CODEC_BINARY`), the body's CRC32 (so a flipped bit is a
:class:`WireError`, never wrong data) and the body.
:func:`send_frame` / :func:`recv_frame` speak frames over a socket with
exact reads, surfacing a clean peer close as :class:`EOFError` so callers
can distinguish "worker went away" from garbage.

**Codec.**  :func:`dumps` / :func:`loads` encode one protocol message in
a tagged binary format that packs
the hot structures — task inboxes, delta value maps and outboxes, patch
and proposal columns — as homogeneous little-endian buffers, delta-encoding
vertex-id columns so ids on a million-vertex graph cost bytes
proportional to their local gaps rather than their magnitude.  numpy is
*not* required: every int column is the same bytes whether the stdlib
:mod:`array` module or numpy packed it (numpy, when present, only does it
without a per-element Python loop).  The message plane's
:class:`~repro.pregel.messages.MessageColumns` and a *typed*
:class:`~repro.cluster.shard.PatchColumns` or
:class:`~repro.pregel.migration.ProposalColumns` have tags of their own
that need numpy on both sides; a *listed* record crosses under the same
tag as its generic lists and needs nothing.  The three
dataclass structs (``ShardTask``, ``ShardDelta`` and the round's
:class:`~repro.core.heuristic.DecisionContext`) encode field by field off
``dataclasses.fields`` through one function and rebuild positionally, so
a new field crosses by construction.  The tags are what the protocol
sends, not what Python has: anything else — the program and the empty
shards of the session-start ``init`` frame, ``bytes``, sets, ndarrays —
crosses under a pickle fallback tag, which no step frame needs.
:func:`loads` raises :class:`WireError`, and nothing else, on any payload
it cannot decode, and the codec's own tags never allocate what a length
field merely claims; the pickle fallback trusts its bytes like any
unpickling does (frames come from this program's own peers).

**Combining.**  :func:`combine_inbox` applies the program's combiner to a
shard's dict inbox *before* the wire (a columnar inbox was folded at
delivery and passes through), folding each multi-message mailbox to one
:class:`CombinedMessages` entry that still reports the original message
count through ``len()`` — which is exactly what keeps modelled compute cost
(``VertexProgram.compute_cost`` defaults to ``1 + len(messages)``), and
with it every golden timeline, bit-identical to the uncombined executors.
"""

from __future__ import annotations

import pickle
import socket
import struct
import sys
import zlib
from array import array
from collections.abc import Callable, Iterable, Sequence
from dataclasses import fields
from typing import Any, cast

from repro.cluster.shard import PatchColumns, ShardDelta, ShardTask
from repro.core.heuristic import DecisionContext
from repro.pregel.messages import CombinedMessages, MessageColumns
from repro.pregel.migration import ProposalColumns

try:  # numpy is optional everywhere in this repo
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the numpy-free CI leg
    _np = None

__all__ = [
    "CODEC_BINARY",
    "MAX_FRAME",
    "CombinedMessages",
    "WireError",
    "combine_inbox",
    "dumps",
    "frame",
    "loads",
    "recv_frame",
    "send_frame",
]

#: Codec byte of the tagged binary format (0x01, no checksum, is retired).
CODEC_BINARY = 0x02
#: Hard ceiling on one frame's payload (guards against a corrupt length
#: prefix turning into a multi-gigabyte allocation).
MAX_FRAME = 1 << 30

_U32 = struct.Struct("<I")
_HEAD = struct.Struct("<BI")  # the codec byte, then the body's CRC32
_BODY = _HEAD.size
_F64 = struct.Struct("<d")
_BIG_ENDIAN = sys.byteorder == "big"


class WireError(ValueError):
    """A malformed frame or an unencodable/undecodable payload."""


# ---------------------------------------------------------------------------
# Combining
# ---------------------------------------------------------------------------


def combine_inbox(
    inbox: Any, combiner: Callable[[Any, Any], Any] | None
) -> Any:
    """Fold every multi-message mailbox in ``inbox`` with ``combiner``.

    Returns a new inbox dict where each mailbox of ``n > 1`` messages became
    a :class:`CombinedMessages` holding the left-fold of the originals (the
    same association order ``MessageRouter.send`` would have combined them
    in) and remembering ``n``.  Single-message mailboxes pass through
    untouched; with no combiner — or nothing to fold — the original mapping
    is returned as-is, and so is a columnar inbox
    (:class:`~repro.pregel.messages.MessageColumns`), which
    ``MessageRouter.deliver`` already folded.
    """
    if combiner is None or isinstance(inbox, MessageColumns):
        return inbox
    folded_any = False
    combined: dict[Any, Any] = {}
    for vertex, messages in inbox.items():
        count = len(messages)
        if count > 1:
            folded = messages[0]
            for message in messages[1:]:
                folded = combiner(folded, message)
            combined[vertex] = CombinedMessages((folded,), count)
            folded_any = True
        else:
            combined[vertex] = messages
    return combined if folded_any else inbox


# ---------------------------------------------------------------------------
# Binary codec — encoding
# ---------------------------------------------------------------------------

_TAG_NONE = 0x00
_TAG_TRUE = 0x01
_TAG_FALSE = 0x02
_TAG_INT = 0x03
_TAG_FLOAT = 0x04
_TAG_STR = 0x05
_TAG_LIST = 0x07
_TAG_TUPLE = 0x08
_TAG_DICT = 0x09
_TAG_INT_ARRAY = 0x0B      # homogeneous int sequence, width-packed
_TAG_FLOAT_ARRAY = 0x0C    # homogeneous float sequence, f64-packed
_TAG_NUM_DICT = 0x0D       # {int: float} — packed keys + packed values
_TAG_COMBINED = 0x0E       # CombinedMessages, generic payload
_TAG_COMBINED_NUM_DICT = 0x0F  # {int: [float] | CombinedMessages([float])}
_TAG_OUTBOX = 0x11         # [((int, int), float), ...] — three columns
_TAG_TASK = 0x13
_TAG_DELTA = 0x15
_TAG_PICKLE = 0x16         # anything else
_TAG_COLUMNS = 0x17        # MessageColumns: packed ids/counts + raw payloads
_TAG_PATCH_COLUMNS = 0x18  # PatchColumns: packed columns, or eight lists
_TAG_CONTEXT = 0x19        # DecisionContext
_TAG_PROPOSALS = 0x1A      # ProposalColumns: packed columns, or four lists
# Retired, never to be reassigned: 0x06 (bytes), 0x0A (set), 0x10 (int
# rows), 0x12 (ndarray), 0x14 (the dict patch).  They decode as an
# unknown tag.


def _int_typecodes() -> dict[int, str]:
    """Map item sizes 1/2/4/8 to signed :mod:`array` typecodes, portably."""
    by_size: dict[int, str] = {}
    for code in "bhilq":
        by_size.setdefault(array(code).itemsize, code)
    return {size: by_size[size] for size in (1, 2, 4, 8)}


_INT_TC = _int_typecodes()
_INT_BOUNDS = {
    size: (-(1 << (8 * size - 1)), (1 << (8 * size - 1)) - 1)
    for size in (1, 2, 4, 8)
}
_I64_LO, _I64_HI = _INT_BOUNDS[8]
#: Little-endian numpy dtypes by item size — the numpy twin of ``_INT_TC``.
_NP_INT = {1: "<i1", 2: "<i2", 4: "<i4", 8: "<i8"}
# From this many entries up numpy packs and unpacks an int column (same
# bytes); below, the array-module path beats the ndarray round trip.
_NUMPY_MIN = 32
# Width-byte flag: the column is stored as first-value + consecutive
# differences instead of absolute values.  Vertex-id columns (inbox keys,
# candidate lists, outbox targets) have small gaps between neighbouring
# entries even when the ids themselves need 4+ bytes, so the differences
# width-select one or two sizes smaller.
_DELTA_FLAG = 0x40


def _write_uint(out: bytearray, n: int) -> None:
    while True:
        byte = n & 0x7F
        n >>= 7
        if n:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _write_sint(out: bytearray, n: int) -> None:
    """A signed int as a zigzag varint (arbitrary precision)."""
    _write_uint(out, (n << 1) if n >= 0 else ((-n << 1) - 1))


def _select_width(lo: int, hi: int) -> int | None:
    for size in (1, 2, 4, 8):
        lo_bound, hi_bound = _INT_BOUNDS[size]
        if lo_bound <= lo and hi <= hi_bound:
            return size
    return None


def _pack_array(
    typecode: str, values: Sequence[int], out: bytearray
) -> None:
    packed = array(typecode, values)
    if _BIG_ENDIAN:  # pragma: no cover - little-endian hosts
        packed.byteswap()
    out += packed.tobytes()


def _pack_ints(values: Sequence[int], out: bytearray) -> bool:
    """Width-select and pack a list of ints; False when out of i64 range.

    Appends ``[width byte][count varint][payload]`` to ``out``.  When the
    consecutive differences fit a strictly narrower width than the values
    (and the first value fits i64 as a zigzag varint), the column is stored
    delta-encoded instead — ``[width | _DELTA_FLAG][count][zigzag first]
    [packed differences]`` — which is what keeps large-graph vertex-id
    columns near one byte per entry.
    """
    if not values:
        out.append(1)
        _write_uint(out, 0)
        return True
    if _np is not None and len(values) >= _NUMPY_MIN:
        try:
            column = _np.array(values, dtype=_np.int64)
        except OverflowError:
            pass  # bigints: only the delta form below may still fit
        else:
            _pack_int_column(column, out)
            return True
    plain = _select_width(min(values), max(values))
    if len(values) > 1:
        diffs = [b - a for a, b in zip(values, values[1:])]
        narrow = _select_width(min(diffs), max(diffs))
        if narrow is not None and (plain is None or narrow < plain):
            first = values[0]
            out.append(narrow | _DELTA_FLAG)
            _write_uint(out, len(values))
            _write_sint(out, first)
            _pack_array(_INT_TC[narrow], diffs, out)
            return True
    if plain is None:
        return False
    out.append(plain)
    _write_uint(out, len(values))
    _pack_array(_INT_TC[plain], values, out)
    return True


def _pack_int_column(column: Any, out: bytearray) -> None:
    """:func:`_pack_ints` over an int64 ndarray: the same bytes, with the
    width selection and differences computed by numpy (an empty column is
    a plain one-byte-wide one)."""
    count = len(column)
    lo, hi = (int(column.min()), int(column.max())) if count else (0, 0)
    plain = _select_width(lo, hi) or 8
    # Differences cannot wrap while the value range fits int64; a wider
    # range (in a column under 2**32 entries) holds a step beyond four
    # bytes, so the plain form wins there anyway.
    if count > 1 and hi - lo <= _I64_HI:
        diffs = column[1:] - column[:-1]
        narrow = _select_width(int(diffs.min()), int(diffs.max())) or 8
        if narrow < plain:
            out.append(narrow | _DELTA_FLAG)
            _write_uint(out, count)
            _write_sint(out, int(column[0]))
            out += diffs.astype(_NP_INT[narrow]).tobytes()
            return
    out.append(plain)
    _write_uint(out, count)
    out += column.astype(_NP_INT[plain]).tobytes()


def _pack_floats(values: Sequence[float], out: bytearray) -> None:
    """Pack a list of floats as ``[count varint][f64 payload]``."""
    _write_uint(out, len(values))
    packed = array("d", values)
    if _BIG_ENDIAN:  # pragma: no cover - little-endian hosts
        packed.byteswap()
    out += packed.tobytes()


def _all_exact(items: Iterable[Any], kind: type) -> bool:
    return set(map(type, items)) <= {kind}


def _encode_sequence(
    obj: Sequence[Any], out: bytearray, container: int
) -> None:
    generic_tag = _TAG_LIST if container == 0 else _TAG_TUPLE
    n = len(obj)
    if n:
        first = type(obj[0])
        if first is int and _all_exact(obj, int):
            mark = len(out)
            out.append(_TAG_INT_ARRAY)
            out.append(container)
            if _pack_ints(obj, out):
                return
            del out[mark:]  # bigints: fall through to the generic encoding
        elif first is float and _all_exact(obj, float):
            out.append(_TAG_FLOAT_ARRAY)
            out.append(container)
            _pack_floats(obj, out)
            return
    out.append(generic_tag)
    _write_uint(out, n)
    for item in obj:
        _encode(item, out)


def _encode_list(obj: Sequence[Any], out: bytearray) -> None:
    _encode_sequence(obj, out, 0)


def _encode_tuple(obj: Sequence[Any], out: bytearray) -> None:
    _encode_sequence(obj, out, 1)


def _packed_mailbox_count(value: Any) -> int | None:
    """The count column entry of one packed-inbox mailbox, or None.

    Packable: a plain one-float list (count 1) and a
    :class:`CombinedMessages` around one float — everything
    :func:`combine_inbox` makes of float mailboxes.  Count 1 *means* the
    plain list, so a ``CombinedMessages`` claiming one original is left to
    the generic encoding: the round trip stays type-exact.
    """
    kind = type(value)
    if (
        (kind is not list and kind is not CombinedMessages)
        or list.__len__(value) != 1
        or type(value[0]) is not float
    ):
        return None
    if kind is list:
        return 1
    count: int = value.logical_len
    return None if count == 1 else count


def _encode_dict(obj: dict[Any, Any], out: bytearray) -> None:
    n = len(obj)
    if n:
        # reprolint: allow-DET001 the codec must preserve the host dict's insertion order byte-for-byte
        keys = list(obj.keys())
        values = list(obj.values())
        if _all_exact(keys, int):
            if _all_exact(values, float):
                mark = len(out)
                out.append(_TAG_NUM_DICT)
                if _pack_ints(keys, out):
                    _pack_floats(values, out)
                    return
                del out[mark:]
            elif _packed_mailbox_count(values[0]) is not None:
                counts = list(map(_packed_mailbox_count, values))
                if None not in counts:
                    mark = len(out)
                    out.append(_TAG_COMBINED_NUM_DICT)
                    if _pack_ints(keys, out) and _pack_ints(
                        cast("list[int]", counts), out
                    ):
                        _pack_floats([v[0] for v in values], out)
                        return
                    del out[mark:]
    out.append(_TAG_DICT)
    _write_uint(out, n)
    for key, value in obj.items():
        _encode(key, out)
        _encode(value, out)


def _encode_outbox(entries: Any, out: bytearray) -> None:
    """Three-column packing for ``[((worker, target), payload), ...]``
    (a columnar outbox has its own tag)."""
    if type(entries) is not list:
        _encode(entries, out)
        return
    if entries and all(
        type(e) is tuple
        and len(e) == 2
        and type(e[0]) is tuple
        and len(e[0]) == 2
        and type(e[0][0]) is int
        and type(e[0][1]) is int
        and type(e[1]) is float
        for e in entries
    ):
        mark = len(out)
        out.append(_TAG_OUTBOX)
        _write_uint(out, len(entries))
        if _pack_ints([e[0][0] for e in entries], out) and _pack_ints(
            [e[0][1] for e in entries], out
        ):
            _pack_floats([e[1] for e in entries], out)
            return
        del out[mark:]
    _encode_list(entries, out)


def _write_column_head(
    payloads: Any, flags: int, record_bit: int, out: bytearray
) -> None:
    """The flags byte of a column tag and — only for ``(n, c)`` record
    payloads, marked by ``record_bit`` — their width as a varint, so a
    scalar column's frame stays the bytes it always was."""
    if payloads.ndim == 2:
        out.append(flags | record_bit)
        _write_uint(out, payloads.shape[1])
    else:
        out.append(flags)


def _encode_columns(obj: MessageColumns, out: bytearray) -> None:
    """``[flags][width]?[targets column][payload buffer][counts column]``.

    Flag bit 0: a ``counts`` column follows; bit 1: payloads are int64
    (else float64); bit 2: payloads are records, their width (≥ 2)
    follows the flags.  Id and count columns are width-selected and
    delta-encoded like every int column; payloads are the raw row-major
    little-endian buffer, ``len(targets)`` × width items long.
    """
    payloads = obj.payloads
    integral = payloads.dtype.kind == "i"
    out.append(_TAG_COLUMNS)
    _write_column_head(
        payloads, (obj.counts is not None) | (integral << 1), 4, out
    )
    _pack_int_column(obj.targets, out)
    out += payloads.astype("<i8" if integral else "<f8", copy=False).tobytes()
    if obj.counts is not None:
        _pack_int_column(obj.counts, out)


def _encode_pickle(obj: Any, out: bytearray) -> None:
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    out.append(_TAG_PICKLE)
    _write_uint(out, len(payload))
    out += payload


def _encode_none(obj: None, out: bytearray) -> None:
    out.append(_TAG_NONE)


def _encode_bool(obj: bool, out: bytearray) -> None:
    out.append(_TAG_TRUE if obj else _TAG_FALSE)


def _encode_int(obj: int, out: bytearray) -> None:
    out.append(_TAG_INT)
    _write_sint(out, obj)


def _encode_float(obj: float, out: bytearray) -> None:
    out.append(_TAG_FLOAT)
    out += _F64.pack(obj)


def _encode_str(obj: str, out: bytearray) -> None:
    payload = obj.encode("utf-8")
    out.append(_TAG_STR)
    _write_uint(out, len(payload))
    out += payload


def _encode_combined(obj: CombinedMessages, out: bytearray) -> None:
    out.append(_TAG_COMBINED)
    _write_uint(out, obj.logical_len)
    _write_uint(out, list.__len__(obj))
    for item in list.__iter__(obj):
        _encode(item, out)


def _encode_patch_columns(obj: PatchColumns, out: bytearray) -> None:
    """``[flags][width]?[seven int columns][raw value buffer]``, or
    ``[flags = 4][the eight columns, each a generic list]``.

    Flag bit 0: values are int64 (else float64); bit 1: values are
    records, their width (≥ 2) follows the flags; bit 2, alone: the
    listed regime.  A typed record's int columns — ids, degrees,
    neighbours, halted (as 0/1), removes, placed ids, placed pids — are
    width-selected and delta-encoded like every int column; values are
    the raw row-major little-endian buffer, ``len(ids)`` × width items
    long.  Listed columns cross in field order as what they are.
    """
    out.append(_TAG_PATCH_COLUMNS)
    if not obj.typed:
        out.append(4)
        for spec in fields(obj):
            _encode_list(getattr(obj, spec.name), out)
        return
    values = obj.values
    integral = values.dtype.kind == "i"
    _write_column_head(values, integral, 2, out)
    for column in (
        obj.ids, obj.degrees, obj.neighbours, obj.halted.astype(_np.int64),
        obj.removes, obj.placed_ids, obj.placed_pids,
    ):
        _pack_int_column(column, out)
    out += values.astype("<i8" if integral else "<f8", copy=False).tobytes()


def _encode_proposals(obj: ProposalColumns, out: bytearray) -> None:
    """``[flags = 0][ids, current, desired int columns][willing bytes]``,
    or ``[flags = 4][the four columns, each a generic list]``.

    Typed int columns are width-selected and delta-encoded like every int
    column; ``willing`` is one byte per row, 0 or 1.  Listed columns
    cross in field order as what they are.
    """
    out.append(_TAG_PROPOSALS)
    if not obj.typed:
        out.append(4)
        for column in (obj.ids, obj.current, obj.desired, obj.willing):
            _encode_list(column, out)
        return
    out.append(0)
    for column in (obj.ids, obj.current, obj.desired):
        _pack_int_column(column, out)
    out += obj.willing.tobytes()


#: The dataclass structs: ``[tag][every field, in declaration order]``,
#: decoded positionally — a field cannot be dropped on either side.
_STRUCTS: dict[type, int] = {
    ShardTask: _TAG_TASK,
    ShardDelta: _TAG_DELTA,
    DecisionContext: _TAG_CONTEXT,
}
_STRUCT_OF_TAG = {tag: kind for kind, tag in _STRUCTS.items()}
#: Struct fields with a packed shape of their own (by field name).
_FIELD_ENCODERS = {"outbox": _encode_outbox}


def _encode_struct(obj: Any, out: bytearray) -> None:
    out.append(_STRUCTS[type(obj)])
    for spec in fields(obj):
        _FIELD_ENCODERS.get(spec.name, _encode)(getattr(obj, spec.name), out)


_ENCODERS: dict[type, Callable[[Any, bytearray], None]] = {
    type(None): _encode_none,
    bool: _encode_bool,
    int: _encode_int,
    float: _encode_float,
    str: _encode_str,
    list: _encode_list,
    tuple: _encode_tuple,
    dict: _encode_dict,
    CombinedMessages: _encode_combined,
    MessageColumns: _encode_columns,
    PatchColumns: _encode_patch_columns,
    ProposalColumns: _encode_proposals,
    **dict.fromkeys(_STRUCTS, _encode_struct),
}


def _encode(obj: Any, out: bytearray) -> None:
    _ENCODERS.get(type(obj), _encode_pickle)(obj, out)


# ---------------------------------------------------------------------------
# Binary codec — decoding
# ---------------------------------------------------------------------------


class _Reader:
    __slots__ = ("buf", "pos")

    def __init__(self, buf: memoryview, pos: int) -> None:
        self.buf = buf
        self.pos = pos

    def take(self, n: int) -> memoryview:
        end = self.pos + n
        if end > len(self.buf):
            raise WireError("truncated frame")
        chunk = self.buf[self.pos:end]
        self.pos = end
        return chunk

    def byte(self) -> int:
        if self.pos >= len(self.buf):
            raise WireError("truncated frame")
        value = self.buf[self.pos]
        self.pos += 1
        return value

    def uint(self) -> int:
        shift = 0
        value = 0
        while True:
            byte = self.byte()
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7

    def sint(self) -> int:
        encoded = self.uint()
        return (encoded >> 1) if not encoded & 1 else -((encoded + 1) >> 1)


def _read_int_header(reader: _Reader) -> tuple[int, int, int | None]:
    """``(item size, count, first value)`` of an int column; ``first`` is
    None for a plain column, the zigzag-coded start of a delta one."""
    spec = reader.byte()
    size = spec & ~_DELTA_FLAG
    if size not in _INT_TC:
        raise WireError(f"bad int-array width {spec:#x}")
    count = reader.uint()
    if not spec & _DELTA_FLAG:
        return size, count, None
    if count == 0:
        raise WireError("empty delta-encoded int array")
    return size, count, reader.sint()


def _read_int_array(reader: _Reader) -> list[int]:
    size, count, first = _read_int_header(reader)
    chunk = reader.take((count if first is None else count - 1) * size)
    # numpy decodes plain columns, and delta columns whose running sum
    # provably stays inside int64 (steps under 8 bytes cannot wrap it in
    # one frame); everything else takes the arbitrary-precision loop.
    if _np is not None and count >= _NUMPY_MIN and (
        first is None or (size < 8 and _I64_LO <= first <= _I64_HI)
    ):
        steps = _np.frombuffer(chunk, dtype=_NP_INT[size])
        if first is None:
            return steps.tolist()
        sums = _np.cumsum(steps, dtype=_np.int64)
        if (
            _I64_LO <= first + int(sums.min())
            and first + int(sums.max()) <= _I64_HI
        ):
            sums += first
            return [first, *sums.tolist()]
    typecode = _INT_TC[size]
    packed = array(typecode)
    packed.frombytes(chunk)
    if _BIG_ENDIAN:  # pragma: no cover - little-endian hosts
        packed.byteswap()
    if first is None:
        return packed.tolist()
    value = first
    items = [value]
    append = items.append
    for diff in packed:
        value += diff
        append(value)
    return items


def _read_int_column(reader: _Reader) -> Any:
    """One int column as an int64 ndarray (the numpy-only column tag)."""
    size, count, first = _read_int_header(reader)
    if first is None:
        chunk = reader.take(count * size)
        return _np.frombuffer(chunk, dtype=_NP_INT[size]).astype(_np.int64)
    if not _I64_LO <= first <= _I64_HI:
        raise WireError("int column starts beyond int64")
    steps = _np.frombuffer(reader.take((count - 1) * size), dtype=_NP_INT[size])
    column = _np.empty(count, dtype=_np.int64)
    column[0] = first
    _np.cumsum(steps, dtype=_np.int64, out=column[1:])
    column[1:] += first
    return column


def _read_width(reader: _Reader, flags: int, record_bit: int) -> int:
    """Payload width of a column tag: 1 unless ``record_bit`` is set."""
    if not flags & record_bit:
        return 1
    width = reader.uint()
    if width < 2:
        raise WireError(f"record columns are two or more wide, not {width}")
    return width


def _read_payloads(
    reader: _Reader, rows: int, width: int, integral: int
) -> Any:
    """A raw payload buffer as a native ``rows``-long column (``(rows,
    width)`` for records); :meth:`_Reader.take` bounds it by the frame."""
    raw = _np.frombuffer(
        reader.take(rows * width * 8), dtype="<i8" if integral else "<f8"
    )
    column = raw.astype(raw.dtype.newbyteorder("="))
    return column if width == 1 else column.reshape(rows, width)


def _same_length(*columns: Any) -> None:
    """Columns of one packed structure must agree; ``zip`` would truncate."""
    if len(set(map(len, columns))) > 1:
        raise WireError("packed columns disagree in length")


def _read_float_array(reader: _Reader) -> list[float]:
    count = reader.uint()
    packed = array("d")
    packed.frombytes(reader.take(count * 8))
    if _BIG_ENDIAN:  # pragma: no cover - little-endian hosts
        packed.byteswap()
    return packed.tolist()


def _decode(reader: _Reader) -> Any:
    tag = reader.byte()
    if tag == _TAG_NONE:
        return None
    if tag == _TAG_TRUE:
        return True
    if tag == _TAG_FALSE:
        return False
    if tag == _TAG_INT:
        return reader.sint()
    if tag == _TAG_FLOAT:
        return _F64.unpack(reader.take(8))[0]
    if tag == _TAG_STR:
        return bytes(reader.take(reader.uint())).decode("utf-8")
    if tag == _TAG_LIST:
        return [_decode(reader) for _ in range(reader.uint())]
    if tag == _TAG_TUPLE:
        return tuple(_decode(reader) for _ in range(reader.uint()))
    if tag == _TAG_DICT:
        return {
            _decode(reader): _decode(reader) for _ in range(reader.uint())
        }
    if tag == _TAG_INT_ARRAY or tag == _TAG_FLOAT_ARRAY:
        container = reader.byte()
        if container > 1:
            raise WireError(f"bad packed-sequence container {container:#x}")
        read = _read_int_array if tag == _TAG_INT_ARRAY else _read_float_array
        packed = read(reader)
        return packed if container == 0 else tuple(packed)
    if tag == _TAG_NUM_DICT:
        keys = _read_int_array(reader)
        floats = _read_float_array(reader)
        _same_length(keys, floats)
        return dict(zip(keys, floats))
    if tag == _TAG_COMBINED:
        logical = reader.uint()
        items = [_decode(reader) for _ in range(reader.uint())]
        return CombinedMessages(items, logical)
    if tag == _TAG_COMBINED_NUM_DICT:
        keys = _read_int_array(reader)
        counts = _read_int_array(reader)
        payloads = _read_float_array(reader)
        _same_length(keys, counts, payloads)
        return {
            key: [payload] if count == 1
            else CombinedMessages((payload,), count)
            for key, count, payload in zip(keys, counts, payloads)
        }
    if tag == _TAG_OUTBOX:
        reader.uint()  # count (redundant with the columns)
        workers = _read_int_array(reader)
        targets = _read_int_array(reader)
        payloads = _read_float_array(reader)
        _same_length(workers, targets, payloads)
        return [
            ((worker, target), payload)
            for worker, target, payload in zip(workers, targets, payloads)
        ]
    if tag == _TAG_COLUMNS:
        if _np is None:
            raise WireError(
                "frame contains message columns but numpy is not installed"
            )
        flags = reader.byte()
        if flags > 7:
            raise WireError(f"bad message-columns flags {flags:#x}")
        width = _read_width(reader, flags, 4)
        ids = _read_int_column(reader)
        try:
            return MessageColumns(
                targets=ids,
                payloads=_read_payloads(reader, len(ids), width, flags & 2),
                counts=_read_int_column(reader) if flags & 1 else None,
            )
        except ValueError as exc:  # column lengths or dtype disagree
            raise WireError(str(exc)) from None
    if tag == _TAG_PATCH_COLUMNS:
        flags = reader.byte()
        if flags > 4:
            raise WireError(f"bad patch-columns flags {flags:#x}")
        if flags < 4 and _np is None:
            raise WireError(
                "frame contains typed patch columns but numpy is not installed"
            )
        try:
            if flags == 4:
                return PatchColumns(*[_decode(reader) for _ in range(8)])
            width = _read_width(reader, flags, 2)
            ids, degrees, neighbours, halted, removes, placed_ids, pids = (
                _read_int_column(reader) for _ in range(7)
            )
            return PatchColumns(
                ids=ids,
                values=_read_payloads(reader, len(ids), width, flags & 1),
                degrees=degrees,
                neighbours=neighbours,
                halted=halted.astype(bool),
                removes=removes,
                placed_ids=placed_ids,
                placed_pids=pids,
            )
        except ValueError as exc:  # columns disagree (or are not lists)
            raise WireError(str(exc)) from None
    if tag == _TAG_PROPOSALS:
        return _decode_proposals(reader)
    kind = _STRUCT_OF_TAG.get(tag)
    if kind is not None:
        return kind(*[_decode(reader) for _ in fields(kind)])
    if tag == _TAG_PICKLE:
        return pickle.loads(bytes(reader.take(reader.uint())))
    raise WireError(f"unknown wire tag {tag:#x}")


def _decode_proposals(reader: _Reader) -> ProposalColumns:
    flags = reader.byte()
    if flags not in (0, 4):
        raise WireError(f"bad proposal-columns flags {flags:#x}")
    if not flags and _np is None:
        raise WireError(
            "frame contains typed proposal columns but numpy is not installed"
        )
    try:
        if flags:
            return ProposalColumns(*[_decode(reader) for _ in range(4)])
        ids, current, desired = (_read_int_column(reader) for _ in range(3))
        raw = _np.frombuffer(reader.take(len(ids)), dtype=_np.uint8)
        if (raw > 1).any():
            raise WireError("proposal willingness bytes must be 0 or 1")
        return ProposalColumns(
            ids=ids, current=current, desired=desired, willing=raw.astype(bool)
        )
    except WireError:
        raise
    except ValueError as exc:  # columns disagree (or are not lists)
        raise WireError(str(exc)) from None


# ---------------------------------------------------------------------------
# Message and frame API
# ---------------------------------------------------------------------------


def dumps(obj: Any) -> bytes:
    """Encode one protocol message to a frame payload: the codec byte,
    the body's CRC32, the body."""
    body = bytearray()
    _encode(obj, body)
    return _HEAD.pack(CODEC_BINARY, zlib.crc32(body)) + body


def loads(payload: bytes) -> Any:
    """Decode one frame payload produced by :func:`dumps`."""
    if not payload:
        raise WireError("empty frame payload")
    codec = payload[0]
    if codec != CODEC_BINARY:
        raise WireError(f"unknown codec byte {codec:#x}")
    view = memoryview(payload)
    crc = _HEAD.unpack_from(view)[1] if len(view) >= _BODY else None
    if zlib.crc32(view[_BODY:]) != crc:
        raise WireError("frame header or body fails its CRC32 check")
    try:
        return _decode(_Reader(view, _BODY))
    except WireError:
        raise
    except Exception as exc:
        # Corrupt bytes can fail anywhere below — invalid UTF-8, an
        # unhashable dict key, a pickle that does not unpickle, nesting
        # past the recursion limit.  Callers get the one exception type.
        raise WireError(f"undecodable frame payload: {exc!r}") from exc


def frame(obj: Any) -> bytes:
    """Encode ``obj`` as one complete length-prefixed frame."""
    payload = dumps(obj)
    if len(payload) > MAX_FRAME:
        raise WireError(
            f"frame payload of {len(payload)} bytes exceeds MAX_FRAME"
        )
    return _U32.pack(len(payload)) + payload


def send_frame(sock: socket.socket, obj: Any) -> int:
    """Send one frame over ``sock``; returns the bytes put on the wire."""
    data = frame(obj)
    sock.sendall(data)
    return len(data)


def _recv_exactly(sock: socket.socket, n: int, at_boundary: bool) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if at_boundary and remaining == n:
                raise EOFError("connection closed")
            raise WireError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_payload(sock: socket.socket) -> bytes:
    """Receive one frame from ``sock``; returns the undecoded payload bytes.

    A peer that closes cleanly *between* frames raises :class:`EOFError`
    (the protocol's signal for a departed peer); a close mid-frame
    or a length prefix beyond :data:`MAX_FRAME` raises :class:`WireError`.
    """
    header = _recv_exactly(sock, _U32.size, at_boundary=True)
    (length,) = _U32.unpack(header)
    if length > MAX_FRAME:
        raise WireError(f"frame length {length} exceeds MAX_FRAME")
    return _recv_exactly(sock, length, at_boundary=False)


def recv_frame(sock: socket.socket) -> Any:
    """Receive one frame from ``sock``; decode and return the message.

    Error behaviour is that of :func:`recv_payload`.
    """
    return loads(recv_payload(sock))
