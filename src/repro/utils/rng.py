"""Deterministic random number generation.

Every stochastic component in the library (willingness-to-move draws, random
initial partitioning, synthetic graph generators, stream generators, failure
injection) receives its own :class:`random.Random` instance created here.
Components never share RNG state; instead each derives a child seed from the
experiment seed plus a distinct label, so adding a new consumer of randomness
never perturbs the draws seen by existing ones.

Two sharing disciplines coexist:

* **stream RNGs** (:func:`make_rng`) — a sequential :class:`random.Random`
  per component.  Right for single-process loops, but a stream position is
  global state: consumers must draw in one agreed order, which is exactly
  what a sharded decision phase cannot guarantee.
* **counter-split draws** (:class:`WillingnessSource`) — each draw is a pure
  function of ``(lane, round, vertex)``, with no stream position at all.
  Any worker can draw for any vertex in any order — or in parallel, or
  vectorised over a whole shard block — and every draw comes out identical.
  This is what makes the shard-local partitioning phase bit-reproducible
  across executors, shard counts and decision modes.
"""

import hashlib
import random
from array import array

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is optional
    _np = None

__all__ = [
    "WillingnessSource", "derive_seed", "make_rng", "random_column",
    "shuffled_order", "vertex_key",
]

_SEED_SPACE = 2**63
_MASK64 = 0xFFFFFFFFFFFFFFFF
# splitmix64 constants (Steele, Lea & Flood): a measured-quality finalizer.
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_ROUND_SALT = 0xC2B2AE3D27D4EB4F  # keeps the round key off the vertex lane


def derive_seed(base_seed, *labels):
    """Derive a child seed from ``base_seed`` and a sequence of labels.

    The derivation is a SHA-256 over the textual rendering of the base seed
    and labels, so it is stable across processes and Python versions (unlike
    ``hash``).  Labels may be any objects with a stable ``repr`` — in practice
    strings and integers.

    >>> derive_seed(42, "partitioner") == derive_seed(42, "partitioner")
    True
    >>> derive_seed(42, "partitioner") != derive_seed(42, "generator")
    True
    """
    digest = hashlib.sha256()
    digest.update(repr(base_seed).encode("utf-8"))
    for label in labels:
        digest.update(b"\x1f")
        digest.update(repr(label).encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big") % _SEED_SPACE


def make_rng(base_seed, *labels):
    """Create an independent :class:`random.Random` for one component.

    ``make_rng(seed)`` seeds directly; ``make_rng(seed, "label", 3)`` first
    derives a child seed via :func:`derive_seed`.
    """
    if labels:
        return random.Random(derive_seed(base_seed, *labels))
    return random.Random(base_seed)


def shuffled_order(rng, n):
    """The permutation ``rng.shuffle`` applies to an ``n``-list, as an
    int64 column (numpy only).

    Draws exactly what :meth:`random.Random.shuffle` draws —
    ``getrandbits(m.bit_length())`` with rejection for ``m = n … 2`` — so
    the stream after it is the same; only the swaps replay vectorised.
    Step ``i`` leaves ``x[i]`` final, holding what was last written into
    its target ``j_i`` — by the next-larger step with that target, whose
    own value is found the same way — so pointer jumping over "last
    writer" resolves every chain at once.
    """
    getrandbits = rng.getrandbits
    draws = array("q")
    append = draws.append
    top = n
    while top > 1:  # one bit length k at a time: m = top … 2**(k-1)
        k = top.bit_length()
        for m in range(top, (1 << (k - 1)) - 1, -1):
            r = getrandbits(k)
            while r >= m:
                r = getrandbits(k)
            append(r)
        top = (1 << (k - 1)) - 1
    steps = _np.arange(n, dtype=_np.int64)
    target = _np.zeros(n, dtype=_np.int64)  # step 0 stands for x[0]'s end
    target[1:] = _np.frombuffer(draws, dtype=_np.int64)[::-1]
    grouped = _np.sort(target * n + steps) % n  # by target, then step
    same = target[grouped[1:]] == target[grouped[:-1]]
    later = _np.full(n, -1, dtype=_np.int64)  # next step, same target
    later[grouped[:-1][same]] = grouped[1:][same]
    first = _np.full(n, -1, dtype=_np.int64)  # first step into a slot
    heads = grouped[_np.concatenate(([True], ~same))] if n else grouped
    first[target[heads]] = heads
    writer = _np.where(first == steps, later, first)  # > its slot, or −1
    chain = _np.where(writer > 0, writer, steps)
    while not _np.array_equal(chain[chain], chain):
        chain = chain[chain]
    return _np.where(later >= 0, chain[_np.maximum(later, 0)], target)


def random_column(rng, n):
    """The next ``n`` ``rng.random()`` draws, in order, as a float64 column."""
    return _np.fromiter(iter(rng.random, 2.0), dtype=_np.float64, count=n)


def _mix64(x):
    """The splitmix64 finalizer: a 64-bit bijection with strong avalanche."""
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return x ^ (x >> 31)


def vertex_key(vertex):
    """A stable 64-bit integer key for one vertex id.

    Plain ints key as themselves (wrapped to 64 bits, so negative ids are
    legal); any other hashable id keys through SHA-256 of its ``repr`` —
    stable across processes and Python versions, like :func:`derive_seed`.
    bools are not ints here: ``True`` must not collide with vertex ``1``
    only on the scalar path while an int64 array path sees them as 0/1.
    """
    if type(vertex) is int:
        return vertex & _MASK64
    digest = hashlib.sha256(repr(vertex).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class WillingnessSource:
    """Per-vertex keyed willingness draws for the migration decision phase.

    Each draw is a pure function of ``(lane, round, vertex)`` — no shared
    stream position — so shards can draw for their own residents without
    coordination and the result is invariant to shard count, executor
    backend and evaluation order.  The scalar and numpy paths compute the
    identical splitmix64 chain, so timelines are bit-identical with and
    without numpy (the ``(x >> 11) * 2**-53`` float conversion is exact in
    both).

    ``lane`` is a 64-bit key derived from the experiment seed (one lane per
    system, via :func:`derive_seed`), so willingness draws can never collide
    with any other consumer of the seed.
    """

    __slots__ = ("lane",)

    def __init__(self, base_seed, *labels):
        self.lane = (
            derive_seed(base_seed, *labels) if labels else int(base_seed) & _MASK64
        )

    def _state(self, round_index):
        # Fold the round into the lane once; per-vertex work is one _mix64.
        return _mix64(
            (self.lane ^ ((round_index * _ROUND_SALT) & _MASK64)) & _MASK64
        )

    def draw(self, round_index, vertex):
        """Uniform float in [0, 1) keyed by ``(lane, round, vertex)``.

        >>> s = WillingnessSource(42, "willingness")
        >>> s.draw(3, 17) == s.draw(3, 17)
        True
        >>> 0.0 <= s.draw(3, 17) < 1.0
        True
        """
        state = self._state(round_index)
        bits = _mix64((state + (vertex_key(vertex) * _GOLDEN)) & _MASK64)
        return (bits >> 11) * 2.0**-53

    def willing(self, round_index, vertex, s):
        """The willingness coin: True with probability ``s``."""
        return self.draw(round_index, vertex) < s

    def draw_keys(self, round_index, keys):
        """Vectorised :meth:`draw` over an array of 64-bit vertex keys.

        ``keys`` is a numpy integer array of :func:`vertex_key` values (a
        plain-int id *is* its key, so int id arrays pass through directly).
        Bit-identical to the scalar path, element for element.
        """
        state = _np.uint64(self._state(round_index))
        x = keys.astype(_np.uint64) * _np.uint64(_GOLDEN) + state
        x = (x ^ (x >> _np.uint64(30))) * _np.uint64(_MIX1)
        x = (x ^ (x >> _np.uint64(27))) * _np.uint64(_MIX2)
        x ^= x >> _np.uint64(31)
        return (x >> _np.uint64(11)).astype(_np.float64) * 2.0**-53

    def draw_map(self, round_index, vertices):
        """Draws for many vertices at once, as a ``{vertex: draw}`` dict.

        One vectorised pass when numpy is present and every id is a plain
        int64-sized int (the common case); the scalar path otherwise —
        values are bit-identical either way, so callers can treat this as
        a pure convenience over :meth:`draw`.
        """
        vertices = list(vertices)
        if _np is not None and vertices:
            try:
                ids = _np.fromiter(
                    iter(vertices), dtype=_np.int64, count=len(vertices)
                )
            except (TypeError, ValueError, OverflowError):
                pass
            else:
                if all(type(v) is int for v in vertices):
                    draws = self.draw_keys(
                        round_index, ids.view(_np.uint64)
                    )
                    return dict(zip(vertices, draws.tolist()))
        draw = self.draw
        return {v: draw(round_index, v) for v in vertices}
