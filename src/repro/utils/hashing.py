"""Process-stable hashing used for hash partitioning.

The paper's default initial placement is ``H(v) mod k``.  Python's builtin
``hash`` is randomised per interpreter process (PYTHONHASHSEED), which would
make experiments unreproducible, so we hash through MD5 instead.  MD5 is
adequate here: we need dispersion, not cryptographic strength.  CPython's
own ``_md5`` gives OpenSSL's digest at well under its per-call cost.
"""

try:
    from _md5 import md5
except ImportError:  # pragma: no cover - builds without the built-in hashes
    from hashlib import md5

__all__ = ["stable_hash"]


def stable_hash(value):
    """Return a stable non-negative 64-bit integer hash of ``value``.

    Accepts ints, strings and bytes — the vertex-identifier types supported
    by the library.  Ints hash via their decimal rendering so that equal ints
    of different widths agree.
    """
    if type(value) is int:  # the common case first; bools keep "True"
        payload = b"%d" % value
    elif isinstance(value, bytes):
        payload = value
    elif isinstance(value, str):
        payload = value.encode("utf-8")
    elif isinstance(value, int):
        payload = str(value).encode("ascii")
    else:
        raise TypeError(
            "vertex identifiers must be int, str or bytes, got "
            f"{type(value).__name__}"
        )
    digest = md5(payload).digest()
    return int.from_bytes(digest[:8], "big")
