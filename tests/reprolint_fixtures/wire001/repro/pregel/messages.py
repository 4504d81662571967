"""WIRE001 fixture: a wire record defined outside the shard module."""

from dataclasses import dataclass


@dataclass(frozen=True)
class MessageColumns:
    """The codec drops ``counts`` on encode and ``payloads`` on decode."""

    targets: object
    payloads: object
    counts: object = None
