"""Byte metering: the counters must equal actual bytes on the medium.

``bytes_sent`` / ``bytes_received`` feed ``benchmarks/bench_wire.py`` and
the ``--show-metrics`` snapshot, so they have to be *measurements*, not
estimates.  Two layers of proof:

* a hypothesis property pins the framing arithmetic — for arbitrary
  messages, :func:`~repro.cluster.wire.send_frame`'s return value is
  exactly the bytes put on the socket, which is exactly the payload plus
  the 4-byte length prefix, and the receive side accounts the same total
  even when the OS hands the stream back a few bytes at a time;
* an integration test wraps the live TCP sockets mid-session and checks
  the executor's per-kind counter deltas sum to the bytes the wrapped
  stream actually carried — every frame's length prefix *included*.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.pagerank import PageRank
from repro.cluster import (
    Coordinator,
    LocalWorkerPool,
    ProcessExecutor,
    SocketExecutor,
    wire,
)
from repro.generators import mesh_3d
from repro.pregel.system import PregelConfig

import pytest


# ---------------------------------------------------------------------------
# The framing property: sent == framed == payload + 4, on send and receive


class _ScriptedSocket:
    """A socket double: records sendall bytes, replays recv in chunks."""

    def __init__(self, feed=b"", chunk=1 << 20):
        self.sent = bytearray()
        self._feed = memoryview(bytes(feed))
        self._chunk = chunk

    def sendall(self, data):
        self.sent.extend(data)

    def recv(self, n):
        n = min(n, self._chunk, len(self._feed))
        data = bytes(self._feed[:n])
        self._feed = self._feed[n:]
        return data


def _message_values():
    scalars = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(1 << 40), max_value=1 << 40),
        st.floats(allow_nan=False),
        st.text(max_size=20),
        st.binary(max_size=20),
    )
    return st.recursive(
        scalars,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            st.dictionaries(st.text(max_size=8), children, max_size=4),
        ),
        max_leaves=10,
    )


@given(
    kind=st.sampled_from(["init", "step", "apply", "snapshot"]),
    payload=_message_values(),
    chunk=st.integers(min_value=1, max_value=9),
)
@settings(max_examples=100, deadline=None)
def test_property_frame_accounting_is_exact(kind, payload, chunk):
    message = (kind, payload)
    sender = _ScriptedSocket()
    reported = wire.send_frame(sender, message)
    # what send_frame reports is what hit the medium: payload + u32 prefix
    assert reported == len(sender.sent)
    assert reported == len(wire.dumps(message)) + 4
    # the receive side sees the same arithmetic, even with a miserly
    # OS handing back `chunk` bytes per recv()
    receiver = _ScriptedSocket(feed=bytes(sender.sent), chunk=chunk)
    received_payload = wire.recv_payload(receiver)
    assert len(received_payload) + 4 == reported
    assert wire.loads(received_payload) == wire.loads(
        bytes(sender.sent[4:])
    )


# ---------------------------------------------------------------------------
# Integration: counter deltas equal bytes the live medium actually carried


class _CountingSocket:
    """A TCP socket wrapper tallying every stream byte (prefix included)."""

    def __init__(self, sock):
        self._sock = sock
        self.sent = 0
        self.received = 0

    def sendall(self, data):
        self.sent += len(data)
        self._sock.sendall(data)

    def recv(self, n):
        data = self._sock.recv(n)
        self.received += len(data)
        return data

    def __getattr__(self, name):
        return getattr(self._sock, name)


@pytest.fixture(scope="module")
def pool():
    with LocalWorkerPool(2) as workers:
        yield workers


def _session(executor):
    return Coordinator(
        mesh_3d(5),
        PageRank(),
        PregelConfig(num_workers=4, seed=3, quiet_window=5),
        executor=executor,
    )


def _deltas(counters, base):
    return sum(counters[kind] - base.get(kind, 0) for kind in counters)


def test_init_frames_do_not_grow_with_the_graph():
    """Shards fill on their host: ``init`` ships them empty — the same
    bytes for a 200- and a 2 000-vertex graph — and the seeds cross as
    patches, metered under ``apply``."""
    from repro.generators import ring_lattice

    sent = {}
    for vertices in (200, 2_000):
        executor = ProcessExecutor(workers=2)
        with Coordinator(
            ring_lattice(vertices, 2), PageRank(),
            PregelConfig(num_workers=4, seed=3, quiet_window=5),
            executor=executor,
        ) as system:
            sent[vertices] = dict(executor.bytes_sent)
            assert set(sent[vertices]) == {"init", "apply"}
            system.run(2)
            system.shard_consistency_check()
    assert sent[200]["init"] == sent[2_000]["init"] < 64 * 1024
    assert sent[2_000]["apply"] > 5 * sent[200]["apply"] > 5 * 200 * 8


def test_socket_counters_equal_stream_bytes_with_prefix(pool):
    executor = SocketExecutor(pool.addresses)
    with _session(executor) as system:
        # wrap the live sockets *after* start so every subsequent counter
        # bump has an independently tallied ground truth
        executor._sockets = wrapped = [
            _CountingSocket(sock) for sock in executor._sockets
        ]
        sent_base = dict(executor.bytes_sent)
        received_base = dict(executor.bytes_received)
        system.run(4)
        system.shard_consistency_check()  # snapshot kind crosses too
        assert _deltas(executor.bytes_sent, sent_base) == sum(
            w.sent for w in wrapped
        )
        assert _deltas(executor.bytes_received, received_base) == sum(
            w.received for w in wrapped
        )
        assert {"step", "snapshot"} <= set(executor.bytes_sent)
