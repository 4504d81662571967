"""The worker side of the persistent-worker protocol, over TCP.

``repro worker --listen HOST:PORT`` runs a :class:`WorkerServer`: a process
on any host that owns a subset of shards for the life of one coordinator
session and answers the same five commands the
:class:`~repro.cluster.executor.ProcessExecutor` pipe protocol speaks —
``init`` / ``step`` / ``apply`` / ``snapshot`` / ``stop`` — as
length-prefixed :mod:`~repro.cluster.wire` frames.  The command semantics
live in :class:`ShardHost`, which the in-process pipe workers reuse, so the
two transports cannot drift apart.

A session is one coordinator run: the
:class:`~repro.cluster.executor.SocketExecutor` connects, ships the
worker's shard subset — empty shards — with ``init``, fills them here, on
their host, with the seed patches of the first ``apply``, drives
supersteps, and ends with ``stop`` (or by closing the connection).  Every
piece of vertex state that crosses, either way, is one
:class:`~repro.cluster.shard.PatchColumns`: patches in with ``step`` /
``apply``, the same record back from ``snapshot``.  The server then
accepts the next session with fresh state; ``--sessions N`` bounds how
many before the process exits (0 = serve forever).

:class:`LocalWorkerPool` spins up in-process servers on ephemeral localhost
ports — the harness the tests, the golden socket leg and
``benchmarks/bench_wire.py`` use to stand up a "multi-host" topology on one
machine.
"""

import socket
import threading
import traceback

from repro.cluster import wire

__all__ = [
    "LocalWorkerPool",
    "ShardHost",
    "WorkerServer",
    "apply_out_of_band",
    "parse_address",
    "parse_worker_addresses",
]


def parse_address(spec):
    """Parse one worker address — ``"host:port"`` or a tuple — to a tuple."""
    if isinstance(spec, tuple):
        host, port = spec
        return str(host), int(port)
    host, _, port = str(spec).rpartition(":")
    if not host or not port:
        raise ValueError(
            f"bad worker address {spec!r}; expected 'host:port'"
        )
    return host, int(port)


def parse_worker_addresses(spec):
    """Parse a worker address list: a comma-joined string or an iterable."""
    if spec is None:
        return []
    if isinstance(spec, str):
        parts = [part.strip() for part in spec.split(",")]
        return [parse_address(part) for part in parts if part]
    return [parse_address(part) for part in spec]


def apply_out_of_band(shards, patches):
    """``Executor.apply`` on the shards' own host: patch in shard-id order
    and drop the spans that recorded — seeding and flushes happen outside
    any superstep, so they must not show up in the next one's trace."""
    for sid in sorted(patches):
        shards[sid].apply_patch(patches[sid])
        shards[sid].tracer.clear()


class ShardHost:
    """One worker's shard state plus the protocol command semantics.

    Both worker transports — the pipe loop inside a
    :class:`~repro.cluster.executor.ProcessExecutor` child and a
    :class:`WorkerServer` session — drive this one dispatcher, so a command
    means exactly the same thing on either side of either wire.  Failures
    never kill the worker: :meth:`handle` catches the exception and returns
    it as an ``("error", traceback)`` reply, leaving the loop alive for the
    next command.
    """

    def __init__(self):
        self.shards = {}

    def handle(self, kind, payload):
        """Execute one protocol command; returns ``(reply, done)``.

        ``reply`` is the ``(status, payload)`` pair to put back on the
        wire; ``done`` is True only for ``stop``, telling the transport
        loop to end the session after sending the reply.
        """
        try:
            if kind == "init":
                self.shards = payload
                return ("ok", None), False
            if kind == "step":
                deltas = {}
                for sid in sorted(payload):
                    task, patch = payload[sid]
                    shard = self.shards[sid]
                    if patch is not None:
                        shard.apply_patch(patch)
                    deltas[sid] = shard.run_superstep(task)
                return ("ok", deltas), False
            if kind == "apply":
                apply_out_of_band(self.shards, payload)
                return ("ok", None), False
            if kind == "snapshot":
                view = {
                    sid: shard.snapshot()
                    for sid, shard in self.shards.items()
                }
                return ("ok", view), False
            if kind == "stop":
                return ("ok", None), True
            return ("error", f"unknown command {kind!r}"), False
        except Exception:  # surface worker-side failures to the coordinator
            return ("error", traceback.format_exc()), False


class WorkerServer:
    """A TCP shard worker: accepts coordinator sessions one at a time.

    Binding ``port=0`` picks an ephemeral port; the bound address is
    available as :attr:`address` (and is what ``repro worker`` prints, so
    harnesses can spawn workers without port bookkeeping).
    """

    def __init__(self, host="127.0.0.1", port=0):
        self._listener = socket.create_server((host, port))
        self.address = self._listener.getsockname()[:2]
        self._closed = False
        self._active = None

    def serve(self, sessions=1):
        """Serve coordinator sessions; returns how many were served.

        ``sessions`` bounds the count (0 = forever); the loop also ends
        when :meth:`close` is called from another thread — including
        mid-session, since :meth:`close` tears the active connection down.
        """
        served = 0
        while not self._closed and (sessions == 0 or served < sessions):
            try:
                conn, _ = self._listener.accept()
            except OSError:  # listener closed under us
                break
            self._active = conn
            try:
                self._session(conn)
            finally:
                self._active = None
                conn.close()
            served += 1
        return served

    def _session(self, conn):
        """Run one coordinator session: frames in, replies out, until stop."""
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        host = ShardHost()
        while True:
            try:
                message = wire.recv_frame(conn)
            except (EOFError, wire.WireError, ConnectionError, OSError):
                return  # coordinator went away; session over
            kind, payload = message
            reply, done = host.handle(kind, payload)
            try:
                wire.send_frame(conn, reply)
            except (BrokenPipeError, ConnectionError, OSError):
                return
            if done:
                return

    def close(self):
        """Stop serving: close the listener and any in-flight session."""
        self._closed = True
        self._listener.close()
        active = self._active
        if active is not None:
            try:
                active.close()
            except OSError:  # pragma: no cover - already torn down
                pass


class LocalWorkerPool:
    """``count`` in-process :class:`WorkerServer` threads on localhost.

    The test/bench harness for socket topologies: every server listens on
    an ephemeral port and serves sessions until :meth:`close`, so one pool
    can back any number of sequential coordinator runs.  Usable as a
    context manager.
    """

    def __init__(self, count, host="127.0.0.1"):
        if count < 1:
            raise ValueError("need at least one pool worker")
        self._servers = [WorkerServer(host, 0) for _ in range(count)]
        self.addresses = [
            f"{server.address[0]}:{server.address[1]}"
            for server in self._servers
        ]
        self._threads = [
            threading.Thread(
                target=server.serve,
                args=(0,),
                name=f"repro-socket-worker-{index}",
                daemon=True,
            )
            for index, server in enumerate(self._servers)
        ]
        for thread in self._threads:
            thread.start()

    def close(self):
        """Shut every server down; idempotent."""
        for server in self._servers:
            server.close()
        for thread in self._threads:
            thread.join(timeout=2)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False
