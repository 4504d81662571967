"""The worker side of the persistent-worker protocol, over TCP.

``repro worker --listen HOST:PORT`` runs a :class:`WorkerServer`: a process
on any host that owns a subset of shards for the life of one coordinator
session and answers the protocol's five commands — ``init`` / ``step`` /
``apply`` / ``snapshot`` / ``stop`` — as length-prefixed
:mod:`~repro.cluster.wire` frames.  It is the only worker entry point:
``--executor socket`` connects to workers somebody else started,
``--executor process`` to a :class:`WorkerFleet` it spawned on localhost.
The command semantics live in :class:`ShardHost`.

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

:class:`WorkerFleet` spawns real ``repro worker`` subprocesses on ephemeral
localhost ports and reaps them on every exit path;
:class:`LocalWorkerPool` spins up in-process servers instead — the cheap
harness the tests, the golden socket leg and ``benchmarks/bench_wire.py``
use to stand up a "multi-host" topology on one machine.
"""

import os
import select
import socket
import subprocess
import sys
import threading
import traceback

from repro.cluster import wire

__all__ = [
    "LocalWorkerPool",
    "ShardHost",
    "WorkerFleet",
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

    A :class:`WorkerServer` session drives this dispatcher.  Failures
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
                payload = wire.recv_payload(conn)
            except (EOFError, wire.WireError, ConnectionError, OSError):
                return  # coordinator went away; session over
            try:
                kind, body = wire.loads(payload)
            except (TypeError, ValueError) as exc:  # WireError included
                # A whole frame arrived (say, a pickled program this host
                # cannot import), so the stream is in sync: answer it.
                reply, done = ("error", f"undecodable command: {exc}"), False
            else:
                reply, done = host.handle(kind, body)
            try:
                wire.send_frame(conn, reply)
            except (BrokenPipeError, ConnectionError, OSError):
                return
            if done:
                return

    def close(self):
        """Stop serving: close the listener and any in-flight session,
        shutting each down first — a bare close does not wake a thread
        blocked in its ``accept`` / ``recv``."""
        self._closed = True
        for sock in (self._listener, self._active):
            if sock is not None:
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:  # not connected, or already torn down
                    pass
                sock.close()


class WorkerFleet:
    """``count`` ``repro worker`` subprocesses on localhost, one session each.

    What ``--executor process`` runs on.  Each worker is ``python -m repro
    worker --listen 127.0.0.1:0`` with the parent's ``sys.path`` as its
    ``PYTHONPATH`` — what the coordinator can import, the worker can
    unpickle — and :attr:`addresses` come off their banner lines.  A worker
    that exits or stays silent fails the constructor, which reaps the rest.
    """

    # Bounded waits (seconds): the banner line; each stage of reap().
    _BANNER_TIMEOUT = 30.0
    _EXIT_TIMEOUT = 5.0
    _BANNER = "repro worker listening on "

    def __init__(self, count):
        command = [sys.executable, "-m", "repro", "worker",
                   "--listen", "127.0.0.1:0"]
        env = dict(
            os.environ, PYTHONPATH=os.pathsep.join(filter(None, sys.path))
        )
        self.addresses = []
        self.procs = []
        try:
            for _ in range(count):  # all first: the interpreters overlap
                self.procs.append(subprocess.Popen(
                    command, stdout=subprocess.PIPE, text=True, env=env
                ))
            for index, proc in enumerate(self.procs):
                self.addresses.append(self._read_banner(index, proc))
        except BaseException:
            self.reap(force=True)
            raise

    def _read_banner(self, index, proc):
        ready, _, _ = select.select(
            [proc.stdout], [], [], self._BANNER_TIMEOUT
        )
        line = proc.stdout.readline() if ready else ""
        if line.startswith(self._BANNER):
            return line[len(self._BANNER):].strip()
        state = self.exit_note(index) or (
            f"still running after {self._BANNER_TIMEOUT:g}s"
        )
        raise RuntimeError(
            f"shard worker {index} (pid {proc.pid}) announced no port "
            f"(got {line!r}): {state}"
        )

    def exit_note(self, index):
        """``"exited with code N"``, or ``""`` while the worker still runs."""
        # A connection drops a moment before its process is waitable.
        code = _exit_code(self.procs[index], 0.5)
        return "" if code is None else f"exited with code {code}"

    def reap(self, force=False):
        """Wait every worker out — own exit, SIGTERM, SIGKILL, each bounded.

        A worker exits by itself once its one session ends; ``force`` skips
        that grace (failed start, finalizer of an unstopped executor).
        """
        for proc in self.procs:
            if force and proc.poll() is None:
                proc.terminate()
            for escalate in (proc.terminate, proc.kill):
                if _exit_code(proc, self._EXIT_TIMEOUT) is not None:
                    break
                escalate()
            else:
                _exit_code(proc, self._EXIT_TIMEOUT)  # collect the killed
            proc.stdout.close()
        self.procs = []


def _exit_code(proc, timeout):
    """``proc``'s exit code, waiting at most ``timeout`` s; None = running."""
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        return None


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
