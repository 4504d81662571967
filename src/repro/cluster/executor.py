"""Pluggable shard executors: where the compute phase actually runs.

The coordinator hands every executor the same work each superstep — a
:class:`~repro.cluster.shard.ShardTask` per shard (compute inbox plus, on
an adaptive run, the round's decision snapshot and candidate slice), plus
the previous barrier's :class:`~repro.cluster.shard.PatchColumns` records —
and gets back one :class:`~repro.cluster.shard.ShardDelta` per shard
(compute results plus migration proposals).  Because shard compute *and*
shard decisions are pure functions of (shard state, task) — willingness
draws are keyed, not streamed — and the coordinator merges deltas in
shard-id order and arbitrates proposals in a keyed round permutation,
**the choice of executor cannot change any result**; it only changes
wall-clock.  Four backends ship:

* :class:`InlineExecutor` — runs shards sequentially in the calling thread.
  The deterministic reference; zero overhead, no parallelism.
* :class:`ThreadExecutor` — a thread pool that streams each shard's delta
  *in shard-id order, as it completes*, so the coordinator's merge
  overlaps the compute of later shards.  The GIL serialises all but the
  numpy calls — on two cores it ties inline on churn and loses 7 % on FEM
  (docs/benchmarks.md; ≥4 cores unverified) — so it mainly exercises the
  concurrency contract cheaply.
* :class:`SocketExecutor` — persistent workers over TCP: ``repro worker``
  processes on *any* host, each owning a fixed subset of shards (shard
  ``i`` lives on worker ``i % workers``).  Shards ship once at start —
  *empty*, so ``init`` does not grow with the graph — and are seeded on
  their host by the first :meth:`Executor.apply`; per superstep only
  tasks, patches and deltas cross — as compact :mod:`~repro.cluster.wire`
  frames, inboxes pre-folded by the program's combiner
  (``benchmarks/bench_wire.py`` pins the bytes-on-wire win).  Programs,
  values and messages must pickle *and be importable on the worker*.
  Bounded connect/read timeouts surface dead or wedged workers as a clear
  ``RuntimeError``.
* :class:`ProcessExecutor` — that same executor over ``repro worker``
  processes it spawns on localhost at start and reaps at stop: one worker
  entry point, one transport.  The backend that scales superstep-heavy
  workloads on one host (``benchmarks/bench_cluster.py`` pins ≥2× with
  four workers).

The coordinator drives all of them through :meth:`Executor.step_stream`
(by default: :meth:`Executor.step` to completion, deltas replayed in
order).  Each declares an :class:`ExecutorCapabilities` record (the
``RunnerCapabilities`` pattern) that :func:`make_executor` validates.

Executors are context managers; :meth:`Executor.stop` is idempotent.
"""

from __future__ import annotations

import os
import socket
import weakref
from collections.abc import Callable, Iterable, Iterator, Mapping
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, replace
from time import perf_counter, time
from typing import TYPE_CHECKING, Any

from repro.cluster import wire
from repro.cluster.worker import (
    WorkerFleet,
    apply_out_of_band,
    parse_worker_addresses,
)
from repro.obs import NULL_TRACER, MetricsRegistry, Tracer

if TYPE_CHECKING:
    from repro.cluster.shard import PatchColumns, Shard, ShardDelta, ShardTask

__all__ = [
    "EXECUTORS",
    "Executor",
    "ExecutorCapabilities",
    "InlineExecutor",
    "ProcessExecutor",
    "SocketExecutor",
    "ThreadExecutor",
    "make_executor",
    "validate_executor",
]


@dataclass(frozen=True)
class ExecutorCapabilities:
    """What one executor backend can honestly promise the coordinator.

    * ``releases_gil`` — shard compute runs outside the calling process's
      GIL (worker processes, remote hosts), so pure-Python programs scale
      with workers instead of interleaving.  The flag describes the
      *executor*, never the program: an in-process backend keeps
      ``releases_gil=False`` even when a program's batched numpy kernel
      (:meth:`~repro.pregel.vertex.BatchedVertexProgram.compute_batch`)
      happens to drop the GIL inside array calls — that is a property of
      the program's compute, orthogonal to where the executor runs it,
      and the two compose (a thread executor + a batched kernel is
      exactly the combination ``benchmarks/bench_kernel.py`` measures).
    * ``remote`` — workers may live on other hosts; shard traffic crosses
      a network, not just a process boundary.
    * ``requires_picklable`` — programs, values and messages must pickle
      **and be importable on the worker** (define the program in a module,
      not in ``__main__``); in-process backends can run anything.
    """

    releases_gil: bool = False
    remote: bool = False
    requires_picklable: bool = False


class Executor:
    """The executor protocol the coordinator drives."""

    name = "abstract"

    #: The backend's declared capability record; subclasses override with
    #: their honest declaration and :func:`validate_executor` holds them
    #: to it.
    capabilities = ExecutorCapabilities()

    #: The coordinator's tracer, installed by :meth:`bind_observability`;
    #: the class-level default is the shared disabled tracer, so every
    #: instrumentation site can read ``self.tracer.enabled`` unconditionally.
    tracer = NULL_TRACER

    def bind_observability(
        self,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        """Attach the run's tracer and/or metrics registry (before start).

        Executors work without this — counters live in a private registry
        and the tracer stays the no-op default — but a coordinator that
        owns a :class:`~repro.obs.MetricsRegistry` re-homes the executor's
        instruments there so one snapshot covers the whole run.
        """
        if tracer is not None:
            self.tracer = tracer
        if metrics is not None:
            self._bind_metrics(metrics)

    def _bind_metrics(self, metrics: MetricsRegistry) -> None:
        """Subclass hook: move instrument state into ``metrics``."""

    def start(self, shards: Mapping[int, Shard]) -> None:
        """Take ownership of ``{shard_id: Shard}`` before the first superstep.

        The coordinator hands over *empty* shards and seeds them with
        :meth:`apply`: a shard is only ever filled on its host, so what
        crosses at start does not grow with the graph.
        """
        raise NotImplementedError

    def step(
        self,
        tasks: Mapping[int, ShardTask],
        patches: Mapping[int, PatchColumns],
    ) -> dict[int, ShardDelta]:
        """Run one superstep: apply ``patches`` (previous barrier's changes),
        then compute every shard's task.

        ``tasks`` maps shard id → :class:`ShardTask` (every shard, every
        superstep); ``patches`` maps shard id → :class:`PatchColumns` and may
        be empty.  Returns ``{shard_id: ShardDelta}``.  Completion order is
        the executor's business — the coordinator merges in shard-id order.
        """
        raise NotImplementedError

    def step_stream(
        self,
        tasks: Mapping[int, ShardTask],
        patches: Mapping[int, PatchColumns],
    ) -> Iterator[tuple[int, ShardDelta]]:
        """:meth:`step` as an iterator of ``(shard_id, delta)`` pairs — what
        the coordinator's merge loop consumes.

        Yield order **must** be ascending shard id: that invariant, not
        the executor choice, is what keeps results bit-identical.  This
        default serves backends that only implement :meth:`step`: the
        whole superstep runs *now*, before the iterator is returned, so
        the coordinator's merge span times the fold alone.  A streaming
        backend overrides it to yield each delta as it completes.
        """
        deltas = self.step(tasks, patches)
        return ((sid, deltas[sid]) for sid in sorted(deltas))

    def apply(self, patches: Mapping[int, PatchColumns]) -> None:
        """Apply ``{shard_id: PatchColumns}`` without computing.

        :meth:`step` already applies its patches; this is the out-of-band
        path — start-of-run seeding, and consistency checks flushing
        pending patches.  Out of band also for tracing: shard-side spans
        recorded during it are dropped, never shipped with a superstep.
        """
        raise NotImplementedError

    def snapshot(self) -> dict[int, PatchColumns]:
        """``{shard_id: Shard.snapshot()}`` — each shard's whole state as
        the patch that would rebuild it (consistency checks, restore)."""
        raise NotImplementedError

    def stop(self) -> None:
        """Release workers; idempotent, safe after a failed start."""

    def __enter__(self) -> Executor:
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self.stop()
        return False


def _step_shard(
    shard: Shard, task: ShardTask, patch: PatchColumns | None
) -> ShardDelta:
    if patch is not None:
        shard.apply_patch(patch)
    return shard.run_superstep(task)


def _require_workers(workers: int | None, what: str) -> int | None:
    if workers is not None and workers < 1:
        raise ValueError(f"need at least one {what}, got workers={workers!r}")
    return workers


class InlineExecutor(Executor):
    """Sequential in-thread execution — the deterministic serial reference."""

    name = "inline"

    capabilities = ExecutorCapabilities()

    def __init__(self) -> None:
        self._shards: dict[int, Shard] = {}

    def start(self, shards: Mapping[int, Shard]) -> None:
        """Keep the shard map; everything runs in the calling thread."""
        self._shards = dict(shards)

    def step(
        self,
        tasks: Mapping[int, ShardTask],
        patches: Mapping[int, PatchColumns],
    ) -> dict[int, ShardDelta]:
        """Patch + compute each shard sequentially, in shard-id order."""
        return {
            sid: _step_shard(self._shards[sid], tasks[sid], patches.get(sid))
            for sid in sorted(tasks)
        }

    def apply(self, patches: Mapping[int, PatchColumns]) -> None:
        """Apply patches without computing, in shard-id order."""
        apply_out_of_band(self._shards, patches)

    def snapshot(self) -> dict[int, PatchColumns]:
        """Every in-process shard's snapshot record."""
        return {sid: shard.snapshot() for sid, shard in self._shards.items()}


class ThreadExecutor(InlineExecutor):
    """The in-process shards on a thread pool, merging overlapped with compute.

    Shared memory, GIL-bound for pure Python.  The strict protocol is
    compute-all → merge-all: the coordinator waits for the slowest shard
    before folding a single delta.  This executor relaxes exactly that
    sequencing: while the coordinator merges the delta of shard ``s``,
    shards ``> s`` keep computing on the pool threads.  Yield order stays
    ascending shard id, so the merge order — and with it every observable
    result — is bit-identical to the strict executors.

    Two counters quantify the overlap for ``benchmarks/bench_staleness.py``:

    * ``merge_seconds`` — total wall-clock the coordinator spent merging
      deltas handed out by :meth:`step_stream`;
    * ``overlap_seconds`` — the portion of that merge time during which at
      least one later shard was still computing, i.e. barrier work that a
      strict executor would have serialised after the fan-out.  On a
      multi-core host this is wall-clock saved outright; on one core it is
      the honest projection of the saving (the GIL interleaves rather than
      parallelises the overlap).

    Both are metrics-registry counters (``executor.merge_seconds``,
    ``executor.overlap_seconds``, beside ``executor.steps_streamed``) and
    :meth:`start` resets all three, so a reused executor reports
    per-session numbers instead of silently accumulating across runs.
    """

    name = "thread"

    capabilities = ExecutorCapabilities()

    def __init__(self, workers: int | None = None) -> None:
        super().__init__()
        self._requested_workers = _require_workers(workers, "worker thread")
        self._pool: ThreadPoolExecutor | None = None
        self._bind_metrics(MetricsRegistry())

    def _bind_metrics(self, metrics: MetricsRegistry) -> None:
        self._merge_counter = metrics.counter("executor.merge_seconds")
        self._overlap_counter = metrics.counter("executor.overlap_seconds")
        self._steps_counter = metrics.counter("executor.steps_streamed")

    def start(self, shards: Mapping[int, Shard]) -> None:
        """Keep the shard map, spin up the pool, zero the session counters."""
        super().start(shards)
        workers = self._requested_workers
        if workers is None:
            workers = min(len(self._shards) or 1, os.cpu_count() or 1)
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-shard"
        )
        self._merge_counter.reset()
        self._overlap_counter.reset()
        self._steps_counter.reset()

    def step(
        self,
        tasks: Mapping[int, ShardTask],
        patches: Mapping[int, PatchColumns],
    ) -> dict[int, ShardDelta]:
        """The strict protocol: the stream, gathered to completion."""
        return dict(self.step_stream(tasks, patches))

    def step_stream(
        self,
        tasks: Mapping[int, ShardTask],
        patches: Mapping[int, PatchColumns],
    ) -> Iterator[tuple[int, ShardDelta]]:
        """Submit every shard's task, then stream deltas in shard-id order.

        The generator body resumes between yields while the consumer (the
        coordinator's merge loop) works, which is where the overlap
        accounting happens: merge time observed while later futures are
        unfinished is time the strict protocol would have added to the
        barrier.

        The stream owns its in-flight futures to the end: if the consumer
        abandons the generator (``close()`` on a merge-loop failure) or a
        shard raises, the ``finally`` below blocks until every submitted
        future has finished.  Without that barrier the unfinished futures
        would keep mutating ``Shard`` objects on pool threads while the
        caller moved on to the next ``step()``/``apply()`` — a data race
        dressed up as early cleanup.
        """
        pool = self._pool
        assert pool is not None, "start() before step_stream()"
        order = sorted(tasks)
        futures = {
            sid: pool.submit(
                _step_shard, self._shards[sid], tasks[sid], patches.get(sid)
            )
            for sid in order
        }
        self._steps_counter.add(1)
        try:
            for position, sid in enumerate(order):
                delta = futures[sid].result()
                handed = perf_counter()
                yield sid, delta
                merged = perf_counter()
                spent = merged - handed
                self._merge_counter.add(spent)
                if any(
                    not futures[later].done() for later in order[position + 1:]
                ):
                    self._overlap_counter.add(spent)
        finally:
            pending = [f for f in futures.values() if not f.done()]
            if pending:
                wait(pending)

    def stop(self) -> None:
        """Shut the thread pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


class SocketExecutor(Executor):
    """The persistent-worker protocol over TCP — shards on other hosts.

    Workers are ``repro worker --listen HOST:PORT`` processes (see
    :mod:`repro.cluster.worker`); :meth:`start` connects to each address
    and ships its shard subset (shard ``i`` lives on worker ``i %
    workers``), and from then on the session is :mod:`~repro.cluster.wire`
    frames: tasks + patches out (inboxes pre-folded by the program's
    combiner when it has one), deltas back, every reply drained even on
    failure.

    ``addresses`` is a comma-joined string, an iterable of ``host:port``,
    or None to read ``REPRO_SOCKET_WORKERS`` from the environment at
    :meth:`start`.  Connect and read timeouts are bounded so a dead or
    wedged worker surfaces as a clear ``RuntimeError`` instead of a hang.

    Byte accounting: every command's bytes on the wire — the framed
    length, payload plus the 4-byte length prefix — are tallied per
    command kind in :attr:`bytes_sent` / :attr:`bytes_received`, live
    :class:`~repro.obs.CounterGroup` views over registry counters
    (``executor.bytes_sent.<kind>`` / ``executor.bytes_received.<kind>``)
    and the counters ``benchmarks/bench_wire.py`` reads.  :meth:`start`
    resets them, so a reused executor reports per-session traffic; the
    stop handshake is deliberately not metered (it may race a dying
    worker).
    """

    name = "socket"

    capabilities = ExecutorCapabilities(
        releases_gil=True, remote=True, requires_picklable=True
    )

    # Bounded wait (seconds) for the stop ack; connect and per-reply read
    # are bounded by the constructor's timeouts.
    _ACK_TIMEOUT = 1.0

    def __init__(
        self,
        addresses: str | Iterable[str] | None = None,
        workers: int | None = None,
        *,
        connect_timeout: float = 10.0,
        read_timeout: float = 600.0,
    ) -> None:
        self._requested_workers = _require_workers(workers, "socket worker")
        self._given_addresses = addresses
        self._connect_timeout = connect_timeout
        self._read_timeout = read_timeout
        self._sockets: list[socket.socket] = []
        self._peers: list[str] = []
        self._owner: dict[int, int] = {}
        self._task_combiner: Callable[[Any, Any], Any] | None = None
        self._pending_kind: dict[int, str] = {}
        self._bind_metrics(MetricsRegistry())

    def _bind_metrics(self, metrics: MetricsRegistry) -> None:
        self.bytes_sent = metrics.group("executor.bytes_sent")
        self.bytes_received = metrics.group("executor.bytes_received")

    def _resolve_addresses(self) -> list[tuple[str, int]]:
        spec = self._given_addresses
        if spec is None:
            spec = os.environ.get("REPRO_SOCKET_WORKERS") or None
        addresses = parse_worker_addresses(spec)
        if not addresses:
            raise ValueError(
                "socket executor has no worker addresses; pass "
                "addresses='host:port,...' or set REPRO_SOCKET_WORKERS "
                "(start workers with `repro worker --listen host:port`)"
            )
        if self._requested_workers is not None:
            addresses = addresses[: self._requested_workers]
        return addresses

    def start(self, shards: Mapping[int, Shard]) -> None:
        """Connect to the workers, ship each its shard subset, await acks."""
        addresses = self._resolve_addresses()
        workers = min(len(addresses), max(1, len(shards)))
        assignments: list[dict[int, Shard]] = [{} for _ in range(workers)]
        for sid, shard in shards.items():
            self._owner[sid] = sid % workers
            assignments[sid % workers][sid] = shard
        any_shard = next(iter(shards.values()), None)
        self._task_combiner = getattr(any_shard, "_combiner", None)
        self.bytes_sent.reset()
        self.bytes_received.reset()
        try:
            for worker in range(workers):
                host, port = addresses[worker]
                try:
                    sock = socket.create_connection(
                        (host, port), timeout=self._connect_timeout
                    )
                except OSError as exc:
                    raise RuntimeError(
                        f"cannot reach shard worker {worker} at "
                        f"{host}:{port}: {exc}"
                    ) from exc
                sock.settimeout(self._read_timeout)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self._sockets.append(sock)
                self._peers.append(f"{host}:{port}")
            self._broadcast(dict(enumerate(assignments)), "init")
        except BaseException:
            self.stop()  # no half-connected session on a failed start
            raise

    # -- transport ----------------------------------------------------------

    def _peer(self, worker: int) -> str:
        """How a failure message names ``worker``."""
        return self._peers[worker]

    def _transport_send(self, worker: int, message: tuple[str, Any]) -> int:
        """Put one frame on the wire; returns the bytes written."""
        try:
            return wire.send_frame(self._sockets[worker], message)
        except (BrokenPipeError, ConnectionError, OSError) as exc:
            raise RuntimeError(
                f"shard worker {worker} ({self._peer(worker)}) died "
                "(connection lost); it may have crashed or been killed "
                "mid-run"
            ) from exc

    def _transport_recv(self, worker: int) -> tuple[Any, int]:
        """Take one reply off the wire; returns ``(message, bytes_read)``."""
        try:
            payload = wire.recv_payload(self._sockets[worker])
        except TimeoutError:
            raise RuntimeError(
                f"shard worker {worker} ({self._peer(worker)}) timed out "
                f"after {self._read_timeout}s; it may be dead or wedged"
            ) from None
        except (EOFError, wire.WireError, ConnectionError, OSError):
            raise RuntimeError(
                f"shard worker {worker} ({self._peer(worker)}) died "
                "(connection closed); it may have crashed or been killed "
                "mid-run"
            ) from None
        return self._decode_reply(worker, payload), len(payload) + 4

    def _decode_reply(self, worker: int, payload: bytes) -> Any:
        """Decode one whole reply frame, blaming ``worker`` for garbage.

        Raising the protocol's ``RuntimeError`` (not whatever the codec or
        unpickler threw) is what lets :meth:`_gather` finish its drain.
        """
        try:
            status, result = wire.loads(payload)
        except Exception as exc:
            raise RuntimeError(
                f"shard worker {worker} sent an undecodable reply: {exc!r}"
            ) from exc
        return status, result

    # -- metered, traced transport wrappers ---------------------------------

    def _send(self, worker: int, message: tuple[str, Any]) -> None:
        kind = message[0]
        self._pending_kind[worker] = kind
        wall = time()
        tick = perf_counter()
        sent = self._transport_send(worker, message)
        if self.tracer.enabled:
            self.tracer.record(
                "wire-send", wall, perf_counter() - tick, lane="wire",
                args={"kind": kind, "worker": worker, "bytes": sent},
            )
        self.bytes_sent.add(kind, sent)

    def _recv_message(self, worker: int) -> Any:
        kind = self._pending_kind.get(worker, "?")
        wall = time()
        tick = perf_counter()
        message, received = self._transport_recv(worker)
        if self.tracer.enabled:
            self.tracer.record(
                "wire-recv", wall, perf_counter() - tick, lane="wire",
                args={"kind": kind, "worker": worker, "bytes": received},
            )
        self.bytes_received.add(kind, received)
        return message

    # -- protocol -----------------------------------------------------------

    def _receive(self, worker: int) -> Any:
        """One reply from ``worker``, raising its failure as RuntimeError."""
        status, payload = self._recv_message(worker)
        if status == "error":
            raise RuntimeError(f"shard worker {worker} failed:\n{payload}")
        return payload

    def _gather(self, touched: Iterable[int]) -> dict[Any, Any]:
        """Collect every touched worker's reply, then raise the first failure.

        Draining unconditionally is the protocol invariant: each command
        gets exactly one reply per touched worker, so a failure must not
        leave later workers' replies queued for the *next* command to
        misread.  Only after the sweep does the first failure propagate.
        """
        merged: dict[Any, Any] = {}
        failure: RuntimeError | None = None
        for worker in touched:
            try:
                result = self._receive(worker)
            except RuntimeError as exc:
                if failure is None:
                    failure = exc
                continue
            if result:
                merged.update(result)
        if failure is not None:
            raise failure
        return merged

    def _broadcast(
        self, per_worker_payload: Mapping[int, Any], kind: str
    ) -> dict[Any, Any]:
        touched = sorted(per_worker_payload)
        for worker in touched:
            self._send(worker, (kind, per_worker_payload[worker]))
        return self._gather(touched)

    def step(
        self,
        tasks: Mapping[int, ShardTask],
        patches: Mapping[int, PatchColumns],
    ) -> dict[int, ShardDelta]:
        """Route each shard's (task, patch) to its owning worker.

        With a combiner available, every multi-message mailbox of a dict
        inbox is folded shard-side of the wire
        (:func:`~repro.cluster.wire.combine_inbox`) before framing — same
        values, same modelled cost, a fraction of the bytes.  A columnar
        inbox was folded at delivery and frames as it is, so the step
        frame stays a pure function of ``(task, patch)``.
        """
        combiner = self._task_combiner
        per_worker: dict[int, dict[int, tuple[Any, Any]]] = {}
        for sid, task in tasks.items():
            if combiner is not None and task.inbox:
                folded = wire.combine_inbox(task.inbox, combiner)
                if folded is not task.inbox:
                    task = replace(task, inbox=folded)
            per_worker.setdefault(self._owner[sid], {})[sid] = (
                task,
                patches.get(sid),
            )
        return self._broadcast(per_worker, "step")

    def apply(self, patches: Mapping[int, PatchColumns]) -> None:
        """Route patch-only applications to the owning workers."""
        per_worker: dict[int, dict[int, Any]] = {}
        for sid, patch in patches.items():
            per_worker.setdefault(self._owner[sid], {})[sid] = patch
        self._broadcast(per_worker, "apply")

    def snapshot(self) -> dict[int, PatchColumns]:
        """Gather every shard's snapshot record from the workers."""
        return self._broadcast(
            dict.fromkeys(range(len(self._sockets))), "snapshot"
        )

    def stop(self) -> None:
        """End the session: polite stop + short ack wait, then close."""
        for sock in self._sockets:
            try:
                wire.send_frame(sock, ("stop", None))
                sock.settimeout(self._ACK_TIMEOUT)
                wire.recv_payload(sock)
            except (TimeoutError, EOFError, wire.WireError, OSError):
                pass
        for sock in self._sockets:
            try:
                sock.close()
            except OSError:  # pragma: no cover - already torn down
                pass
        self._sockets = []
        self._peers = []
        self._owner = {}
        self._pending_kind = {}


class ProcessExecutor(SocketExecutor):
    """The socket protocol over worker processes this executor spawns.

    :meth:`start` launches ``min(workers, shards)`` ``repro worker``
    subprocesses on localhost (a :class:`~repro.cluster.worker.WorkerFleet`)
    and runs the ordinary socket session against them; :meth:`stop` ends
    the session, then reaps the fleet.  The workers import what they
    unpickle, so programs must live in an importable module, not in
    ``__main__``.

    Worker lifetime is belt-and-braces: after the session ends a worker
    exits by itself, :meth:`stop` waits for that within a bound, then
    ``terminate()``, then ``kill()`` for workers wedged in compute; and a
    :func:`weakref.finalize` registered at :meth:`start` reaps the
    processes even when a caller drops the executor without ever calling
    :meth:`stop`.
    """

    name = "process"

    capabilities = ExecutorCapabilities(
        releases_gil=True, requires_picklable=True
    )

    def __init__(self, workers: int | None = 4) -> None:
        if workers is None or workers < 1:
            raise ValueError(
                f"need at least one worker process, got workers={workers!r}"
            )
        super().__init__(workers=workers)
        self._workers = workers
        self._fleet: WorkerFleet | None = None
        self._reaper: weakref.finalize | None = None

    def start(self, shards: Mapping[int, Shard]) -> None:
        """Spawn the workers, then start the socket session against them."""
        self._fleet = WorkerFleet(min(self._workers, max(1, len(shards))))
        # Reap on garbage collection: a caller that never reaches stop()
        # (crash between supersteps, dropped reference) must not orphan
        # workers for the life of the parent process.
        self._reaper = weakref.finalize(self, self._fleet.reap, force=True)
        self._given_addresses = self._fleet.addresses
        super().start(shards)

    def _peer(self, worker: int) -> str:
        """The worker's address, plus its exit code once it has one."""
        assert self._fleet is not None
        note = self._fleet.exit_note(worker)
        return super()._peer(worker) + (f", {note}" if note else "")

    def stop(self) -> None:
        """End the session, then reap the fleet (idempotent, bounded)."""
        super().stop()
        if self._reaper is not None:
            self._reaper.detach()
            self._reaper = None
        if self._fleet is not None:
            self._fleet.reap()
            self._fleet = None


EXECUTORS: dict[str, Callable[..., Executor]] = {
    "inline": InlineExecutor,
    "thread": ThreadExecutor,
    "process": ProcessExecutor,
    "socket": SocketExecutor,
}


def validate_executor(executor: Executor) -> Executor:
    """Check an executor's capability declaration; returns the executor.

    The record must actually be an :class:`ExecutorCapabilities`, not a
    look-alike mapping or a missing attribute.
    """
    caps = getattr(executor, "capabilities", None)
    if not isinstance(caps, ExecutorCapabilities):
        raise TypeError(
            f"executor {getattr(executor, 'name', executor)!r} must declare "
            f"an ExecutorCapabilities record, got {caps!r}"
        )
    return executor


def make_executor(
    spec: str | Executor | None = None, workers: int | None = None
) -> Executor:
    """Resolve an executor spec: None/name/instance → a fresh :class:`Executor`.

    ``None`` means :class:`InlineExecutor` (the deterministic default); a
    string looks up :data:`EXECUTORS`; an :class:`Executor` instance passes
    through (``workers`` is then ignored).  Every path runs
    :func:`validate_executor`, so a backend without a capability record
    never reaches the coordinator.
    """
    if spec is None:
        return validate_executor(InlineExecutor())
    if isinstance(spec, Executor):
        return validate_executor(spec)
    try:
        factory = EXECUTORS[spec]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown executor {spec!r}; choose from {sorted(EXECUTORS)} "
            "or pass an Executor instance"
        ) from None
    if factory is InlineExecutor or workers is None:
        return validate_executor(factory())
    return validate_executor(factory(workers=workers))
