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
  overlaps the compute of later shards.  Python's GIL serialises
  pure-Python compute, so this wins only when programs release the GIL
  (numpy, I/O); it mainly exercises the concurrency contract cheaply.
* :class:`ProcessExecutor` — long-lived worker processes, each owning a
  fixed subset of shards (shard ``i`` lives on worker ``i % workers``).
  Shards ship once at start — *empty*, so ``init`` does not grow with the
  graph — and are seeded on their host by the first :meth:`Executor.apply`;
  per superstep only tasks, patches and deltas cross the pipe — as compact
  :mod:`~repro.cluster.wire` frames, inboxes pre-folded by the program's
  combiner.  Requires picklable programs,
  values and messages.  The backend that scales superstep-heavy workloads
  on one host (``benchmarks/bench_cluster.py`` pins ≥2× with four workers).
* :class:`SocketExecutor` — the same persistent-worker protocol and wire
  frames over TCP to ``repro worker`` processes on *any* host: the step
  from multi-core to multi-machine (``benchmarks/bench_wire.py`` pins the
  bytes-on-wire win).  Bounded connect/read timeouts surface dead workers
  as the same clear ``RuntimeError`` the pipe path raises.

The coordinator drives all of them through :meth:`Executor.step_stream`
(by default: :meth:`Executor.step` to completion, deltas replayed in
order).  Each declares an :class:`ExecutorCapabilities` record (the
``RunnerCapabilities`` pattern) that :func:`make_executor` validates.

Executors are context managers; :meth:`Executor.stop` is idempotent.
"""

from __future__ import annotations

import multiprocessing
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
    ShardHost,
    apply_out_of_band,
    parse_worker_addresses,
)
from repro.obs import NULL_TRACER, MetricsRegistry, Tracer

if TYPE_CHECKING:
    from multiprocessing.connection import Connection
    from multiprocessing.process import BaseProcess

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
    * ``requires_picklable`` — programs, values and messages must survive
      serialisation; in-process backends can run anything.
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


def _process_worker_main(conn: Connection) -> None:
    """Worker loop: owns its shards for the life of the run."""
    host = ShardHost()
    while True:
        try:
            message = wire.loads(conn.recv_bytes())
        except EOFError:
            return
        kind, payload = message
        reply, done = host.handle(kind, payload)
        conn.send_bytes(wire.dumps(reply))
        if done:
            return


def _reap_workers(procs: list[BaseProcess], pipes: list[Connection]) -> None:
    """Last-resort worker teardown: no acks, straight to the signals.

    Runs from the :mod:`weakref` finalizer when a :class:`ProcessExecutor`
    is garbage-collected without :meth:`~Executor.stop` — the polite
    stop-message protocol needs live pipes and a caller willing to wait, so
    the reaper just terminates, escalates to kill for anything that shrugs
    off SIGTERM, and closes the pipes.  Deliberately module-level: a bound
    method would keep the executor alive and the finalizer would never run.
    """
    for proc in procs:
        if proc.is_alive():
            proc.terminate()
    for proc in procs:
        proc.join(timeout=2)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=2)
    for pipe in pipes:
        try:
            pipe.close()
        except OSError:  # pragma: no cover - already torn down
            pass


class _WorkerProtocolExecutor(Executor):
    """Shared client half of the persistent-worker protocol.

    :class:`ProcessExecutor` (pipes) and :class:`SocketExecutor` (TCP)
    differ only in transport; the command routing, the shard→worker
    ownership map, shard-side inbox combining, byte metering and —
    critically — the reply-draining discipline live here.  Subclasses
    provide :meth:`_transport_send` and :meth:`_transport_recv` plus
    lifecycle.

    Byte accounting: every command's payload bytes are tallied per command
    kind in :attr:`bytes_sent` / :attr:`bytes_received` — live
    :class:`~repro.obs.CounterGroup` views over registry counters
    (``executor.bytes_sent.<kind>`` / ``executor.bytes_received.<kind>``).
    The tally is whatever :meth:`_transport_send` reports having put on its
    medium: framed bytes including the 4-byte length prefix on the socket
    path, the wire payload alone on the pipe path (the
    :class:`multiprocessing.connection.Connection` frame is the OS's
    business).  :meth:`start` resets the counters, so a reused executor
    reports per-session traffic; the stop handshake is deliberately not
    metered (it may race a dying worker).
    """

    def __init__(self) -> None:
        self._owner: dict[int, int] = {}
        self._task_combiner: Callable[[Any, Any], Any] | None = None
        self._pending_kind: dict[int, str] = {}
        self._bind_metrics(MetricsRegistry())

    def _bind_metrics(self, metrics: MetricsRegistry) -> None:
        self.bytes_sent = metrics.group("executor.bytes_sent")
        self.bytes_received = metrics.group("executor.bytes_received")

    # -- transport contract -------------------------------------------------

    def _transport_send(self, worker: int, message: tuple[str, Any]) -> int:
        """Put one message on the medium; returns the bytes written."""
        raise NotImplementedError

    def _transport_recv(self, worker: int) -> tuple[Any, int]:
        """Take one reply off the medium; returns ``(message, bytes_read)``."""
        raise NotImplementedError

    def _worker_ids(self) -> Iterable[int]:
        raise NotImplementedError

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

    # -- shared protocol ----------------------------------------------------

    def _begin_session(
        self, shards: Mapping[int, Shard], workers: int
    ) -> list[dict[int, Shard]]:
        """Fix shard→worker ownership (shard ``i`` on worker ``i % workers``),
        capture the program's combiner for pre-wire inbox folding and zero
        the byte meters; returns each worker's shard subset."""
        assignments: list[dict[int, Shard]] = [{} for _ in range(workers)]
        for sid, shard in shards.items():
            worker = sid % workers
            assignments[worker][sid] = shard
            self._owner[sid] = worker
        any_shard = next(iter(shards.values()), None)
        self._task_combiner = getattr(any_shard, "_combiner", None)
        self.bytes_sent.reset()
        self.bytes_received.reset()
        return assignments

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
        workers = list(self._worker_ids())
        for worker in workers:
            self._send(worker, ("snapshot", None))
        return self._gather(workers)


class ProcessExecutor(_WorkerProtocolExecutor):
    """Persistent worker processes with shard affinity.

    ``workers`` processes are spawned at :meth:`start`; shard ``i`` lives on
    worker ``i % workers`` for the whole run, so per-superstep traffic is
    tasks + patches in, deltas out — never whole shards.  Messages cross
    the pipe as :mod:`~repro.cluster.wire` frames (the binary codec, with
    shard-side inbox combining), not pickle-per-message.  ``mp_context``
    names a :mod:`multiprocessing` start method (default: ``"fork"`` where
    available, else the platform default) — with ``"spawn"``, shard state is
    shipped through the pipe at start, so programs and values must pickle.

    Worker lifetime is belt-and-braces: :meth:`stop` waits briefly for the
    polite ack, then ``terminate()``, then ``kill()`` for workers stuck in
    uninterruptible state; and a :func:`weakref.finalize` registered at
    :meth:`start` reaps the processes even when a caller drops the executor
    without ever calling :meth:`stop`.
    """

    name = "process"

    capabilities = ExecutorCapabilities(
        releases_gil=True, requires_picklable=True
    )

    # Bounded waits (seconds): ack on the pipe, SIGTERM grace, SIGKILL grace.
    _ACK_TIMEOUT = 1.0
    _JOIN_TIMEOUT = 5.0

    def __init__(
        self,
        workers: int | None = 4,
        mp_context: str | None = None,
    ) -> None:
        super().__init__()
        if workers is None or workers < 1:
            raise ValueError("need at least one worker process")
        self._workers = workers
        self._context_name = mp_context
        self._procs: list[BaseProcess] = []
        self._pipes: list[Connection] = []
        self._reaper: weakref.finalize | None = None

    def _context(self) -> Any:
        if self._context_name is not None:
            return multiprocessing.get_context(self._context_name)
        methods = multiprocessing.get_all_start_methods()
        if "fork" in methods:
            return multiprocessing.get_context("fork")
        return multiprocessing.get_context(None)

    def start(self, shards: Mapping[int, Shard]) -> None:
        """Spawn the workers, ship each its shard subset, await the acks."""
        ctx = self._context()
        workers = min(self._workers, max(1, len(shards)))
        assignments = self._begin_session(shards, workers)
        try:
            for worker in range(workers):
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=_process_worker_main,
                    args=(child_conn,),
                    daemon=True,
                    name=f"repro-shard-worker-{worker}",
                )
                proc.start()
                child_conn.close()
                self._procs.append(proc)
                self._pipes.append(parent_conn)
            # Reap on garbage collection: a caller that never reaches
            # stop() (crash between supersteps, dropped reference) must not
            # orphan workers for the life of the parent process.
            self._reaper = weakref.finalize(
                self, _reap_workers, list(self._procs), list(self._pipes)
            )
            for worker in range(workers):
                self._send(worker, ("init", assignments[worker]))
            for worker in range(workers):
                self._receive(worker)
        except BaseException:
            self.stop()  # no leaked worker processes on a failed start
            raise

    def _worker_ids(self) -> Iterable[int]:
        return range(len(self._pipes))

    def _transport_send(self, worker: int, message: tuple[str, Any]) -> int:
        """Send to one worker, surfacing a dead process as a clear error."""
        data = wire.dumps(message)
        try:
            self._pipes[worker].send_bytes(data)
        except (BrokenPipeError, OSError) as exc:
            raise RuntimeError(
                f"shard worker {worker} died (pipe closed); it may have "
                "crashed or been killed mid-run"
            ) from exc
        return len(data)

    def _transport_recv(self, worker: int) -> tuple[Any, int]:
        try:
            payload = self._pipes[worker].recv_bytes()
        except EOFError:
            raise RuntimeError(
                f"shard worker {worker} died (pipe closed); shard state or "
                "messages may not be picklable"
            ) from None
        return self._decode_reply(worker, payload), len(payload)

    def stop(self) -> None:
        """Stop the workers: polite ack, then SIGTERM, then SIGKILL."""
        for pipe in self._pipes:
            try:
                pipe.send_bytes(wire.dumps(("stop", None)))
            except (BrokenPipeError, OSError):
                pass
        for worker, proc in enumerate(self._procs):
            try:
                # Bounded ack wait: a hard-stuck worker never answers, and
                # an unbounded recv() would hang the whole teardown.
                if self._pipes[worker].poll(self._ACK_TIMEOUT):
                    self._pipes[worker].recv_bytes()
            except (EOFError, OSError):
                pass
            proc.join(timeout=self._JOIN_TIMEOUT)
            if proc.is_alive():  # pragma: no cover - defensive cleanup
                proc.terminate()
                proc.join(timeout=self._JOIN_TIMEOUT)
            if proc.is_alive():  # pragma: no cover - SIGTERM ignored
                proc.kill()
                proc.join(timeout=self._JOIN_TIMEOUT)
            self._pipes[worker].close()
        if self._reaper is not None:
            self._reaper.detach()  # workers are down; nothing left to reap
            self._reaper = None
        self._procs = []
        self._pipes = []
        self._owner = {}
        self._pending_kind = {}


class SocketExecutor(_WorkerProtocolExecutor):
    """The persistent-worker protocol over TCP — shards on other hosts.

    Workers are ``repro worker --listen HOST:PORT`` processes (see
    :mod:`repro.cluster.worker`); :meth:`start` connects to each address,
    ships its shard subset, and from then on the session is exactly the
    pipe protocol as :mod:`~repro.cluster.wire` frames: tasks + patches
    out (inboxes pre-folded by the program's combiner when it has one),
    deltas back, every reply drained even on failure.

    ``addresses`` is a comma-joined string, an iterable of ``host:port``,
    or None to read ``REPRO_SOCKET_WORKERS`` from the environment at
    :meth:`start`.  Connect and read timeouts are bounded so a dead or
    wedged worker surfaces as the same ``RuntimeError`` shape the pipe path
    raises instead of a hang.  Bytes on the wire are tallied per command
    kind in :attr:`bytes_sent` / :attr:`bytes_received` (framed length:
    payload plus the 4-byte length prefix) — the counters
    ``benchmarks/bench_wire.py`` reads.
    """

    name = "socket"

    capabilities = ExecutorCapabilities(
        releases_gil=True, remote=True, requires_picklable=True
    )

    # Bounded waits (seconds): TCP connect, per-reply read, stop-ack read.
    _CONNECT_TIMEOUT = 10.0
    _READ_TIMEOUT = 600.0
    _ACK_TIMEOUT = 1.0

    def __init__(
        self,
        addresses: str | Iterable[str] | None = None,
        workers: int | None = None,
        *,
        connect_timeout: float | None = None,
        read_timeout: float | None = None,
    ) -> None:
        super().__init__()
        self._requested_workers = _require_workers(workers, "socket worker")
        self._given_addresses = addresses
        self._connect_timeout = (
            self._CONNECT_TIMEOUT if connect_timeout is None
            else connect_timeout
        )
        self._read_timeout = (
            self._READ_TIMEOUT if read_timeout is None else read_timeout
        )
        self._sockets: list[socket.socket] = []
        self._peers: list[str] = []

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
        assignments = self._begin_session(shards, workers)
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
            for worker in range(workers):
                self._send(worker, ("init", assignments[worker]))
            for worker in range(workers):
                self._receive(worker)
        except BaseException:
            self.stop()  # no half-connected session on a failed start
            raise

    def _worker_ids(self) -> Iterable[int]:
        return range(len(self._sockets))

    def _transport_send(self, worker: int, message: tuple[str, Any]) -> int:
        try:
            return wire.send_frame(self._sockets[worker], message)
        except (BrokenPipeError, ConnectionError, OSError) as exc:
            raise RuntimeError(
                f"shard worker {worker} ({self._peers[worker]}) died "
                "(connection lost); it may have crashed or been killed "
                "mid-run"
            ) from exc

    def _transport_recv(self, worker: int) -> tuple[Any, int]:
        try:
            payload = wire.recv_payload(self._sockets[worker])
        except TimeoutError:
            raise RuntimeError(
                f"shard worker {worker} ({self._peers[worker]}) timed out "
                f"after {self._read_timeout}s; it may be dead or wedged"
            ) from None
        except (EOFError, wire.WireError, ConnectionError, OSError):
            raise RuntimeError(
                f"shard worker {worker} ({self._peers[worker]}) died "
                "(connection closed); shard state or messages may not be "
                "picklable"
            ) from None
        return self._decode_reply(worker, payload), len(payload) + 4

    def stop(self) -> None:
        """End the session: polite stop + short ack wait, then close."""
        for worker, sock in enumerate(self._sockets):
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
