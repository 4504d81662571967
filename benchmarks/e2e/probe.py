"""Bench-local executors that time the shard layer, and the codec replay.

Both probes subclass public executors and change nothing the program
computes: they put ``perf_counter`` pairs around the calls the stock
executor makes anyway, and keep every ``CAPTURE_EVERY``-th superstep's
``(tasks, patches, deltas)`` so :func:`replay_codec` can run the wire codec
over real payloads in a timed loop afterwards.  Only the traced pass uses
them; end-to-end numbers always come from the stock executors.
"""

import statistics
from dataclasses import dataclass, replace
from time import perf_counter

from repro.cluster import InlineExecutor, SocketExecutor, wire

CAPTURE_EVERY = 4


@dataclass
class Captured:
    """One superstep's executor traffic, held for the codec replay.

    ``sent``/``received`` are the socket executor's own ``step`` byte
    counter deltas for this superstep (None on an inline run, which moves
    no bytes).
    """

    tasks: dict
    patches: dict
    deltas: dict
    sent: int = None
    received: int = None


class _StepProbe:
    """What both probes record around ``Executor.step``."""

    def _reset_probe(self):
        self.step_seconds = 0.0
        self.captured = []
        self._steps_seen = 0

    def _observe(self, elapsed, tasks, patches, deltas, sent=None,
                 received=None):
        self.step_seconds += elapsed
        if self._steps_seen % CAPTURE_EVERY == 0:
            self.captured.append(
                Captured(tasks, patches, deltas, sent, received)
            )
        self._steps_seen += 1


class ProbeExecutor(_StepProbe, InlineExecutor):
    """Inline execution with per-shard timers on the two ``Shard`` calls."""

    name = "probe"

    def start(self, shards):
        """Keep the shard map and zero every timer."""
        super().start(shards)
        self._reset_probe()
        self.apply_patch_seconds = 0.0
        self.run_superstep_seconds = 0.0
        self.skews = []  # per superstep: slowest shard / mean shard

    def step(self, tasks, patches):
        """The inline step, with a timer pair around each shard call."""
        started = perf_counter()
        deltas = {}
        busy = []
        for sid in sorted(tasks):
            shard = self._shards[sid]
            patch = patches.get(sid)
            tick = perf_counter()
            if patch is not None:
                shard.apply_patch(patch)
            patched = perf_counter()
            deltas[sid] = shard.run_superstep(tasks[sid])
            done = perf_counter()
            self.apply_patch_seconds += patched - tick
            self.run_superstep_seconds += done - patched
            busy.append(done - tick)
        self.skews.append(max(busy) / statistics.fmean(busy))
        self._observe(perf_counter() - started, tasks, patches, deltas)
        return deltas


class TimedSocketExecutor(_StepProbe, SocketExecutor):
    """The socket executor with a timer and byte meter around ``step``."""

    name = "timed-socket"

    def start(self, shards):
        """Connect as usual and zero the probe."""
        super().start(shards)
        self._reset_probe()
        self.worker_count = len(self._sockets)

    def step(self, tasks, patches):
        """The socket step, timed, with its own byte-counter deltas."""
        sent = self.bytes_sent.get("step", 0)
        received = self.bytes_received.get("step", 0)
        started = perf_counter()
        deltas = super().step(tasks, patches)
        self._observe(
            perf_counter() - started, tasks, patches, deltas,
            self.bytes_sent["step"] - sent,
            self.bytes_received["step"] - received,
        )
        return deltas


def _timed(function, *args):
    started = perf_counter()
    result = function(*args)
    return result, perf_counter() - started


def replay_codec(captured, combiner, workers):
    """Run the wire codec over captured supersteps; returns replay metrics.

    Reproduces exactly what :class:`SocketExecutor` and a ``repro worker``
    put on the wire for one superstep — inboxes folded by the program's
    combiner, one ``("step", {sid: (task, patch)})`` frame per worker out,
    one ``("ok", {sid: delta})`` frame per worker back, shard ``i`` on
    worker ``i % workers`` — timing each codec stage separately.  The
    returned dict also carries ``roundtrip_ok`` (``loads(dumps(x)) == x``
    for every frame) and ``bytes_match`` (replayed frame sizes equal the
    socket executor's own counters; None when nothing was metered).
    """
    stage = {"combine": 0.0, "encode_task": 0.0, "decode_task": 0.0,
             "encode_delta": 0.0, "decode_delta": 0.0}
    task_sizes, delta_sizes = [], []
    roundtrip_ok = True
    bytes_match = None
    for step in captured:
        outgoing = {}
        for sid, task in step.tasks.items():
            if combiner is not None and task.inbox:
                folded, spent = _timed(
                    wire.combine_inbox, task.inbox, combiner
                )
                stage["combine"] += spent
                if folded is not task.inbox:
                    task = replace(task, inbox=folded)
            outgoing.setdefault(sid % workers, {})[sid] = (
                task, step.patches.get(sid)
            )
        sent = received = 0
        for worker in sorted(outgoing):
            request = ("step", outgoing[worker])
            reply = (
                "ok", {sid: step.deltas[sid] for sid in sorted(outgoing[worker])}
            )
            for message, prefix, sizes in (
                (request, "task", task_sizes), (reply, "delta", delta_sizes)
            ):
                payload, spent = _timed(wire.dumps, message)
                stage[f"encode_{prefix}"] += spent
                decoded, spent = _timed(wire.loads, payload)
                stage[f"decode_{prefix}"] += spent
                sizes.append(len(payload) + 4)  # + the u32 length prefix
                roundtrip_ok = roundtrip_ok and decoded == message
            sent += task_sizes[-1]
            received += delta_sizes[-1]
        if step.sent is not None:
            matched = (sent, received) == (step.sent, step.received)
            bytes_match = matched if bytes_match is None else (
                bytes_match and matched
            )
    steps = len(captured)
    encoded = sum(task_sizes) + sum(delta_sizes)
    encode_s = stage["encode_task"] + stage["encode_delta"]
    decode_s = stage["decode_task"] + stage["decode_delta"]
    metrics = {
        f"cluster.wire.{name}_ms_per_step": 1000.0 * seconds / steps
        for name, seconds in stage.items()
    }
    metrics.update({
        "cluster.wire.task_bytes_p50": statistics.median(task_sizes),
        "cluster.wire.delta_bytes_p50": statistics.median(delta_sizes),
        "cluster.wire.encode_mb_per_s": encoded / 1e6 / encode_s,
        "cluster.wire.decode_mb_per_s": encoded / 1e6 / decode_s,
        "cluster.wire.roundtrip_ok": int(roundtrip_ok),
    })
    return metrics, bytes_match
