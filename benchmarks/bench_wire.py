"""Bytes on the wire: the binary codec + inbox combining vs raw pickle.

The socket executor's per-superstep traffic is the multi-host cost model:
every task (with its inbox) crosses the network out, every delta (values,
outbox, aggregates) crosses back, each barrier blocks on the slowest
worker's round trip.  This bench runs a 100k-vertex PageRank workload
over localhost TCP workers and sizes every superstep's traffic two ways —

* **codec** — the wire: the tagged binary codec with the program's
  combiner folding each multi-message mailbox shard-side of the wire,
  read off the :class:`~repro.cluster.executor.SocketExecutor` per-kind
  byte counters;
* **baseline** — the pre-codec protocol, computed bench-locally from the
  very same step messages in their per-message form (the session replayed
  on the dict plane by a kernel-less PageRank twin — bit-identical
  results, so the same messages): one ``pickle.dumps`` per frame, every
  raw mailbox shipped whole —

plus the measured mean barrier latency of the real run.

Asserted at both scales (the traffic is deterministic, so the floors are
regression tripwires, not flaky timings):

* the socket run and an :class:`InlineExecutor` reference replay
  bit-identical superstep timelines: compression changes bytes, never
  results;
* step-direction task frames shrink **≥2×** (``TASK_TARGET``) and delta
  frames never grow.  The return direction is dominated by f64 rank
  payloads that no honest codec shrinks (pickle spends 9 bytes per
  float to our 8), so the whole step round trip carries a regression
  tripwire floor instead of the 2× claim: **≥1.4×** at full scale
  (``STEP_TARGET``), with the delta-direction ratio recorded alongside.
"""

import pickle
import time

from repro.analysis import format_table
from repro.apps.pagerank import PageRank
from repro.cluster import Coordinator, InlineExecutor, SocketExecutor
from repro.cluster.worker import LocalWorkerPool
from repro.generators import mesh_3d
from repro.pregel.system import PregelConfig

from benchmarks import _harness
from benchmarks._harness import pick, record_result

MESH_SIDE = pick(47, 12)   # 47³ ≈ 104k vertices; smoke: 12³ ≈ 1.7k
SUPERSTEPS = pick(10, 5)
PARTITIONS = 8
WORKERS = 2
TASK_TARGET = 2.0          # step-direction (task frame) compression floor
STEP_TARGET = 1.4          # step round-trip tripwire (f64-bound return leg)


def _config():
    return PregelConfig(
        num_workers=PARTITIONS, seed=0, quiet_window=SUPERSTEPS
    )


def _digest(reports):
    return [
        (
            r.superstep,
            r.migrations_announced,
            r.cut_edges,
            tuple(r.sizes),
            r.computed_vertices,
            r.traffic.compute_units,
        )
        for r in reports
    ]


class _ScalarPageRank(PageRank):
    """PageRank without its batch kernel: the scalar loop, dict plane."""

    compute_batch = None


def _run(executor, program_factory=PageRank):
    """Drive one coordinator session; returns (digest, mean barrier s)."""
    with Coordinator(
        mesh_3d(MESH_SIDE), program_factory(), _config(), executor=executor
    ) as system:
        barrier_seconds = []
        for _ in range(SUPERSTEPS):
            start = time.perf_counter()
            system.run_superstep()
            barrier_seconds.append(time.perf_counter() - start)
        return (
            _digest(system.reports),
            sum(barrier_seconds) / len(barrier_seconds),
        )


class _CapturingInlineExecutor(InlineExecutor):
    """The inline executor, keeping each superstep's messages for sizing."""

    def start(self, shards):
        super().start(shards)
        self.captured = []

    def step(self, tasks, patches):
        deltas = super().step(tasks, patches)
        self.captured.append((tasks, patches, deltas))
        return deltas


def _dict_plane_messages():
    """``(digest, captured)`` of the session replayed on the dict plane.

    Without the batched kernel every message is a Python object and every
    mailbox arrives unfolded — the shapes the pre-codec protocol pickled.
    (With it, a task's inbox reaches the executor as folded columns.)
    """
    executor = _CapturingInlineExecutor()
    digest, _ = _run(executor, _ScalarPageRank)
    return digest, executor.captured


def _pickled_frame(message):
    """Framed size of ``message`` under the pre-codec protocol."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    return len(payload) + 4  # + the u32 length prefix


def _pickle_baseline(captured, workers):
    """``(sent, received)`` step bytes had every frame been one pickle.

    Rebuilds exactly the frames the session exchanged — one ``("step",
    {sid: (task, patch)})`` out and one ``("ok", {sid: delta})`` back per
    worker per superstep, shard ``i`` on worker ``i % workers`` — from the
    dict-plane tasks, whose mailboxes are still unfolded.
    """
    sent = received = 0
    for tasks, patches, deltas in captured:
        per_worker = {}
        for sid, task in tasks.items():
            per_worker.setdefault(sid % workers, {})[sid] = (
                task, patches.get(sid),
            )
        for payload in per_worker.values():
            sent += _pickled_frame(("step", payload))
            received += _pickled_frame(
                ("ok", {sid: deltas[sid] for sid in sorted(payload)})
            )
    return sent, received


def _experiment():
    inline_digest, inline_barrier = _run(InlineExecutor())
    with LocalWorkerPool(WORKERS) as pool:
        executor = SocketExecutor(pool.addresses)
        digest, barrier = _run(executor)
    sent = executor.bytes_sent["step"]
    received = executor.bytes_received["step"]
    codec = {
        "label": "binary+combine",
        "digest": digest,
        "mean_barrier_seconds": barrier,
        "step_bytes_sent": sent,
        "step_bytes_received": received,
        "step_bytes_total": sent + received,
        "init_bytes_sent": executor.bytes_sent["init"],
    }
    dict_plane_digest, captured = _dict_plane_messages()
    sent, received = _pickle_baseline(captured, WORKERS)
    baseline = {
        "label": "pickle, uncombined",
        "digest": dict_plane_digest,
        "step_bytes_sent": sent,
        "step_bytes_received": received,
        "step_bytes_total": sent + received,
    }
    return {
        "mesh_side": MESH_SIDE,
        "vertices": MESH_SIDE ** 3,
        "supersteps": SUPERSTEPS,
        "partitions": PARTITIONS,
        "workers": WORKERS,
        "inline_digest": inline_digest,
        "inline_mean_barrier_seconds": inline_barrier,
        "codec": codec,
        "baseline": baseline,
        "task_ratio": baseline["step_bytes_sent"] / codec["step_bytes_sent"],
        "delta_ratio": (
            baseline["step_bytes_received"] / codec["step_bytes_received"]
        ),
        "step_ratio": (
            baseline["step_bytes_total"] / codec["step_bytes_total"]
        ),
    }


def test_wire_codec_bytes_and_latency(run_once, capsys):
    results = run_once(_experiment)
    record_result("wire", results)
    codec = results["codec"]
    baseline = results["baseline"]
    with capsys.disabled():
        print()
        rows = [
            [
                run["label"],
                run["step_bytes_sent"],
                run["step_bytes_received"],
                run["step_bytes_total"],
            ]
            for run in (baseline, codec)
        ]
        print(
            format_table(
                ["wire", "task B", "delta B", "step B"],
                rows,
                title=(
                    f"Socket wire format ({results['vertices']} vertices, "
                    f"{results['partitions']} shards on "
                    f"{results['workers']} TCP workers, "
                    f"{results['supersteps']} supersteps)"
                ),
            )
        )
        print(
            f"compression: tasks {results['task_ratio']:.2f}x, deltas "
            f"{results['delta_ratio']:.2f}x, step round trip "
            f"{results['step_ratio']:.2f}x smaller than pickle/uncombined; "
            f"mean barrier {1000 * codec['mean_barrier_seconds']:.1f} ms "
            f"(inline {1000 * results['inline_mean_barrier_seconds']:.1f} ms)"
        )
    # Identity first: the codec must never buy bytes with results.
    assert codec["digest"] == results["inline_digest"], (
        "binary+combine socket run diverged from the inline timeline"
    )
    assert baseline["digest"] == results["inline_digest"], (
        "the dict-plane replay sized for the baseline is another session"
    )
    assert results["task_ratio"] >= TASK_TARGET, (
        f"task frames shrank only {results['task_ratio']:.2f}x "
        f"(target {TASK_TARGET}x)"
    )
    assert results["delta_ratio"] > 1.0, (
        f"delta frames grew: {results['delta_ratio']:.2f}x"
    )
    if not _harness.SMOKE:
        assert results["step_ratio"] >= STEP_TARGET, (
            f"step round trip shrank only {results['step_ratio']:.2f}x "
            f"(target {STEP_TARGET}x)"
        )
