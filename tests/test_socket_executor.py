"""The socket executor and its worker side: the multi-host protocol.

What multi-host must *not* change is results — the socket backend replays
the same timelines as the in-process executors (the cross-executor and
golden suites pin that; here the codec and pre-wire combining get their
own identity and byte checks).  What it must add is operability: workers
spawn from the CLI and print their bound address, dead or wedged or
unreachable workers surface as a clear ``RuntimeError``, and the per-kind
byte counters the wire benchmark reads actually meter the traffic.
"""

import os
import re
import socket as socketlib
import struct
import subprocess
import sys
import threading
import zlib
from pathlib import Path

import pytest

from repro.apps.pagerank import PageRank
from repro.cluster import (
    Coordinator,
    InlineExecutor,
    LocalWorkerPool,
    SocketExecutor,
    make_executor,
    wire,
)
from repro.cluster.worker import parse_address, parse_worker_addresses
from repro.generators import mesh_3d
from repro.pregel.system import PregelConfig


@pytest.fixture(scope="module")
def pool():
    with LocalWorkerPool(2) as workers:
        yield workers


def _digest(executor, steps=5, staleness=0, program=None):
    config = PregelConfig(
        num_workers=4, seed=3, quiet_window=5, snapshot_staleness=staleness
    )
    with Coordinator(
        mesh_3d(5), program or PageRank(), config, executor=executor
    ) as system:
        system.run(steps)
        return (
            [
                (r.superstep, r.migrations_announced, r.cut_edges,
                 tuple(r.sizes), r.computed_vertices,
                 r.traffic.compute_units)
                for r in system.reports
            ],
            dict(system.values),
            set(system.halted),
        )


class TestAddressParsing:
    def test_parse_address(self):
        assert parse_address("localhost:9000") == ("localhost", 9000)
        assert parse_address(("10.0.0.1", 9001)) == ("10.0.0.1", 9001)
        assert parse_address("::1:9002") == ("::1", 9002)  # rightmost colon
        for bad in ("nohost", ":9000", "host:", ""):
            with pytest.raises(ValueError, match="bad worker address"):
                parse_address(bad)

    def test_parse_worker_addresses(self):
        assert parse_worker_addresses(None) == []
        assert parse_worker_addresses("a:1, b:2 ,") == [("a", 1), ("b", 2)]
        assert parse_worker_addresses(["a:1", ("b", 2)]) == [
            ("a", 1),
            ("b", 2),
        ]


class TestSocketExecutor:
    def test_results_identical_across_codec_and_combining(self, pool):
        # Inline moves no bytes and folds no inboxes; the socket run does
        # both on every superstep.
        assert _digest(SocketExecutor(pool.addresses)) == _digest(
            InlineExecutor()
        )

    def test_results_identical_under_staleness(self, pool):
        want = _digest(InlineExecutor(), staleness=3)
        assert _digest(SocketExecutor(pool.addresses), staleness=3) == want

    def test_byte_counters_meter_every_command_kind(self, pool):
        executor = SocketExecutor(pool.addresses)
        with Coordinator(
            mesh_3d(5),
            PageRank(),
            PregelConfig(num_workers=4, seed=3, quiet_window=5),
            executor=executor,
        ) as system:
            system.run(4)
            system.shard_consistency_check()  # exercises the snapshot kind
        # stop() already ran (Coordinator.close), but the counters survive.
        for counters in (executor.bytes_sent, executor.bytes_received):
            assert set(counters) >= {"init", "step", "snapshot"}
            assert all(n > 0 for n in counters.values())

    def test_combining_shrinks_step_traffic(self, pool, scalar_twin):
        # Executor-side folding is the dict plane's job (a batched kernel's
        # columnar inbox arrives folded at delivery), so pin the scalar loop.

        class Metered(SocketExecutor):
            """Also sizes the frames the same tasks would cost unfolded."""

            unfolded = 0

            def step(self, tasks, patches):
                per_worker = {}
                for sid, task in tasks.items():
                    per_worker.setdefault(self._owner[sid], {})[sid] = (
                        task, patches.get(sid),
                    )
                self.unfolded += sum(
                    len(wire.frame(("step", payload)))
                    for payload in per_worker.values()
                )
                return super().step(tasks, patches)

        executor = Metered(pool.addresses)
        _digest(executor, program=scalar_twin(PageRank()))
        assert 0 < executor.bytes_sent["step"] < executor.unfolded

    def test_env_var_supplies_addresses(self, pool, monkeypatch):
        monkeypatch.setenv(
            "REPRO_SOCKET_WORKERS", ",".join(pool.addresses)
        )
        executor = make_executor("socket")
        assert isinstance(executor, SocketExecutor)
        assert _digest(executor) == _digest(InlineExecutor())

    def test_make_executor_workers_truncates_the_address_list(self, pool):
        executor = SocketExecutor(pool.addresses, workers=1)
        assert executor._resolve_addresses() == [
            parse_address(pool.addresses[0])
        ]

    def test_missing_addresses_fail_with_guidance(self, monkeypatch):
        monkeypatch.delenv("REPRO_SOCKET_WORKERS", raising=False)
        with pytest.raises(ValueError, match="REPRO_SOCKET_WORKERS"):
            SocketExecutor().start({0: object()})

    def test_unreachable_worker_is_a_clear_error(self):
        # Grab a port nobody listens on by binding and closing it.
        probe = socketlib.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        executor = SocketExecutor(
            [f"127.0.0.1:{port}"], connect_timeout=0.5
        )
        with pytest.raises(RuntimeError, match="cannot reach shard worker"):
            executor.start({0: PageRank()})
        executor.stop()  # idempotent after the failed start

    def test_dead_worker_mid_run_is_a_clear_error(self):
        with LocalWorkerPool(1) as lone:
            executor = SocketExecutor(lone.addresses)
            with Coordinator(
                mesh_3d(3),
                PageRank(),
                PregelConfig(num_workers=2, seed=0),
                executor=executor,
            ) as system:
                system.run(1)
                lone.close()  # the "host" goes away mid-run
                with pytest.raises(
                    RuntimeError, match=r"shard worker 0 .* (died|timed out)"
                ):
                    system.run_superstep()

    def test_closing_a_pool_stops_its_server_threads(self):
        # One server waits in ``accept``, the other in ``recv`` on a live
        # session; a bare socket close wakes neither, so ``close`` must
        # shut both down or the threads outlive their pool.
        pool = LocalWorkerPool(2)
        executor = SocketExecutor(pool.addresses[:1])
        try:
            executor.start({0: PageRank()})
            pool.close()
        finally:
            executor.stop()
        assert not any(thread.is_alive() for thread in pool._threads)

    def test_wedged_worker_times_out_with_a_clear_error(self, pool):
        # A worker that accepts but never answers must not hang the
        # coordinator: the bounded read surfaces it as "timed out".
        listener = socketlib.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        try:
            executor = SocketExecutor(
                [f"127.0.0.1:{port}"], read_timeout=0.5
            )
            with pytest.raises(RuntimeError, match="timed out"):
                executor.start({0: PageRank()})
            executor.stop()
        finally:
            listener.close()

    def test_sequential_sessions_reuse_one_worker_pool(self, pool):
        # Coordinator.close ends the session; the pool's servers accept
        # the next one with fresh state — the harness contract every
        # golden socket run relies on.
        first = _digest(SocketExecutor(pool.addresses), steps=3)
        second = _digest(SocketExecutor(pool.addresses), steps=3)
        assert first == second


class TestWorkerCli:
    def test_spawned_worker_serves_a_coordinator_session(self):
        import repro

        # The test process imports repro off pytest's pythonpath; the
        # spawned worker needs the same directory on *its* path.
        package_dir = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p
            for p in (package_dir, env.get("PYTHONPATH"))
            if p
        )
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "worker",
             "--listen", "127.0.0.1:0"],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            line = process.stdout.readline()
            match = re.match(
                r"repro worker listening on (\S+:\d+)\n", line
            )
            assert match, f"unparseable worker banner: {line!r}"
            address = match.group(1)
            want = _digest(InlineExecutor(), steps=3)
            assert _digest(SocketExecutor([address]), steps=3) == want
            assert process.wait(timeout=10) == 0
            assert "served 1 session(s)" in process.stdout.read()
        finally:
            if process.poll() is None:  # pragma: no cover - failure path
                process.kill()
                process.wait()

    def test_worker_rejects_negative_sessions(self, capsys):
        from repro.cli import main

        assert main(["worker", "--listen", "127.0.0.1:0",
                     "--sessions", "-1"]) == 2
        assert "--sessions" in capsys.readouterr().out


class _ErringStub:
    """Module-level (picklable) shard stub whose compute always fails."""

    def run_superstep(self, task):  # pragma: no cover - runs worker-side
        raise RuntimeError("kaboom")

    def apply_patch(self, patch):  # pragma: no cover - runs worker-side
        pass

    def snapshot(self):
        return ({}, set())


def test_worker_error_replies_keep_the_session_alive(pool):
    # ShardHost catches shard failures and answers ("error", traceback);
    # the TCP session — and the server — must survive to serve the next
    # command and the next session.
    executor = SocketExecutor(pool.addresses[:1])
    with executor:
        executor.start({0: _ErringStub()})
        for _ in range(2):  # the error is repeatable, not fatal
            with pytest.raises(RuntimeError, match="kaboom"):
                executor.step({0: None}, {})
        assert executor.snapshot() == {0: ({}, set())}
    # And the pool still serves fresh sessions afterwards.
    assert _digest(SocketExecutor(pool.addresses), steps=2) is not None


class _ScriptedPeer:
    """A fake worker: answers each command with the next scripted body."""

    def __init__(self, bodies):
        self._listener = socketlib.create_server(("127.0.0.1", 0))
        self.address = "127.0.0.1:%d" % self._listener.getsockname()[1]
        self._thread = threading.Thread(
            target=self._serve, args=(list(bodies),), daemon=True
        )
        self._thread.start()

    def _serve(self, bodies):
        conn, _ = self._listener.accept()
        with conn:
            for body in bodies:
                try:
                    wire.recv_payload(conn)
                except (EOFError, wire.WireError, OSError):
                    return
                conn.sendall(len(body).to_bytes(4, "little") + body)

    def close(self):
        self._listener.close()
        self._thread.join(timeout=5)
        assert not self._thread.is_alive()


def test_undecodable_reply_does_not_desync_the_reply_protocol():
    # A well-framed reply whose body the codec rejects used to escape
    # _gather as a WireError before worker 1's reply was read, leaving it
    # queued for the next command to misread as its own answer.
    ok = wire.dumps(("ok", None))
    # A sealed body (codec byte, CRC32) holding a tag nothing defines.
    garbage = bytes([wire.CODEC_BINARY]) + struct.pack("<I", zlib.crc32(b"\xff"))
    garbage += b"\xff"
    peers = [
        _ScriptedPeer(
            [ok, garbage, wire.dumps(("ok", {0: "snapshot-0"})), ok]
        ),
        _ScriptedPeer(
            [ok, wire.dumps(("ok", {1: "delta-1"})),
             wire.dumps(("ok", {1: "snapshot-1"})), ok]
        ),
    ]
    executor = SocketExecutor([peer.address for peer in peers])
    try:
        executor.start({0: "shard-0", 1: "shard-1"})
        with pytest.raises(
            RuntimeError, match="shard worker 0 sent an undecodable reply"
        ) as caught:
            executor.step({0: None, 1: None}, {})
        assert isinstance(caught.value.__cause__, wire.WireError)
        # Worker 1's step reply was drained: the next command reads
        # snapshot replies, not the abandoned superstep's delta.
        assert executor.snapshot() == {0: "snapshot-0", 1: "snapshot-1"}
    finally:
        executor.stop()
        for peer in peers:
            peer.close()
    assert executor._sockets == []
