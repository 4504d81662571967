"""Worker lifecycle at the process level: no orphan on any exit path.

``--executor process`` runs on real ``repro worker`` subprocesses
(:class:`~repro.cluster.worker.WorkerFleet`), so "stopped" has to mean
*the pid is gone* — here after a worker that never announces its port,
after SIGINT / SIGTERM to the CLI mid-run, and after SIGTERM before its
workers connect.  (``tests/test_cluster.py::TestExecutors`` holds the
executor-level cases: a clean stop, a worker-side exception, a failed
start, a ``kill -9``-ed worker, a wedged SIGTERM-ignoring one, a
dropped-and-collected executor.)  Also here,
because it needs a worker that really is another interpreter: a command
the worker cannot decode is answered, not dropped.
"""

import json
import os
import select
import signal
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import repro
from repro.apps.pagerank import PageRank
from repro.cluster import ProcessExecutor
from repro.cluster.shard import Shard
from repro.cluster.worker import WorkerFleet


@pytest.mark.parametrize(
    "misbehaviour, banner_timeout, message",
    [
        # the second interpreter to get going exits before its banner
        (
            'mkdir "$0.first" 2>/dev/null && exec "$PYTHON" "$@"; exit 3',
            30.0,
            r"shard worker [01] \(pid \d+\) announced no port \(got ''\): "
            r"exited with code 3",
        ),
        # nobody ever says anything
        (
            "exec sleep 60",
            0.5,
            r"shard worker 0 \(pid \d+\) announced no port \(got ''\): "
            r"still running after 0\.5s",
        ),
    ],
    ids=["exits-early", "stays-silent"],
)
def test_a_worker_that_never_announces_fails_the_start_and_the_rest_is_reaped(
    misbehaviour, banner_timeout, message, spawned, tmp_path, monkeypatch
):
    stub = tmp_path / "python"
    stub.write_text(f"#!/bin/sh\n{misbehaviour}\n")
    stub.chmod(0o755)
    monkeypatch.setenv("PYTHON", sys.executable)
    monkeypatch.setattr(sys, "executable", str(stub))
    monkeypatch.setattr(WorkerFleet, "_BANNER_TIMEOUT", banner_timeout)
    started = time.monotonic()
    with pytest.raises(RuntimeError, match=message):
        ProcessExecutor(workers=2).start({0: object(), 1: object()})
    assert time.monotonic() - started < 20
    assert len(spawned) == 2
    assert all(proc.poll() is not None for proc in spawned)


def test_an_undecodable_command_is_answered_and_the_session_stays_in_sync(
    monkeypatch,
):
    # A class only this process can import — what a program defined in
    # ``__main__`` is to a spawned worker.
    ghost = types.ModuleType("ghost_of_main")

    class Unimportable:
        pass

    Unimportable.__module__ = "ghost_of_main"
    Unimportable.__qualname__ = "Unimportable"
    ghost.Unimportable = Unimportable
    monkeypatch.setitem(sys.modules, "ghost_of_main", ghost)

    shard = Shard(0, PageRank(), None, True)
    with ProcessExecutor(workers=1) as executor:
        executor.start({0: shard})
        with pytest.raises(
            RuntimeError,
            match=r"shard worker 0 failed:\nundecodable command: "
            r".*ModuleNotFoundError.*ghost_of_main",
        ):
            executor.apply({0: Unimportable()})
        # same session, next command, its own reply
        assert executor.snapshot() == {0: shard.snapshot()}


def _worker_children(pid):
    """Pids of ``repro worker`` processes whose parent is ``pid``."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
            cmdline = (entry / "cmdline").read_bytes().split(b"\0")
        except OSError:
            continue  # gone between listing and reading
        ppid = int(stat.rpartition(")")[2].split()[1])
        if ppid == pid and b"worker" in cmdline:
            found.append(int(entry.name))
    return found


def _alive(pid):
    """True while ``pid`` runs; a zombie awaiting its reaper is not alive."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


def _in_session(pid):
    """True once a worker holds a second socket: its coordinator's."""
    try:
        links = [os.readlink(fd) for fd in Path(f"/proc/{pid}/fd").iterdir()]
    except OSError:
        return False  # an fd closed under us; ask again
    return sum(link.startswith("socket:") for link in links) >= 2


@pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="needs procfs to see pids"
)
@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
def test_a_signalled_cli_run_leaves_no_worker_behind(signum, tmp_path):
    # ~25 s of replay: still running when the signal lands ~2 s in.
    spec = tmp_path / "long.json"
    spec.write_text(json.dumps({
        "name": "long-mesh-growth",
        "graph": {"kind": "mesh", "params": {"nx": 12}},
        "churn": {"kind": "growth",
                  "params": {"num_vertices": 400, "duration": 200.0}},
        "regime": "continuous",
        "window": 1.0,
    }))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    cli = subprocess.Popen(
        [sys.executable, "-m", "repro", "scenario", "--spec", str(spec),
         "--engine", "pregel", "--executor", "process", "--workers", "2"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    workers = []
    try:
        deadline = time.monotonic() + 30
        while len(workers) < 2 or not all(map(_in_session, workers)):
            assert cli.poll() is None, "the run ended before workers showed"
            assert time.monotonic() < deadline, "workers never connected"
            time.sleep(0.05)
            workers = _worker_children(cli.pid)
        time.sleep(0.5)  # a few supersteps in
        assert cli.poll() is None, "the run ended before the signal"
        assert all(map(_alive, workers))
        cli.send_signal(signum)
        assert cli.wait(timeout=30) != 0
        deadline = time.monotonic() + 10
        while any(map(_alive, workers)):
            assert time.monotonic() < deadline, (
                f"orphan workers: {[p for p in workers if _alive(p)]}"
            )
            time.sleep(0.05)
    finally:
        if cli.poll() is None:  # pragma: no cover - failure path
            cli.kill()
            cli.wait()
        for pid in filter(_alive, workers):  # pragma: no cover - ditto
            os.kill(pid, signal.SIGKILL)


# The CLI with the socket session's start held open: the fleet is up and
# announced, but no worker has a coordinator yet — the window in which
# no worker would ever see the EOF that ends a session.
_HELD_BEFORE_CONNECT = """
import runpy, sys, time
from repro.cluster import SocketExecutor

def start(self, shards):
    print("spawned", *(proc.pid for proc in self._fleet.procs), flush=True)
    time.sleep(60)

SocketExecutor.start = start
sys.argv = ["repro", "scenario", "mesh-growth", "--engine", "pregel",
            "--executor", "process", "--workers", "2"]
runpy.run_module("repro", run_name="__main__")
"""


@pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="needs procfs to see pids"
)
def test_a_sigterm_before_the_workers_connect_leaves_no_worker_behind():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    cli = subprocess.Popen(
        [sys.executable, "-c", _HELD_BEFORE_CONNECT],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    workers = []
    try:
        deadline = time.monotonic() + 30
        while not workers:
            assert cli.poll() is None, "the CLI ended before its workers"
            assert time.monotonic() < deadline, "workers never spawned"
            ready, _, _ = select.select([cli.stdout], [], [], 0.5)
            line = cli.stdout.readline() if ready else ""
            if line.startswith("spawned "):
                workers = [int(pid) for pid in line.split()[1:]]
        assert len(workers) == 2 and all(map(_alive, workers))
        cli.send_signal(signal.SIGTERM)
        code = cli.wait(timeout=30)
        deadline = time.monotonic() + 10
        while any(map(_alive, workers)):
            assert time.monotonic() < deadline, (
                f"orphan workers: {[p for p in workers if _alive(p)]}"
            )
            time.sleep(0.05)
        assert code == 128 + signal.SIGTERM  # unwound, not killed outright
    finally:
        if cli.poll() is None:  # pragma: no cover - failure path
            cli.kill()
            cli.wait()
        for pid in filter(_alive, workers):  # pragma: no cover - ditto
            os.kill(pid, signal.SIGKILL)
        cli.stdout.close()
