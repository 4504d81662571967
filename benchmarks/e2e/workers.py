"""Real ``repro worker`` subprocesses with a clean lifecycle.

``churn-socket`` measures the cluster transport, so its workers must be
separate interpreter processes: ``LocalWorkerPool`` runs its workers as
threads inside the coordinator's process, which would measure the GIL.
:class:`WorkerFleet` spawns ``python -m repro worker --listen 127.0.0.1:0``
per worker, learns each port from the banner line, and on every exit path
— clean, error, Ctrl-C, SIGTERM — leaves no process behind.
"""

import os
import re
import select
import subprocess
import sys
from pathlib import Path

import repro

_BANNER = re.compile(r"repro worker listening on (\S+:\d+)\s*$")
_BANNER_TIMEOUT = 30.0
_EXIT_TIMEOUT = 5.0


def worker_count():
    """``min(2, nproc)``: one worker per core this host can spare."""
    return min(2, os.cpu_count() or 1)


class WorkerFleet:
    """``count`` worker subprocesses, each serving one coordinator session.

    Use as a context manager.  A worker that dies before announcing its
    port, or exits non-zero after a clean run, raises ``RuntimeError``
    naming its exit code.
    """

    def __init__(self, count):
        self.count = count
        self.addresses = []
        self._procs = []
        # The workers run the program this process imported, not whatever
        # ``repro`` an installed copy might offer.
        source_dir = str(Path(repro.__file__).resolve().parents[1])
        self._env = dict(os.environ)
        self._env["PYTHONPATH"] = os.pathsep.join(
            part for part in (source_dir, self._env.get("PYTHONPATH")) if part
        )

    def __enter__(self):
        try:
            for _ in range(self.count):
                self._procs.append(subprocess.Popen(
                    [sys.executable, "-m", "repro", "worker",
                     "--listen", "127.0.0.1:0"],
                    stdout=subprocess.PIPE, text=True, env=self._env,
                ))
            # Spawn all first, then read: the interpreters start in parallel.
            for index, proc in enumerate(self._procs):
                self.addresses.append(self._read_banner(index, proc))
        except BaseException:
            self._reap(force=True)
            raise
        return self

    def _read_banner(self, index, proc):
        ready, _, _ = select.select([proc.stdout], [], [], _BANNER_TIMEOUT)
        line = proc.stdout.readline() if ready else ""
        match = _BANNER.match(line)
        if match:
            return match.group(1)
        if proc.poll() is not None:
            raise RuntimeError(
                f"worker {index} exited with code {proc.returncode} before "
                "announcing its port"
            )
        raise RuntimeError(
            f"worker {index} did not announce its port within "
            f"{_BANNER_TIMEOUT:.0f}s (got {line!r})"
        )

    def peak_rss_mb(self):
        """Largest resident-set high-water mark over the live workers.

        Read from ``/proc/<pid>/status`` (``VmHWM``) rather than
        ``RUSAGE_CHILDREN``: a child's ``ru_maxrss`` also covers the moment
        between fork and exec, when it still maps the *parent's* memory, so
        it would report the coordinator's footprint, not the worker's.
        """
        peak = 0.0
        for proc in self._procs:
            for line in Path(f"/proc/{proc.pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    peak = max(peak, int(line.split()[1]) / 1024.0)
        return peak

    def _reap(self, force):
        """Wait for every worker; escalate to terminate, then kill.

        After a clean coordinator session a worker exits by itself (its one
        session ended); ``force`` skips that grace for the error paths.
        Returns ``{index: exit code}`` for workers that went down non-zero
        on their own, not by our signal.
        """
        died = {}
        for index, proc in enumerate(self._procs):
            signalled = force and proc.poll() is None
            if signalled:
                proc.terminate()
            try:
                proc.wait(timeout=_EXIT_TIMEOUT)
            except subprocess.TimeoutExpired:
                signalled = True
                if not force:
                    died[index] = "still running after its session"
                proc.terminate()
                try:
                    proc.wait(timeout=_EXIT_TIMEOUT)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
            proc.stdout.close()
            if proc.returncode != 0 and not signalled:
                died[index] = proc.returncode
        return died

    def __exit__(self, exc_type, exc, traceback):
        died = self._reap(force=exc_type is not None)
        if died and exc_type is None:
            raise RuntimeError(f"workers exited non-zero: {died}")
        if died:
            # An error is already propagating (often "shard worker died");
            # say which process went and how, without masking it.
            print(f"worker exit codes: {died}", file=sys.stderr)
        return False
