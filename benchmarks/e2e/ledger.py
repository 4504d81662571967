"""Ledger records: sample summaries, host metadata, read and write.

A ledger is one JSON file::

    {"schema": 1, "meta": {...host, sizes, seed...},
     "workloads": {name: {"correct", "attempted", "failed", "errors",
                          "digest", "metrics": {metric: summary}}}}

where a summary is ``{"value", "unit", "min", "max", "n", "samples"}`` —
``value`` is the median over fresh repeats (or the pooled percentile for
per-step metrics), ``samples`` the per-repeat values behind it.
"""

import json
import os
import platform
import statistics
import subprocess
from pathlib import Path

from benchmarks.e2e.calibrate import RATE_UNITS, TIME_UNITS

SCHEMA = 1

# (max - min) / median above this flags a timing line as noisy: one sizing
# run doubled for ~10 s from a neighbour on the shared host, so a spread
# this wide means the median is not yet trustworthy.
NOISY_SPREAD = 0.10


def percentile(values, pct):
    """Linear-interpolated percentile (``pct`` in 1..99) of ``values``."""
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def summarise(samples, unit, value=None):
    """One metric's ledger entry from its per-repeat ``samples``.

    ``value`` overrides the median for metrics whose headline is computed
    over pooled steps rather than over repeats.
    """
    samples = list(samples)
    return {
        "value": statistics.median(samples) if value is None else value,
        "unit": unit,
        "min": min(samples),
        "max": max(samples),
        "n": len(samples),
        "samples": samples,
    }


def spread(summary):
    """``(max - min) / median`` of one summary (0.0 for a zero median)."""
    centre = statistics.median(summary["samples"])
    if not centre:
        return 0.0
    return (summary["max"] - summary["min"]) / abs(centre)


def is_noisy(summary):
    """Whether a timing metric's repeats disagree by more than the policy."""
    timing = summary["unit"] in TIME_UNITS or summary["unit"] in RATE_UNITS
    return timing and spread(summary) > NOISY_SPREAD


def format_line(workload, name, summary):
    """``workload metric value unit`` plus min/max over repeats and count."""
    line = (
        f"{workload} {name} {summary['value']:.6g} {summary['unit']}"
        f"  min={summary['min']:.6g} max={summary['max']:.6g}"
        f" n={summary['n']}"
    )
    return line + "  noisy" if is_noisy(summary) else line


def _git(root, *args):
    try:
        done = subprocess.run(
            ["git", "-C", str(root), *args],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def host_meta(root):
    """Where and on what this ledger was measured."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    meta = {
        "cores": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "git_sha": None,
        "git_dirty": None,
    }
    # The driver's checkout is not a git repository; the sha is best effort.
    if (Path(root) / ".git").exists():
        meta["git_sha"] = _git(root, "rev-parse", "HEAD")
        status = _git(root, "status", "--porcelain")
        meta["git_dirty"] = None if status is None else bool(status)
    return meta


def write(path, meta, workloads):
    """Write one ledger file."""
    payload = {"schema": SCHEMA, "meta": meta, "workloads": workloads}
    Path(path).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def read(path):
    """Read one ledger file, refusing other schemas."""
    payload = json.loads(Path(path).read_text())
    if payload.get("schema") != SCHEMA:
        raise ValueError(
            f"{path}: ledger schema {payload.get('schema')!r}, "
            f"this tool reads schema {SCHEMA}"
        )
    return payload
