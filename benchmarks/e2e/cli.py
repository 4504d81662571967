"""Command line of the perf ledger.

Two modes share one measuring core (:mod:`benchmarks.e2e.measure`):

* **ledger** — ``python -m benchmarks.e2e [--seed 0] [--repeats 3] [--out
  FILE]`` runs all four workloads, each in its own child process (so peak
  RSS is per workload), untraced repeats plus one traced repeat, prints
  every metric as ``workload metric value unit``, checks outputs and writes
  one JSON ledger.  ``--smoke`` does the same at tiny sizes and also checks
  that ``BENCHMARK.json``, the catalog and the output agree.
* **contract** — ``--workload NAME --seed N --seconds S --trace 0|1`` runs
  one workload in this process and prints, as the last line, the one JSON
  object the driver reads.

Exit status is non-zero whenever a check failed.
"""

import argparse
import json
import math
import multiprocessing
import re
import signal
import sys
from pathlib import Path

from benchmarks.e2e import catalog, ledger

ROOT = Path(__file__).resolve().parents[2]
SOURCE_DIR = ROOT / "src"

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*\Z")
_CHILD_TIMEOUT = 900.0


def _parser():
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="feeds every generated input (default 0)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="fresh untraced repeats per workload (ledger "
                        "default 3; contract default: as many as --seconds "
                        "needs, at least 2)")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the JSON ledger here")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes plus the declaration self-check")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply vertex counts (off-contract runs; "
                        "20 gives the 1M-vertex churn scenario)")
    parser.add_argument("--workload", choices=catalog.ALL, default=None,
                        help="contract mode: run only this workload")
    parser.add_argument("--seconds", type=float, default=catalog.RUN_SECONDS,
                        help="contract mode: timed region to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="contract mode: 1 adds the traced pass and "
                        "reports the per-layer metrics")
    return parser


def _exit_on_sigterm():
    """Turn SIGTERM into SystemExit so every ``finally`` (worker teardown)
    still runs."""
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))


def _print_record(workload, record):
    for name, summary in record["metrics"].items():
        print(ledger.format_line(workload, name, summary))
    for error in record["errors"]:
        print(f"{workload} FAILED {error}", file=sys.stderr)
    sys.stdout.flush()


# ----------------------------------------------------------------------
# Contract mode
# ----------------------------------------------------------------------


def _contract(args, profile):
    from benchmarks.e2e.measure import measure

    record = measure(
        args.workload, args.seed, profile, args.scale, repeats=args.repeats,
        seconds=args.seconds, traced=bool(args.trace),
    )
    _print_record(args.workload, record)
    if not record["metrics"]:
        return 1  # the run died before it could measure; stderr says why
    kinds = (
        (catalog.WORKLOAD_E2E, catalog.PER_LAYER) if args.trace
        else (catalog.END_TO_END,)
    )
    # The contract wants every declared metric from every workload; a
    # layer this workload never enters reads 0 (the ledger omits it).
    metrics = {
        metric.name: {
            "value": (
                record["metrics"][metric.name]["value"]
                if args.workload in metric.workloads else 0.0
            ),
            "unit": metric.unit,
        }
        for metric in catalog.of_kind(*kinds)
    }
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0 if record["correct"] else 1


# ----------------------------------------------------------------------
# Ledger mode
# ----------------------------------------------------------------------


def _child(conn, workload, seed, profile, scale, repeats):
    """Child-process body: measure one workload, send the record home."""
    _exit_on_sigterm()
    sys.path.insert(0, str(SOURCE_DIR))
    from benchmarks.e2e.measure import measure

    with conn:
        conn.send(measure(
            workload, seed, profile, scale, repeats=repeats, traced=True
        ))


def _in_child(workload, seed, profile, scale, repeats):
    """Run one workload in a fresh interpreter; returns its record."""
    context = multiprocessing.get_context("spawn")
    receiver, sender = context.Pipe(duplex=False)
    proc = context.Process(
        target=_child, args=(sender, workload, seed, profile, scale, repeats)
    )
    proc.start()
    sender.close()
    try:
        if not receiver.poll(_CHILD_TIMEOUT):
            raise RuntimeError(
                f"{workload}: no result within {_CHILD_TIMEOUT:.0f}s"
            )
        return receiver.recv()
    except EOFError:
        proc.join()
        raise RuntimeError(
            f"{workload}: child exited with code {proc.exitcode} before "
            "reporting"
        ) from None
    finally:
        receiver.close()
        proc.join(10)
        if proc.is_alive():
            proc.terminate()  # SIGTERM: the child's finally blocks still run
            proc.join(15)
        if proc.is_alive():
            proc.kill()
            proc.join()


def _cross_executor_check(records):
    """``churn-inline`` and ``churn-socket`` must compute the same timeline
    on any seed; counted as one op of ``churn-socket``."""
    inline, remote = records[catalog.INLINE], records[catalog.SOCKET]
    remote["attempted"] += 1
    if inline["digest"] != remote["digest"] or remote["digest"] is None:
        remote["failed"] += 1
        remote["correct"] = False
        remote["errors"].append(
            "cross-executor: churn-socket digest "
            f"{remote['digest']} != churn-inline {inline['digest']}"
        )
    if remote["metrics"]:
        remote["metrics"]["failed_share"] = ledger.summarise(
            [remote["failed"] / remote["attempted"]], "ratio"
        )


def self_check(records):
    """``BENCHMARK.json`` <-> catalog <-> output, both ways; returns the
    list of disagreements (empty when everything lines up)."""
    problems = []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if declared != catalog.benchmark_json():
        problems.append(
            "BENCHMARK.json differs from catalog.benchmark_json()"
        )
    if len(catalog.BY_NAME) != len(catalog.METRICS):
        problems.append("a metric name is declared twice")
    for metric in catalog.METRICS:
        if not _NAME.match(metric.name) or len(metric.name) > 64:
            problems.append(f"{metric.name}: malformed name")
        if metric.kind != catalog.PER_LAYER or metric.moves == catalog.NONE_TODAY:
            continue
        if metric.moves is None:
            problems.append(f"{metric.name}: names no end-to-end metric")
            continue
        target, workloads = metric.moves
        moved = catalog.BY_NAME.get(target)
        if moved is None or moved.kind == catalog.PER_LAYER:
            problems.append(f"{metric.name}: moves unknown metric {target}")
        elif not set(workloads) <= set(moved.workloads):
            problems.append(
                f"{metric.name}: {target} is not defined on {workloads}"
            )
    for workload, record in records.items():
        want = set(catalog.names_for(
            workload, catalog.END_TO_END, catalog.WORKLOAD_E2E,
            catalog.PER_LAYER,
        ))
        got = set(record["metrics"])
        for name in sorted(want - got):
            problems.append(f"{workload}: declared {name} was not emitted")
        for name in sorted(got - want):
            problems.append(f"{workload}: emitted {name} is not declared")
        for name, summary in record["metrics"].items():
            if not math.isfinite(summary["value"]):
                problems.append(f"{workload}: {name} is not finite")
    return problems


def _ledger(args, profile):
    from benchmarks.e2e.workloads import sizes_for

    repeats = args.repeats if args.repeats is not None else (
        2 if args.smoke else 3
    )
    records = {}
    for workload in catalog.ALL:
        records[workload] = _in_child(
            workload, args.seed, profile, args.scale, repeats
        )
    _cross_executor_check(records)
    for workload, record in records.items():
        _print_record(workload, record)
    problems = self_check(records) if args.smoke else []
    for problem in problems:
        print(f"self-check: {problem}", file=sys.stderr)
    if args.out is not None:
        meta = ledger.host_meta(ROOT)
        meta.update({
            "seed": args.seed, "repeats": repeats, "profile": profile,
            "scale": args.scale, "sizes": sizes_for(profile, args.scale),
        })
        args.out.parent.mkdir(parents=True, exist_ok=True)
        ledger.write(args.out, meta, records)
    failed = [w for w, record in records.items() if not record["correct"]]
    print(
        f"{len(records) - len(failed)}/{len(records)} workloads correct"
        + (f"; failed: {', '.join(failed)}" if failed else "")
        + (f"; {len(problems)} self-check problem(s)" if problems else "")
    )
    return 1 if failed or problems else 0


def main(argv=None):
    """Entry point; returns the process exit code."""
    args = _parser().parse_args(argv)
    if args.repeats is not None and args.repeats < 2:
        raise SystemExit("--repeats must be at least 2")
    if not (SOURCE_DIR / "repro").is_dir():
        # No install step: the benchmark runs the program from the checkout
        # it sits in, and refuses to measure some other copy of it.
        print(f"no program source at {SOURCE_DIR}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE_DIR))
    _exit_on_sigterm()
    profile = "smoke" if args.smoke else "full"
    if args.workload is not None:
        return _contract(args, profile)
    return _ledger(args, profile)
