"""Command-line interface: ``python -m repro <command>``.

Gives downstream users the paper's workflow without writing code:

* ``partition`` — read an edge list, run initial + adaptive partitioning,
  save the assignment, print quality metrics;
* ``watch`` — like ``partition`` on a generated mesh, but render the
  evolving 2-D slice as text frames (the paper's video, offline);
* ``scenario`` — replay a named dynamic scenario (churning graph) and print
  its per-round timeline; ``--static`` runs the paired static-hash cluster,
  ``--engine pregel`` replays through the sharded cluster simulation (with
  ``--executor inline|process|socket`` selecting where shards run and
  ``--staleness N`` relaxing the capacity-resync cadence), ``--spec file``
  loads a user JSON/TOML scenario instead of a catalog name;
* ``datasets`` — print the Table-1 catalog;
* ``generate`` — write a synthetic dataset to an edge-list file;
* ``worker`` — serve shards over TCP to a ``--executor socket`` run on
  another host (``--executor process`` spawns its own on this one):
  ``repro worker --listen HOST:PORT`` prints the bound address and speaks
  the persistent-worker wire protocol until its session count is exhausted.
"""

import argparse
import contextlib
import json
import os
import sys

from repro.analysis import format_table
from repro.cluster import EXECUTORS, WorkerServer, make_executor
from repro.cluster.worker import parse_address
from repro.core import AdaptiveConfig, AdaptiveRunner
from repro.datasets import CATALOG, build_dataset, dataset_names
from repro.generators import mesh_3d
from repro.io import read_edgelist, save_partition, write_edgelist
from repro.partitioning import balanced_capacities, make_partitioner
from repro.scenarios import (
    ENGINES,
    SCENARIOS,
    get_scenario,
    load_scenario,
    play_scenario,
    scaled,
)
from repro.viz import partition_histogram, render_mesh_slice

__all__ = ["build_parser", "main"]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Adaptive partitioning for large-scale dynamic graphs "
        "(Vaquero et al., ICDCS 2014 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="partition an edge-list file")
    p.add_argument("edgelist", help="path to a SNAP-style edge list")
    p.add_argument("-k", "--partitions", type=int, default=9)
    p.add_argument("-s", "--willingness", type=float, default=0.5)
    p.add_argument("--strategy", default="HSH", choices=["HSH", "RND", "DGR", "MNN", "METIS"])
    p.add_argument("--slack", type=float, default=1.10,
                   help="capacity as a multiple of the balanced load")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iterations", type=int, default=1000)
    p.add_argument("-o", "--output", help="save the final assignment here")

    w = sub.add_parser("watch", help="watch a mesh slice repartition itself")
    w.add_argument("--side", type=int, default=12, help="mesh side length")
    w.add_argument("-k", "--partitions", type=int, default=9)
    w.add_argument("--frames", type=int, default=6)
    w.add_argument("--iterations-per-frame", type=int, default=10)
    w.add_argument("--seed", type=int, default=0)

    # No prefix matching: the retired --metrics must not parse as --metrics-json.
    sc = sub.add_parser(
        "scenario", help="replay a named dynamic scenario round by round",
        allow_abbrev=False,
    )
    sc.add_argument("name", nargs="?", help="catalog name (see --list)")
    sc.add_argument("--list", action="store_true", dest="list_scenarios",
                    help="print the scenario catalog and exit")
    sc.add_argument("--spec", default=None,
                    help="load the scenario from a JSON/TOML spec file "
                    "instead of the catalog")
    sc.add_argument("--engine", default="adaptive", choices=sorted(ENGINES),
                    help="adaptive = logical round loop; pregel = sharded "
                    "distributed simulation (messages + migration protocol)")
    sc.add_argument("--executor", default=None, choices=sorted(EXECUTORS),
                    help="pregel engine only: where shard compute runs "
                    "(default inline; process spawns local `repro worker`s, "
                    "socket reads theirs from REPRO_SOCKET_WORKERS)")
    sc.add_argument("--workers", type=int, default=None,
                    help="worker count for --executor process/socket "
                    "(>= 1)")
    sc.add_argument("--staleness", type=int, default=None,
                    help="pregel engine only: relaxed synchrony — reuse "
                    "each decision snapshot for up to N extra supersteps "
                    "between capacity resyncs (default 0 = strict BSP)")
    sc.add_argument("--static", action="store_true",
                    help="no adaptation: the paper's static-hash paired cluster")
    sc.add_argument("--audit", action="store_true",
                    help="run every invariant check after each round")
    sc.add_argument("--seed", type=int, default=None,
                    help="override the scenario's seed")
    sc.add_argument("--max-rounds", type=int, default=None)
    sc.add_argument("--json", dest="json_out",
                    help="write the exact per-round digest to this file")
    sc.add_argument("--trace", default=None, metavar="FILE",
                    help="pregel engine only: record phase spans and write "
                    "them here (.jsonl = span rows, anything else = Chrome "
                    "trace JSON loadable in Perfetto); never changes "
                    "results")
    sc.add_argument("--show-metrics", action="store_true",
                    help="pregel engine only: print the metrics-registry "
                    "snapshot (phase seconds, executor byte counters) "
                    "after the timeline")
    sc.add_argument("--metrics-json", default=None, metavar="FILE",
                    help="pregel engine only: write the metrics-registry "
                    "snapshot to this file as JSON")

    sub.add_parser("datasets", help="print the Table-1 dataset catalog")

    g = sub.add_parser("generate", help="write a synthetic dataset")
    g.add_argument("name", help=f"one of {', '.join(dataset_names())}")
    g.add_argument("output", help="edge-list file to write")
    g.add_argument("--scale", type=float, default=1.0)
    g.add_argument("--max-vertices", type=int, default=100000)
    g.add_argument("--seed", type=int, default=0)

    wk = sub.add_parser(
        "worker", help="serve shards over TCP to a socket/process-executor run"
    )
    wk.add_argument("--listen", required=True, metavar="HOST:PORT",
                    help="address to bind (port 0 = pick an ephemeral "
                    "port; the bound address is printed)")
    wk.add_argument("--sessions", type=int, default=1,
                    help="coordinator sessions to serve before exiting "
                    "(0 = serve forever)")
    return parser


def _cmd_partition(args, out):
    graph = read_edgelist(args.edgelist)
    out.write(f"loaded {graph}\n")
    caps = balanced_capacities(graph.num_vertices, args.partitions, args.slack)
    state = make_partitioner(args.strategy, seed=args.seed).partition(
        graph, args.partitions, list(caps)
    )
    out.write(f"{args.strategy} initial cut ratio: {state.cut_ratio():.4f}\n")
    if args.strategy != "METIS":
        runner = AdaptiveRunner(
            graph,
            state,
            AdaptiveConfig(willingness=args.willingness, seed=args.seed),
        )
        runner.run_until_convergence(max_iterations=args.max_iterations)
        out.write(f"adaptive cut ratio:    {state.cut_ratio():.4f}\n")
        out.write(f"convergence time:      {runner.convergence_time}\n")
    out.write(f"imbalance:             {state.imbalance():.3f}\n")
    out.write(partition_histogram(state) + "\n")
    if args.output:
        save_partition(state, args.output)
        out.write(f"assignment saved to {args.output}\n")
    return 0


def _cmd_watch(args, out):
    side = args.side
    graph = mesh_3d(side)
    caps = balanced_capacities(graph.num_vertices, args.partitions)
    state = make_partitioner("HSH").partition(
        graph, args.partitions, list(caps)
    )
    runner = AdaptiveRunner(graph, state, AdaptiveConfig(seed=args.seed))
    for frame in range(args.frames):
        out.write(
            f"\n-- frame {frame}: iteration {runner.iteration}, "
            f"cut ratio {state.cut_ratio():.3f} --\n"
        )
        out.write(render_mesh_slice(state, side, side, side) + "\n")
        for _ in range(args.iterations_per_frame):
            runner.step()
    out.write(
        f"\nfinal: iteration {runner.iteration}, "
        f"cut ratio {state.cut_ratio():.3f}\n"
    )
    return 0


def _cmd_scenario(args, out):
    if args.list_scenarios or not (args.name or args.spec):
        rows = [
            [s.name, s.regime, s.num_partitions, s.description]
            for s in sorted(SCENARIOS.values(), key=lambda s: s.name)
        ]
        out.write(
            format_table(
                ["name", "regime", "k", "description"], rows,
                title="Dynamic scenario catalog",
            )
            + "\n"
        )
        if not (args.name or args.spec):
            return 0 if args.list_scenarios else 2
        return 0
    if args.engine != "pregel" and (
        args.executor is not None
        or args.workers is not None
        or args.staleness is not None
        or args.trace is not None
        or args.show_metrics
        or args.metrics_json is not None
    ):
        out.write(
            "--executor/--workers/--staleness/--trace/"
            "--show-metrics/--metrics-json only apply to --engine pregel "
            "(the adaptive engine has no shard executors or phase "
            "instrumentation)\n"
        )
        return 2
    if args.staleness is not None and args.staleness < 0:
        out.write("--staleness must be >= 0\n")
        return 2
    if args.workers is not None and args.executor in (None, "inline"):
        out.write(
            "--workers needs a parallel executor: add "
            "--executor process or socket\n"
        )
        return 2
    if args.workers is not None and args.workers < 1:
        out.write("--workers must be >= 1\n")
        return 2
    if args.max_rounds is not None and args.max_rounds < 0:
        out.write("--max-rounds must be >= 0\n")
        return 2
    if args.executor == "socket" and not os.environ.get(
        "REPRO_SOCKET_WORKERS"
    ):
        out.write(
            "--executor socket needs worker addresses: set "
            "REPRO_SOCKET_WORKERS=host:port,... (start workers with "
            "`repro worker --listen host:port`)\n"
        )
        return 2
    if args.spec is not None and args.name is not None:
        out.write(
            f"got both a catalog name ({args.name!r}) and --spec "
            f"({args.spec!r}); pass one or the other\n"
        )
        return 2
    try:
        # ValueError covers JSON/TOML decode errors and unknown names.
        if args.spec is not None:
            scenario = load_scenario(args.spec)
        else:
            scenario = get_scenario(args.name)
    except (OSError, ValueError) as exc:
        out.write(f"cannot load scenario: {exc}\n")
        return 2
    if args.seed is not None:
        scenario = scaled(scenario, seed=args.seed)
    # Context-managed executor: worker processes stop on every exit path
    # (including a scenario that raises before or during replay).  The
    # adaptive engine has no executor; nullcontext keeps one call site.
    executor_cm = (
        make_executor(args.executor, args.workers)
        if args.engine == "pregel"
        else contextlib.nullcontext()
    )
    with executor_cm as executor:
        result = play_scenario(
            scenario,
            adaptive=not args.static,
            audit=args.audit,
            max_rounds=args.max_rounds,
            engine=args.engine,
            executor=executor,
            staleness=args.staleness or 0,
            trace=args.trace,
        )
    engine_label = args.engine
    if args.engine == "pregel":
        engine_label += f" ({args.executor or 'inline'} executor)"
    out.write(
        f"{scenario.name} [{scenario.regime}], {engine_label} engine, "
        f"{'static hash' if args.static else 'adaptive'}, "
        f"k={scenario.num_partitions}, seed={scenario.seed}\n"
    )
    if not result.rounds:
        out.write("no rounds executed (empty stream or --max-rounds 0)\n")
        if args.json_out:
            with open(args.json_out, "w", encoding="utf-8") as fh:
                json.dump(result.digest(), fh, indent=2, sort_keys=True)
            out.write(f"digest written to {args.json_out}\n")
        _write_observability(args, result, out)
        return 0
    rows = [
        [r.round, r.events, r.changed, r.migrations, r.num_vertices,
         r.num_edges, f"{r.cut_ratio:.4f}", f"{r.imbalance:.3f}",
         f"{r.quiet_iterations}{'*' if r.converged else ''}",
         f"{r.superstep_cost:.1f}"]
        for r in result.rounds
    ]
    stride = max(1, len(rows) // 24)
    sampled = rows[::stride]
    if rows and sampled[-1] is not rows[-1]:
        sampled.append(rows[-1])
    out.write(
        format_table(
            ["round", "events", "changed", "migr", "|V|", "|E|",
             "cut_ratio", "imbal", "quiet", "cost"],
            sampled,
            title="per-round timeline (quiet: window fill, * = converged)",
        )
        + "\n"
    )
    out.write(
        f"final cut ratio:  {result.final_cut_ratio():.4f}\n"
        f"peak cut ratio:   {result.peak_cut_ratio():.4f}\n"
        f"total migrations: {result.total_migrations()}\n"
        f"modelled cost:    {result.total_cost():.1f}\n"
    )
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(result.digest(), fh, indent=2, sort_keys=True)
        out.write(f"digest written to {args.json_out}\n")
    _write_observability(args, result, out)
    return 0


def _write_observability(args, result, out):
    """Emit the scenario run's trace/metrics artefacts (pregel engine)."""
    if args.trace:
        spans = len(result.tracer.spans) if result.tracer else 0
        out.write(f"trace written to {args.trace} ({spans} spans)\n")
    registry = result.metrics_registry
    if registry is None:
        return
    if args.show_metrics:
        out.write("\nmetrics snapshot:\n")
        out.write(registry.render_text() + "\n")
    if args.metrics_json:
        with open(args.metrics_json, "w", encoding="utf-8") as fh:
            json.dump(registry.snapshot(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        out.write(f"metrics written to {args.metrics_json}\n")


def _cmd_datasets(out):
    rows = [
        [spec.name, spec.paper_vertices, spec.paper_edges, spec.family,
         spec.source]
        for spec in CATALOG.values()
    ]
    out.write(
        format_table(
            ["name", "|V|", "|E|", "type", "paper source"], rows,
            title="Table 1 datasets",
        )
        + "\n"
    )
    return 0


def _cmd_generate(args, out):
    graph = build_dataset(
        args.name, scale=args.scale, seed=args.seed,
        max_vertices=args.max_vertices,
    )
    write_edgelist(graph, args.output)
    out.write(f"wrote {graph} to {args.output}\n")
    return 0


def _cmd_worker(args, out):
    if args.sessions < 0:
        out.write("--sessions must be >= 0\n")
        return 2
    host, port = parse_address(args.listen)
    server = WorkerServer(host, port)
    bound_host, bound_port = server.address
    # The bound address goes out first and flushed: harnesses that bind
    # port 0 parse this line to learn where the worker actually listens.
    out.write(f"repro worker listening on {bound_host}:{bound_port}\n")
    with contextlib.suppress(AttributeError):  # plain buffers in tests
        out.flush()
    try:
        served = server.serve(args.sessions)
    finally:
        server.close()
    out.write(f"served {served} session(s)\n")
    return 0


def main(argv=None, out=None):
    """CLI entry point; returns the process exit code."""
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    if args.command == "partition":
        return _cmd_partition(args, out)
    if args.command == "watch":
        return _cmd_watch(args, out)
    if args.command == "scenario":
        return _cmd_scenario(args, out)
    if args.command == "datasets":
        return _cmd_datasets(out)
    if args.command == "generate":
        return _cmd_generate(args, out)
    if args.command == "worker":
        return _cmd_worker(args, out)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
