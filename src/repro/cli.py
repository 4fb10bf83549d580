"""Command-line interface: learn, inspect and query layouts through
the unified :class:`repro.db.Database` facade.

Subcommands
-----------

``build``
    Learn a layout for a saved table (see
    :func:`repro.storage.save_table`) from a file of SQL queries (one
    per line) with any registered layout strategy
    (``--strategy greedy|woodblock|kdtree|hash|range|random|bottom_up``
    — the registry in :mod:`repro.db.registry`), write the partitioned
    block store + layout metadata (and the qd-tree, for tree
    strategies) next to it.
``inspect``
    Print a saved layout's strategy, generation, block descriptions
    and (for tree layouts) cut histogram.
``route``
    Route one SQL query against a saved layout: prints the pruned BID
    list and scan statistics.
``serve-bench``
    Replay a SQL workload against a saved layout through the
    :mod:`repro.serve` serving tier (thread pool + buffer-pool cache +
    generation-keyed result cache) and print the
    latency/throughput/cache report.  ``--shards N`` serves through
    the scatter-gather :class:`ShardedLayoutService` (``--partition
    rr|subtree`` picks the shard assignment).  ``--compare`` also runs
    the serial uncached baseline — and, when sharded, the 1-shard
    service — and prints the QPS speedups.  ``--adapt`` serves through
    the drift-adaptive :class:`AdaptiveService` instead (needs a
    layout saved with ``build --include-table``).  Every topology
    reads through an LRU buffer pool.
``adapt-report``
    Replay a workload — optionally followed by a *drifted* second
    workload (``--drift-queries``) — through the adaptive serving
    tier and pretty-print the adaptation ledger: drift score, rebuild
    and swap counts, and per-event window costs.
``metrics-export``
    Replay a workload and print the unified metrics-registry export
    (Prometheus text exposition or JSON).

``serve-bench`` and ``adapt-report`` also take ``--json`` (one JSON
document on stdout, human report on stderr), ``--trace PREFIX``
(per-query + control-plane traces as ``PREFIX.jsonl`` and the
Perfetto-loadable ``PREFIX.trace.json``).

Example::

    python -m repro.cli build  --table t/ --queries wl.sql --out layout/
    python -m repro.cli build  --table t/ --queries wl.sql \
        --out layout-kd/ --strategy kdtree
    python -m repro.cli inspect --layout layout/
    python -m repro.cli route  --layout layout/ \
        --sql "SELECT * FROM t WHERE x < 10"
    python -m repro.cli serve-bench --layout layout/ \
        --threads 8 --repeat 20 --compare
    python -m repro.cli serve-bench --layout layout/ \
        --shards 4 --partition subtree --compare

Helpers raise :class:`ValueError` (so the same code paths are usable
as a library); :func:`main` converts them to exit code 2 at the top
level.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .adapt import AdaptPolicy
from .db import Database, get_strategy, strategy_names
from .exec import ResultCache
from .obs import MetricsRegistry, Tracer, plain
from .serve import run_serial_baseline
from .storage.catalog import load_table

__all__ = ["main"]


def _read_queries(path: Path) -> List[str]:
    statements = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("--"):
            statements.append(line)
    if not statements:
        raise ValueError(f"no queries found in {path}")
    return statements


def _strategy_options(args: argparse.Namespace) -> dict:
    """Map CLI flags onto the chosen strategy's adapter options."""
    if args.strategy == "woodblock":
        return {
            "episodes": args.episodes,
            "hidden_dim": args.hidden_dim,
            "seed": args.seed,
        }
    if args.strategy == "random":
        return {"seed": args.seed}
    return {}


def _replay_summary(replay) -> dict:
    """Machine-readable replay outcome of the --json document of
    serve-bench and adapt-report."""
    return {
        "issued": replay.issued,
        "completed": replay.completed,
        "rejected": replay.rejected,
        "wall_seconds": replay.wall_seconds,
        "qps": replay.qps,
    }


def _statements_for(args: argparse.Namespace, handle) -> List[str]:
    """The workload to replay: --queries file, else the layout's
    build workload."""
    if args.queries:
        return _read_queries(Path(args.queries))
    statements = list(handle.statements)
    if not statements:
        raise ValueError(
            "layout metadata has no build workload; pass --queries"
        )
    return statements


def _write_trace_exports(tracer: Tracer, prefix: str) -> dict:
    """Write PREFIX.jsonl + PREFIX.trace.json; returns a summary."""
    jsonl_path = f"{prefix}.jsonl"
    chrome_path = f"{prefix}.trace.json"
    traces = tracer.write_jsonl(jsonl_path)
    events = tracer.write_chrome_trace(chrome_path)
    return {
        "traces": traces,
        "events": events,
        "dropped": tracer.dropped,
        "jsonl": jsonl_path,
        "chrome": chrome_path,
    }


def _cmd_build(args: argparse.Namespace) -> int:
    # Validate against the live registry before any expensive work;
    # UnknownStrategyError is a ValueError listing the valid names, so
    # main() prints them to stderr and exits 2.
    get_strategy(args.strategy)
    table = load_table(args.table)
    db = Database.from_table(table, min_block_size=args.min_block_size)
    statements = _read_queries(Path(args.queries))
    workload = db.planner.plan_workload(statements)
    registry = db.planner.candidate_cuts(workload)
    print(
        f"planned {len(workload)} queries -> {len(registry)} candidate cuts "
        f"({registry.num_advanced_cuts} advanced)"
    )
    handle = db.build_layout(
        args.strategy,
        workload=statements,
        registry=registry,
        **_strategy_options(args),
    )
    if args.strategy == "woodblock" and handle.diagnostics is not None:
        result = handle.diagnostics
        print(
            f"trained {result.episodes_run} episodes; "
            f"best sample scan ratio {result.best_scan_ratio:.4f}"
        )
    out = Path(args.out)
    db.save(out, include_table=args.include_table)
    print(
        f"wrote {handle.store.num_blocks} blocks to {out}/ "
        f"({handle.strategy}, generation {handle.generation})"
    )
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    db = Database.open(Path(args.layout))
    handle = db.active_layout
    assert handle is not None
    store = handle.store
    header = (
        f"{store.num_blocks} blocks over {store.logical_rows} rows "
        f"({handle.strategy}, generation {handle.generation}"
    )
    if handle.tree is not None:
        header += f", tree depth {handle.tree.depth()})"
    else:
        header += ")"
    print(header)
    if handle.tree is not None:
        print("\ncut histogram:")
        for column, count in sorted(
            handle.tree.cut_histogram().items(), key=lambda kv: -kv[1]
        ):
            print(f"  {column:<20} {count}")
    print("\nblock descriptions:")
    sizes = {b.block_id: b.num_rows for b in store}
    descriptions = (
        handle.tree.leaf_descriptions() if handle.tree is not None else {}
    )
    for bid in sorted(sizes):
        description = descriptions.get(bid) or store.block(bid).description
        print(
            f"  block {bid} ({sizes[bid]} rows): "
            f"{description or '(no description)'}"
        )
    return 0


def _cmd_route(args: argparse.Namespace) -> int:
    db = Database.open(Path(args.layout))
    result = db.execute(args.sql)
    store = db.active_layout.store  # type: ignore[union-attr]
    if result.routed_block_ids is not None:
        print(
            f"routed to {len(result.routed_block_ids)}/{store.num_blocks} "
            f"blocks in {1000 * result.latency_seconds:.2f} ms"
        )
        print(
            "BID IN ("
            + ",".join(str(b) for b in result.routed_block_ids)
            + ")"
        )
    else:
        print(
            f"no tree to route with; SMA pruning considered "
            f"{store.num_blocks} blocks "
            f"in {1000 * result.latency_seconds:.2f} ms"
        )
    print(
        f"scanned {result.stats.tuples_scanned} tuples, "
        f"returned {result.stats.rows_returned} rows"
    )
    return 0


def _emit_exports(args, info, tracer, command, snapshot, replay, extra) -> None:
    """The shared tail of ``serve-bench`` and ``adapt-report``: trace
    exports (``--trace``) and the one-document stdout (``--json``)."""
    if tracer is not None:
        summary = _write_trace_exports(tracer, args.trace)
        print(
            f"wrote {summary['traces']} traces to "
            f"{summary['jsonl']} and {summary['events']} "
            f"events to {summary['chrome']} (Perfetto-loadable)",
            file=info,
        )
        extra["trace"] = summary
    if args.json:
        import json as _json

        document = {
            "command": command,
            "scenario": args.scenario,
            "replay": _replay_summary(replay),
            "metrics": plain(snapshot),
            "extra": plain(extra),
        }
        print(_json.dumps(document, indent=2, sort_keys=True))


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    db = Database.open(Path(args.layout))
    handle = db.active_layout
    assert handle is not None
    statements = _statements_for(args, handle)
    cache_bytes = None if args.no_cache else args.cache_mb * 1024 * 1024
    use_result_cache = not args.no_result_cache
    tracer = Tracer() if args.trace else None
    # With --json, stdout carries exactly one JSON document; everything
    # human-facing moves to stderr.
    info = sys.stderr if args.json else sys.stdout

    def replay_service(service):
        if args.mode == "open":
            replay = service.run_open_loop(
                statements, target_qps=args.target_qps, repeat=args.repeat
            )
        else:
            replay = service.run_closed_loop(statements, repeat=args.repeat)
        return replay, service.report()

    def serve(shards: int, traced: bool = True):
        active_tracer = tracer if traced else None
        if args.adapt:
            if shards != 1:
                raise ValueError(
                    "--adapt serves a single adaptive service; "
                    "drop --shards"
                )
            return db.auto_adapt(
                cache_budget_bytes=cache_bytes,
                max_workers=args.threads,
                queue_depth=args.queue_depth,
                result_cache=(
                    ResultCache() if use_result_cache else False
                ),
                tracer=active_tracer,
            )
        # Comparison runs get a private result cache so one replay
        # cannot pre-warm another's results.
        return db.serve(
            shards=shards,
            partition=args.partition,
            cache_budget_bytes=cache_bytes,
            max_workers=args.threads,
            queue_depth=args.queue_depth,
            result_cache=ResultCache() if use_result_cache else False,
            tracer=active_tracer,
        )

    with serve(args.shards) as service:
        replay, report = replay_service(service)
    print(
        f"replayed {replay.completed}/{replay.issued} queries "
        f"({replay.rejected} rejected) in {replay.wall_seconds:.3f} s "
        f"-> {replay.qps:.1f} qps",
        file=info,
    )
    print(report, file=info)
    compare: dict = {}
    if args.compare:
        if args.shards > 1:
            with serve(1, traced=False) as single:
                one_shard, _ = replay_service(single)
            ratio = (
                replay.qps / one_shard.qps if one_shard.qps > 0 else float("inf")
            )
            compare["one_shard_qps"] = one_shard.qps
            compare["shard_speedup"] = ratio
            print(f"\n1-shard service: {one_shard.qps:.1f} qps", file=info)
            print(
                f"sharded ({args.shards} shards) speedup: {ratio:.2f}x",
                file=info,
            )
        base_qps, _ = run_serial_baseline(
            handle.store,
            handle.tree,
            statements,
            repeat=args.repeat,
            planner=db.planner,
            num_advanced_cuts=handle.num_advanced_cuts,
        )
        speedup = replay.qps / base_qps if base_qps > 0 else float("inf")
        compare["serial_qps"] = base_qps
        compare["serving_speedup"] = speedup
        print(f"\nserial uncached baseline: {base_qps:.1f} qps", file=info)
        print(f"serving speedup: {speedup:.2f}x", file=info)
    extra = {"shards": args.shards, "mode": args.mode}
    if compare:
        extra["compare"] = compare
    _emit_exports(
        args, info, tracer, "serve-bench", replay.snapshot, replay, extra
    )
    return 0


def _cmd_adapt_report(args: argparse.Namespace) -> int:
    db = Database.open(Path(args.layout))
    handle = db.active_layout
    assert handle is not None
    statements = _statements_for(args, handle)
    drifted = (
        _read_queries(Path(args.drift_queries))
        if args.drift_queries
        else []
    )
    tracer = Tracer() if args.trace else None
    info = sys.stderr if args.json else sys.stdout
    policy = AdaptPolicy(
        window=args.window,
        threshold=args.threshold,
        min_records=min(args.window, max(8, args.window // 4)),
        check_every=max(1, args.window // 8),
        min_improvement=args.min_improvement,
        strategy=args.strategy,
    )
    second = None
    with db.auto_adapt(
        policy=policy,
        max_workers=args.threads,
        tracer=tracer,
    ) as service:
        first = service.run_closed_loop(statements, repeat=args.repeat)
        print(
            f"replayed {first.completed} baseline queries on "
            f"generation {service.generation} "
            f"(drift {service.detector.last_score:.3f})",
            file=info,
        )
        if drifted:
            second = service.run_closed_loop(drifted, repeat=args.repeat)
            print(
                f"replayed {second.completed} drifted queries "
                f"-> drift {service.detector.last_score:.3f}, "
                f"now serving generation {service.generation}",
                file=info,
            )
        print(file=info)
        print(service.report(), file=info)
        final_snapshot = service.snapshot()
        final_generation = service.generation
        final_drift = service.detector.last_score
    extra = {
        "generation": final_generation,
        "drift_score": final_drift,
        "baseline": _replay_summary(first),
    }
    if second is not None:
        extra["drifted"] = _replay_summary(second)
    _emit_exports(
        args,
        info,
        tracer,
        "adapt-report",
        final_snapshot,
        second if second is not None else first,
        extra,
    )
    return 0


def _cmd_metrics_export(args: argparse.Namespace) -> int:
    """Replay a workload, publish every serving component into one
    :class:`MetricsRegistry`, and print the export."""
    db = Database.open(Path(args.layout))
    handle = db.active_layout
    assert handle is not None
    statements = _statements_for(args, handle)
    registry = MetricsRegistry()
    with db.serve(
        shards=args.shards,
        max_workers=args.threads,
        result_cache=ResultCache(),
    ) as service:
        service.run_closed_loop(statements, repeat=args.repeat)
        service.publish_metrics(registry, service="cli")
        if args.format == "prometheus":
            print(registry.to_prometheus_text(), end="")
        else:
            import json as _json

            print(_json.dumps(registry.to_json(), indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="learn a layout from SQL queries")
    p_build.add_argument("--table", required=True,
                         help="directory written by save_table()")
    p_build.add_argument("--queries", required=True,
                         help="file of SQL statements, one per line")
    p_build.add_argument("--out", required=True, help="output directory")
    # Validated against the live registry in _cmd_build, NOT through
    # argparse ``choices``: strategies registered after parser
    # construction are accepted, and a typo reports the registry's
    # current names on stderr with exit code 2.
    p_build.add_argument("--strategy", default="greedy", metavar="STRATEGY",
                         help="registered layout strategy: "
                              + ", ".join(strategy_names()))
    p_build.add_argument("--min-block-size", type=int, default=1000)
    p_build.add_argument("--include-table", action="store_true",
                         help="also persist the logical table so the "
                              "reopened layout can ingest and "
                              "auto-adapt (adapt-report, "
                              "serve-bench --adapt)")
    p_build.add_argument("--episodes", type=int, default=100,
                         help="woodblock: training episodes")
    p_build.add_argument("--hidden-dim", type=int, default=128,
                         help="woodblock: policy network width")
    p_build.add_argument("--seed", type=int, default=0,
                         help="woodblock/random: RNG seed")
    p_build.set_defaults(func=_cmd_build)

    p_inspect = sub.add_parser("inspect", help="describe a saved layout")
    p_inspect.add_argument("--layout", required=True)
    p_inspect.set_defaults(func=_cmd_inspect)

    p_route = sub.add_parser("route", help="route a SQL query")
    p_route.add_argument("--layout", required=True)
    p_route.add_argument("--sql", required=True)
    p_route.set_defaults(func=_cmd_route)

    p_serve = sub.add_parser(
        "serve-bench", help="replay a workload through the serving tier"
    )
    p_serve.add_argument("--layout", required=True)
    p_serve.add_argument("--queries",
                         help="SQL file to replay (default: the layout's "
                              "build workload)")
    p_serve.add_argument("--threads", type=int, default=4)
    p_serve.add_argument("--repeat", type=int, default=10,
                         help="times the statement list is replayed")
    p_serve.add_argument("--cache-mb", type=int, default=64,
                         help="buffer-pool budget in MiB")
    p_serve.add_argument("--no-cache", action="store_true",
                         help="disable the buffer pool")
    p_serve.add_argument("--no-result-cache", action="store_true",
                         help="disable the generation-keyed result cache")
    p_serve.add_argument("--shards", type=int, default=1,
                         help="shard count; > 1 serves through the "
                              "scatter-gather ShardedLayoutService "
                              "(--threads workers per shard)")
    p_serve.add_argument("--partition", choices=("rr", "subtree"),
                         default="rr",
                         help="shard partition strategy: round-robin "
                              "by BID, or contiguous qd-tree subtrees")
    p_serve.add_argument("--queue-depth", type=int, default=64)
    p_serve.add_argument("--mode", choices=("closed", "open"),
                         default="closed")
    p_serve.add_argument("--target-qps", type=float, default=1000.0,
                         help="arrival rate for --mode open")
    p_serve.add_argument("--compare", action="store_true",
                         help="also run the serial uncached baseline "
                              "and print the speedup")
    p_serve.add_argument("--adapt", action="store_true",
                         help="serve through the drift-adaptive "
                              "AdaptiveService (layout must be saved "
                              "with build --include-table)")
    p_serve.add_argument("--json", action="store_true",
                         help="print one JSON document to stdout "
                              "(human report moves to stderr)")
    p_serve.add_argument("--trace", metavar="PREFIX",
                         help="record per-query traces; writes "
                              "PREFIX.jsonl and PREFIX.trace.json "
                              "(Chrome trace-event / Perfetto format)")
    p_serve.add_argument("--scenario", default="serve",
                         help="label of the --json document")
    p_serve.set_defaults(func=_cmd_serve_bench)

    p_adapt = sub.add_parser(
        "adapt-report",
        help="replay a (drifting) workload adaptively and print the "
             "drift/swap ledger",
    )
    p_adapt.add_argument("--layout", required=True,
                         help="layout directory saved with "
                              "build --include-table")
    p_adapt.add_argument("--queries",
                         help="baseline SQL file (default: the "
                              "layout's build workload)")
    p_adapt.add_argument("--drift-queries",
                         help="SQL file replayed after the baseline "
                              "to exercise the drift loop")
    p_adapt.add_argument("--repeat", type=int, default=10)
    p_adapt.add_argument("--threads", type=int, default=4)
    p_adapt.add_argument("--window", type=int, default=128,
                         help="drift window (records)")
    p_adapt.add_argument("--threshold", type=float, default=0.3,
                         help="drift score arming a rebuild")
    p_adapt.add_argument("--min-improvement", type=float, default=0.1,
                         help="window blocks-scanned margin a "
                              "candidate must win by")
    p_adapt.add_argument("--strategy", default="greedy",
                         help="rebuild strategy (any registered name)")
    p_adapt.add_argument("--json", action="store_true",
                         help="print one JSON document to stdout "
                              "(human report moves to stderr)")
    p_adapt.add_argument("--trace", metavar="PREFIX",
                         help="record query + control-plane traces; "
                              "writes PREFIX.jsonl and "
                              "PREFIX.trace.json")
    p_adapt.add_argument("--scenario", default="adapt",
                         help="label of the --json document")
    p_adapt.set_defaults(func=_cmd_adapt_report)

    p_metrics = sub.add_parser(
        "metrics-export",
        help="replay a workload and print the unified metrics-registry "
             "export (Prometheus text or JSON)",
    )
    p_metrics.add_argument("--layout", required=True)
    p_metrics.add_argument("--queries",
                           help="SQL file to replay (default: the "
                                "layout's build workload)")
    p_metrics.add_argument("--repeat", type=int, default=5)
    p_metrics.add_argument("--threads", type=int, default=4)
    p_metrics.add_argument("--shards", type=int, default=1)
    p_metrics.add_argument("--format", choices=("prometheus", "json"),
                           default="prometheus")
    p_metrics.set_defaults(func=_cmd_metrics_export)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        # Library-level errors (bad workload files, unknown strategies
        # registered after parser construction, facade misuse) become
        # exit codes here, not SystemExit deep in helpers.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
