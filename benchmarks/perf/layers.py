"""The traced pass: per-layer metrics for one prepared workload.

Three sources, all timed from outside the program:

* **stage spans and counts** of this workload's own traffic — two
  repeats interleaved in one closed loop, one through the service (the
  reference the tracing overhead is measured against) and one through
  a walk of the pipeline stages (``spans.TracedWalk``);
* **stats objects** the services expose (result cache, buffer pool,
  scheduler), read before and after that traffic;
* **probes** (``probes.py``) and the build / ingest / persist spans,
  which time the public calls ``build_layout``, ``ingest`` and
  ``save`` are made of.  These run on the 60 000-row build fixture in
  every workload, so their numbers compare across workloads.
"""

from __future__ import annotations

import gc
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import bench
import workloads as W
from probes import guarded, run_probes
from spans import SCATTER_LAYER, SpanRecorder, TracedWalk

STAGE_SPAN_METRICS = {
    "sql.plan.us_per_query": "sql.plan",
    "core.route.us_per_query": "core.route",
    "engine.prune.us_per_query": "engine.prune",
    "exec.result_cache.us_per_query": "exec.result_cache",
    "engine.scan.us_per_query": "engine.scan",
    "serve.shard.scatter_us_per_query": SCATTER_LAYER,
    "exec.merge.us_per_query": "exec.merge",
}


BUILD_METRICS = (
    "core.greedy.build_tree_s",
    "core.tree.freeze_s",
    "storage.blocks.materialize_s",
    "core.tree.leaves",
    "core.ingest.route_rows_per_s",
    "db.ingest.merge_s",
    "db.ingest.rows_per_s",
    "storage.catalog.save_s",
    "db.open_s",
    "storage.catalog.disk_bytes_per_row",
)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def traced_pass(
    prepared: bench.Prepared,
    scale: W.Scale,
    recorder: SpanRecorder,
    scratch: Path,
) -> Tuple[Dict[str, Optional[float]], List[bench.Reply]]:
    """Per-layer metrics, and the replies of both repeats so the
    caller can verify them like any measured reply."""
    service = prepared.service
    walk = TracedWalk(service, recorder)
    if prepared.clients > 1:
        # keep the coordinator's scheduler hand-off in the traced path,
        # as ``submit_sql`` has it in the untraced one
        def traced_call(sql: str):
            return service.scheduler.submit(walk, sql).result()

    else:
        traced_call = walk

    result_cache = service.result_cache
    rc_before = result_cache.stats() if result_cache is not None else None
    pool_before = service.snapshot().cache

    # Two repeats interleaved, the first through the service and the
    # second through the traced walk: both paths then see the same
    # machine and the same stratified mix, so they differ by the tracing.
    streams = [
        [sql for pair in zip(first, second) for sql in pair]
        for first, second in zip(prepared.next_repeat(), prepared.next_repeat())
    ]
    gc.collect()
    both = bench.closed_loop([prepared.call, traced_call], streams)
    untraced = [r for r in both.replies if r.via == 0]
    traced = [r for r in both.replies if r.via == 1]

    out: Dict[str, Optional[float]] = {}
    counts = walk.counts
    queries = counts["queries"]
    span_s = recorder.seconds_by_name()
    for metric, layer in STAGE_SPAN_METRICS.items():
        out[metric] = _ratio(span_s.get(layer, 0.0), queries) * 1e6
    out["core.route.blocks_routed_per_query"] = _ratio(counts["routed"], queries)
    out["engine.prune.survivor_frac"] = _ratio(
        counts["survivors"], counts["routed_executed"]
    )
    scan_s = span_s.get("engine.scan", 0.0) + span_s.get(SCATTER_LAYER, 0.0)
    out["engine.scan.tuples_per_s"] = _ratio(counts["tuples_executed"], scan_s)
    out["serve.shard.fanout_mean"] = _ratio(
        counts["fanout"], counts["scattered"]
    )

    if result_cache is not None:
        rc = result_cache.stats().since(rc_before)
        out["exec.result_cache.hit_frac"] = rc.hit_rate
        out["exec.result_cache.evictions"] = float(rc.evictions)
    else:
        out["exec.result_cache.hit_frac"] = 0.0
        out["exec.result_cache.evictions"] = 0.0
    pool = service.snapshot().cache.since(pool_before)
    out["serve.block_cache.hit_frac"] = pool.hit_rate
    out["serve.block_cache.evictions"] = float(pool.evictions)
    out["serve.block_cache.decoded_mb"] = pool.decoded_bytes / 1e6
    out["serve.scheduler.shed"] = float(service.scheduler.stats().rejected)

    # The harness against itself and against the program's own clock.
    n_untraced = len(untraced)
    untraced_mean = sum(r.seconds for r in untraced) / n_untraced
    traced_mean = sum(r.seconds for r in traced) / len(traced)
    stage_names = {stage.name for stage in walk.stages}
    spans_per_query = sum(
        span_s.get(layer, 0.0) for layer in set(walk.layers)
    ) / queries
    program_per_query = (
        sum(
            seconds
            for reply in untraced
            if reply.stage_seconds
            for name, seconds in reply.stage_seconds.items()
            if name in stage_names
        )
        / n_untraced
    )
    out["exec.pipeline.overhead_us_per_query"] = (
        untraced_mean - spans_per_query
    ) * 1e6
    out["bench.trace.overhead_frac"] = (traced_mean - untraced_mean) / untraced_mean
    out["bench.stage_seconds_gap_frac"] = _ratio(
        abs(spans_per_query - program_per_query), program_per_query
    )

    probe_sql = W.draw(64, np.random.default_rng(4321), set(prepared.issued))
    out.update(run_probes(prepared.db, probe_sql, scale.probe_seconds))
    out.update(
        guarded(
            BUILD_METRICS, build_ingest_persist, prepared, scale, recorder, scratch
        )
    )
    return out, both.replies


def build_ingest_persist(
    prepared: bench.Prepared,
    scale: W.Scale,
    recorder: SpanRecorder,
    scratch: Path,
) -> Dict[str, float]:
    """Spans around the public calls ``build_layout`` / ``ingest`` /
    ``save`` / ``open`` are made of, on the build fixture."""
    from repro.core.greedy import GreedyConfig, build_greedy_tree
    from repro.core.ingest import IngestionPipeline
    from repro.db import Database
    from repro.storage.blocks import BlockStore
    from repro.workloads.tpch import generate_table

    table = generate_table(scale.build_rows, seed=0)
    planner = Database.from_table(table).planner
    planned = planner.plan_workload(list(prepared.train_sql))
    registry = planner.candidate_cuts(planned)
    trace_id = recorder.new_id()
    with recorder.span("db.build_layout", trace_id) as root:
        with recorder.span("core.greedy.build_tree", trace_id, root):
            tree = build_greedy_tree(
                table.schema,
                registry,
                table,
                planned,
                GreedyConfig(min_leaf_size=scale.build_min_block_size),
            )
        with recorder.span("core.tree.freeze", trace_id, root):
            bids = tree.freeze(table)
        with recorder.span("storage.blocks.materialize", trace_id, root):
            BlockStore.from_assignment(
                table, bids, descriptions=tree.leaf_descriptions()
            )

    db, _ = bench.build(
        scale.build_rows, scale.build_min_block_size, prepared.train_sql
    )
    batch = generate_table(scale.ingest_rows, seed=7)
    trace_id = recorder.new_id()
    with recorder.span("ingest", trace_id) as root:
        # the routing half of ``db.ingest``, called once more on its own
        with recorder.span("core.ingest.route", trace_id, root):
            IngestionPipeline(db.active_layout.tree).route(batch)
        with recorder.span("db.ingest", trace_id, root):
            db.ingest(batch)

    target = scratch / "layout"
    trace_id = recorder.new_id()
    with recorder.span("storage.catalog.save", trace_id):
        db.save(target)
    disk_bytes = sum(f.stat().st_size for f in target.rglob("*") if f.is_file())
    with recorder.span("db.open", trace_id):
        Database.open(target)

    span_s = recorder.seconds_by_name()
    route_s = span_s["core.ingest.route"]
    ingest_s = span_s["db.ingest"]
    return {
        "core.greedy.build_tree_s": span_s["core.greedy.build_tree"],
        "core.tree.freeze_s": span_s["core.tree.freeze"],
        "storage.blocks.materialize_s": span_s["storage.blocks.materialize"],
        "core.tree.leaves": float(len(tree.leaves())),
        "core.ingest.route_rows_per_s": batch.num_rows / route_s,
        "db.ingest.merge_s": ingest_s - route_s,
        "db.ingest.rows_per_s": batch.num_rows / ingest_s,
        "storage.catalog.save_s": span_s["storage.catalog.save"],
        "db.open_s": span_s["db.open"],
        "storage.catalog.disk_bytes_per_row": disk_bytes
        / db.active_layout.store.logical_rows,
    }
