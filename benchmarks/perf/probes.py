"""Unit-cost probes: tight loops around one public function each.

A probe answers "what does one call of this layer cost on this
layout", which the stage spans cannot (they see a layer's share of a
query, not its unit cost).  Each probe runs for at least ``budget``
seconds and reports the median per call.  A probe imports what it
needs itself: when an entry point has been renamed or removed the
probe reports ``None`` and is listed as unavailable — it never fails
the run, and no end-to-end metric depends on one.
"""

from __future__ import annotations

import itertools
import statistics
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

import workloads as W

now = time.perf_counter


def _median_seconds(
    fn: Callable[[object], object],
    items: Iterable,
    budget: float,
    size: Callable[[object], float] = lambda item: 1,
) -> float:
    """Median wall seconds of ``fn(item)`` per ``size(item)`` units,
    one call per item, until ``budget`` seconds have been spent (and at
    least five calls made) or the items run out."""
    samples: List[float] = []
    spent = 0.0
    for item in items:
        t0 = now()
        fn(item)
        dt = now() - t0
        samples.append(dt / size(item))
        spent += dt
        if spent >= budget and len(samples) >= 5:
            break
    return statistics.median(samples)


def _plan(db, handle, sqls, budget) -> Dict[str, float]:
    rng = np.random.default_rng(12345)
    seen = set(sqls)
    used: List[str] = []

    def unseen() -> Iterable[str]:
        while True:
            yield from W.draw(64, rng, seen)

    def plan_fresh(sql: str) -> None:
        db.planner.plan(sql)
        used.append(sql)

    fresh_s = _median_seconds(plan_fresh, unseen(), budget)
    memo_s = _median_seconds(db.planner.plan, itertools.cycle(used), budget)
    return {"sql.plan.fresh_us": fresh_s * 1e6, "sql.plan.memo_us": memo_s * 1e6}


def _route_prune(db, handle, sqls, budget) -> Dict[str, float]:
    queries = [db.planner.plan(sql).query for sql in sqls]
    router = handle.router()
    route_s = _median_seconds(router.route, itertools.cycle(queries), budget)
    engine = handle.engine()
    routed = [(q, router.route(q).block_ids) for q in queries[:16]]
    prune_s = _median_seconds(
        lambda pair: engine.prune_blocks(*pair), itertools.cycle(routed), budget
    )
    return {"core.route.us": route_s * 1e6, "engine.prune.us": prune_s * 1e6}


def _result_cache(db, handle, sqls, budget) -> Dict[str, float]:
    from repro.exec import CachedResult, ResultCache

    cache = ResultCache()
    entries = []
    for sql in sqls[:16]:
        result = db.execute(sql)
        query = db.planner.plan(sql).query
        entries.append(
            (query, CachedResult(result.stats, result.routed_block_ids))
        )
    put_s = _median_seconds(
        lambda e: cache.put(e[0], 1, e[1]), itertools.cycle(entries), budget
    )
    get_s = _median_seconds(
        lambda e: cache.get(e[0], 1), itertools.cycle(entries), budget
    )
    return {
        "exec.result_cache.get_hit_us": get_s * 1e6,
        "exec.result_cache.put_us": put_s * 1e6,
    }


def _predicate_eval(db, handle, sqls, budget) -> Dict[str, float]:
    cases = []
    for sql in sqls[:32]:
        query = db.planner.plan(sql).query
        survivors = handle.engine().prune_blocks(query, None)
        if not survivors:
            continue
        block = handle.store.block(survivors[0])
        names = sorted(query.predicate.referenced_columns())
        cases.append((query.predicate, block.read_columns(names), block.num_rows))
    per_row_s = _median_seconds(
        lambda case: case[0].evaluate(case[1]),
        itertools.cycle(cases),
        budget,
        size=lambda case: case[2],
    )
    return {"core.predicate_eval.ns_per_row": per_row_s * 1e9}


def _decode(db, handle, sqls, budget) -> Dict[str, float]:
    from repro.storage.columnar import decode_chunk, encode_column

    chunks = []
    for block in itertools.islice(handle.store, 8):
        for name in block.schema.column_names:
            values = block.read_column(name)
            chunks.append(encode_column(values))
            # a sorted slice is what run-length encoding wins on; the
            # table's own column order almost never produces one
            chunks.append(encode_column(np.sort(values)))
    by_encoding: Dict[str, List] = {}
    for chunk in chunks:
        by_encoding.setdefault(chunk.encoding.value, []).append(chunk)
    out: Dict[str, float] = {}
    for encoding, group in by_encoding.items():
        per_value_s = _median_seconds(
            decode_chunk,
            itertools.cycle(group),
            budget / 3,
            size=lambda chunk: max(chunk.num_values, 1),
        )
        out[f"storage.decode.{encoding}_ns_per_value"] = per_value_s * 1e9
    return out


def _block_cache(db, handle, sqls, budget) -> Dict[str, float]:
    from repro.serve import BlockCache

    names = sorted(
        db.planner.plan(sqls[0]).query.predicate.referenced_columns()
    )
    blocks = list(itertools.islice(handle.store, 32))
    decoded = sum(block.decoded_nbytes(names) for block in blocks)
    # Cycling through more blocks than an LRU pool holds misses every
    # time, insert and eviction included: the path a thrashing pool pays.
    small, large = BlockCache(decoded // 2), BlockCache(2 * decoded)
    for block in blocks:
        large.read_columns(block, names)
    miss_s = _median_seconds(
        lambda block: small.read_columns(block, names),
        itertools.cycle(blocks),
        budget,
    )
    hit_s = _median_seconds(
        lambda block: large.read_columns(block, names),
        itertools.cycle(blocks),
        budget,
    )
    return {
        "serve.block_cache.hit_us": hit_s * 1e6,
        "serve.block_cache.miss_us": miss_s * 1e6,
    }


def _scheduler_handoff(db, handle, sqls, budget) -> Dict[str, float]:
    from repro.exec import ResultCache

    with db.serve(max_workers=1, result_cache=ResultCache()) as service:
        hits = sqls[:8]
        for sql in hits:
            service.execute_sql(sql)
        direct_s = _median_seconds(
            service.execute_sql, itertools.cycle(hits), budget
        )
        queued_s = _median_seconds(
            lambda sql: service.submit_sql(sql).result(),
            itertools.cycle(hits),
            budget,
        )
    return {"serve.scheduler.handoff_us": (queued_s - direct_s) * 1e6}


def _tracer_overhead(db, handle, sqls, budget) -> Dict[str, float]:
    from repro.obs.trace import Tracer

    pool = sqls[:48]
    with db.serve(max_workers=1, result_cache=False) as plain, db.serve(
        max_workers=1, result_cache=False, tracer=Tracer()
    ) as traced:
        times = {id(plain): [], id(traced): []}
        for service in (plain, traced):
            for sql in pool:
                service.execute_sql(sql)
        spent = 0.0
        while spent < 2 * budget:
            for service in (plain, traced):
                t0 = now()
                for sql in pool:
                    service.execute_sql(sql)
                dt = now() - t0
                times[id(service)].append(dt)
                spent += dt
        off = statistics.median(times[id(plain)])
        on = statistics.median(times[id(traced)])
    return {"obs.tracer.overhead_frac": (on - off) / off}


PROBES = {
    _plan: ("sql.plan.fresh_us", "sql.plan.memo_us"),
    _route_prune: ("core.route.us", "engine.prune.us"),
    _result_cache: (
        "exec.result_cache.get_hit_us",
        "exec.result_cache.put_us",
    ),
    _predicate_eval: ("core.predicate_eval.ns_per_row",),
    _decode: (
        "storage.decode.plain_ns_per_value",
        "storage.decode.rle_ns_per_value",
        "storage.decode.bitpack_ns_per_value",
    ),
    _block_cache: ("serve.block_cache.hit_us", "serve.block_cache.miss_us"),
    _scheduler_handoff: ("serve.scheduler.handoff_us",),
    _tracer_overhead: ("obs.tracer.overhead_frac",),
}


def guarded(names: Sequence[str], fn: Callable, *args) -> Dict[str, Optional[float]]:
    """``fn(*args)``'s metrics, or ``None`` for each of ``names`` when
    an entry point it needs is gone."""
    try:
        values = fn(*args)
    except (AttributeError, ImportError, TypeError, KeyError):
        values = {}
    return {name: values.get(name) for name in names}


def run_probes(
    db, sqls: Sequence[str], budget: float
) -> Dict[str, Optional[float]]:
    """Every probe's metrics; ``None`` where the probe could not run."""
    out: Dict[str, Optional[float]] = {}
    for probe, names in PROBES.items():
        out.update(
            guarded(names, probe, db, db.active_layout, list(sqls), budget)
        )
    return out
