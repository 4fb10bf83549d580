"""The serving surface: SQL in, routed + cached + scheduled scans out.

:class:`Service` is the one front door a client (or many concurrent
clients) talks to, whatever the topology behind it.  It owns no
execution logic: a call travels the service's
:class:`~repro.exec.pipeline.QueryPipeline` (plan → route →
result-cache → scan → merge; see :mod:`repro.exec`), with
:class:`ServingMetrics` recording latency/QPS/cache accounting per
completed query.  Concurrency comes from
:class:`~repro.serve.scheduler.Scheduler`: a bounded thread pool whose
admission queue back-pressures closed-loop clients and sheds load for
open-loop ones.  Scans parallelize despite the GIL because the decode
and filter kernels are vectorized numpy.

:class:`LayoutService` is the single-node constructor; the sharded,
multi-layout and adaptive ones live in :mod:`repro.serve.shard`,
:mod:`repro.serve.multi` and :mod:`repro.adapt.service`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple

from ..core.router import QueryRouter
from ..core.tree import QdTree
from ..engine.executor import QueryStats, ScanEngine
from ..engine.profiles import SPARK_PARQUET, CostProfile
from ..exec import (
    QueryPipeline,
    ResultCache,
    ServeResult,
    serial_pipeline,
    single_layout_pipeline,
)
from ..obs.clock import now
from ..sql.planner import SqlPlanner
from ..storage.blocks import BlockStore
from .cache import BlockCache, CacheStats
from .metrics import MetricsSnapshot, ServingMetrics
from .scheduler import AdmissionRejected, Scheduler

__all__ = [
    "LayoutService",
    "ReplayResult",
    "Resource",
    "Service",
    "run_serial_baseline",
]

#: Default buffer-pool budget (bytes) — plenty for the generated
#: benchmark scales, small against any real machine.
DEFAULT_CACHE_BUDGET = 64 * 1024 * 1024


def run_serial_baseline(
    store: BlockStore,
    tree: Optional[QdTree],
    statements: Sequence[str],
    repeat: int = 1,
    planner: Optional[SqlPlanner] = None,
    num_advanced_cuts: int = 0,
    profile: CostProfile = SPARK_PARQUET,
) -> Tuple[float, Tuple[QueryStats, ...]]:
    """The pre-serving execution path, for speedup comparisons.

    A memo-less, cache-less :func:`~repro.exec.pipeline.serial_pipeline`
    configuration: statements are planned once up front (planning was
    never part of the measured serial cost), then every arrival
    routes and scans from scratch, one at a time — exactly
    what executing the workload cost before :class:`LayoutService`
    existed.  Returns ``(sustained QPS, per-query stats)``.
    """
    engine = ScanEngine(store, profile, num_advanced_cuts=num_advanced_cuts)
    if planner is None:
        planner = SqlPlanner(store.schema)
    router = QueryRouter(tree, store) if tree is not None else None
    pipeline = serial_pipeline(planner, engine, router, store)
    for sql in statements:
        planner.plan(sql)
    t0 = now()
    stats = []
    for _ in range(repeat):
        for sql in statements:
            stats.append(pipeline.execute(sql).stats)
    seconds = now() - t0
    qps = len(stats) / seconds if seconds > 0 else 0.0
    return qps, tuple(stats)


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of one workload replay run."""

    issued: int
    completed: int
    rejected: int
    wall_seconds: float
    results: Tuple[ServeResult, ...]
    snapshot: MetricsSnapshot

    @property
    def qps(self) -> float:
        return self.completed / self.wall_seconds if self.wall_seconds > 0 else 0.0


def pooled_engine(
    store: BlockStore,
    profile: CostProfile,
    num_advanced_cuts: int,
    cache_budget_bytes: Optional[int],
) -> Tuple[ScanEngine, Optional[BlockCache]]:
    """A scan engine reading through its own buffer pool
    (``0``/``None`` budget: no pool, every scan decodes)."""
    cache = BlockCache(cache_budget_bytes) if cache_budget_bytes else None
    engine = ScanEngine(
        store,
        profile,
        num_advanced_cuts=num_advanced_cuts,
        column_reader=cache.read_blocks if cache is not None else None,
    )
    return engine, cache


def serving_router(
    tree: Optional[QdTree], store: BlockStore
) -> Optional[QueryRouter]:
    """The query router over this generation's pruning table (``None``
    for a tree-less layout)."""
    if tree is None:
        return None
    return QueryRouter(tree, store)


def layout_generation(
    store: BlockStore,
    tree: Optional[QdTree],
    generation: int,
    profile: CostProfile,
    num_advanced_cuts: int,
    cache_budget_bytes: Optional[int],
    planner: SqlPlanner,
    **pipeline_options: object,
) -> Tuple[ScanEngine, Optional[BlockCache], Optional[QueryRouter], QueryPipeline]:
    """One layout generation's serving parts: a scan engine over its
    own buffer pool, the router over its pruning table and the
    single-layout pipeline through both, keyed under ``generation``
    (``pipeline_options`` go to
    :func:`~repro.exec.pipeline.single_layout_pipeline`).
    :class:`LayoutService` builds one; the adaptive service builds one
    per installed generation."""
    engine, cache = pooled_engine(
        store, profile, num_advanced_cuts, cache_budget_bytes
    )
    router = serving_router(tree, store)
    pipeline = single_layout_pipeline(
        planner=planner,
        engine=engine,
        router=router,
        store=store,
        generation=generation,
        **pipeline_options,
    )
    return engine, cache, router, pipeline


#: One serving resource and the labels its samples carry.  A resource
#: implements whichever of four hooks it has something for:
#: ``publish(registry, **labels)`` (it owns counters),
#: ``report_lines()`` (it renders them for operators), ``reset()`` (it
#: keeps a per-window count) and ``close()`` (it owns threads or a loop).
Resource = Tuple[object, Mapping[str, object]]


class Service:
    """The one serving surface: SQL in, scheduled pipeline runs out.

    A service owns a :class:`~repro.exec.pipeline.QueryPipeline` (the
    *logic*: plan/route/cache/scan/merge), a front
    :class:`Scheduler`, a :class:`ServingMetrics` window and a flat,
    ordered list of labelled *resources* (everything that keeps
    counters or threads: metrics, schedulers, buffer pools, the stages
    holding memos, caches and fan-out windows, the adaptation loop).
    The client surface, the replay drivers, observability and
    lifecycle are implemented here exactly once, as loops over those
    resources; :class:`LayoutService`,
    :class:`~repro.serve.shard.ShardedLayoutService`,
    :class:`~repro.serve.multi.MultiLayoutService` and
    :class:`~repro.adapt.service.AdaptiveService` are *constructors*
    that wire a topology and add only the reads that topology has.

    ``resources`` order is report order, publish order and close
    order.  ``block_caches`` are the buffer pools whose merged stats
    the window snapshot carries.
    """

    def __init__(
        self,
        pipeline: QueryPipeline,
        scheduler: Scheduler,
        metrics: ServingMetrics,
        resources: Sequence[Resource],
        block_caches: Sequence[BlockCache] = (),
    ) -> None:
        self.pipeline = pipeline
        self.scheduler = scheduler
        self.metrics = metrics
        self.resources = tuple(resources)
        self.block_caches = tuple(block_caches)

    @property
    def result_cache(self) -> Optional[ResultCache]:
        return self.pipeline.result_cache

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------

    def execute_sql(self, sql: str) -> ServeResult:
        """Serve one statement synchronously on the caller's thread."""
        return self.pipeline.execute(sql, now())

    def submit_sql(
        self, sql: str, block: bool = True, timeout: Optional[float] = None
    ):
        """Admit one statement to the scheduler; returns its future.

        The result's latency includes time spent waiting in the
        admission queue.  Raises
        :class:`~repro.serve.scheduler.AdmissionRejected` when the
        queue is full and ``block`` is false (or the wait times out).
        """
        return self.scheduler.submit(
            self.pipeline.execute, sql, now(), block=block, timeout=timeout
        )

    def collect_row_ids(self, sql: str):
        """Matched original-table row ids for one statement (sorted,
        deduped, served from the byte-bounded row-id cache on
        repeats); requires blocks built with row-id provenance."""
        return self.pipeline.collect_row_ids(sql)

    # ------------------------------------------------------------------
    # Workload replay
    # ------------------------------------------------------------------

    def run_closed_loop(
        self, statements: Sequence[str], repeat: int = 1
    ) -> ReplayResult:
        """Replay ``statements`` ``repeat`` times through the pool.

        Closed-loop: submission back-pressures on the admission queue,
        so the offered load always matches what the pool sustains.
        """
        self._reset_window()
        cache_before = self._cache_stats()
        t0 = now()
        futures = [
            self.submit_sql(sql) for _ in range(repeat) for sql in statements
        ]
        return self._gather(futures, 0, t0, cache_before)

    def run_open_loop(
        self, statements: Sequence[str], target_qps: float, repeat: int = 1
    ) -> ReplayResult:
        """Replay at a fixed arrival rate, shedding load when full.

        Open-loop: arrivals are paced at ``target_qps`` regardless of
        completions; a full admission queue rejects the arrival (the
        client sees an error, the system stays stable).
        """
        if target_qps <= 0:
            raise ValueError("target_qps must be > 0")
        self._reset_window()
        cache_before = self._cache_stats()
        interval = 1.0 / target_qps
        t0 = now()
        futures = []
        rejected = 0
        arrival = t0
        for _ in range(repeat):
            for sql in statements:
                ahead = arrival - now()
                if ahead > 0:
                    time.sleep(ahead)
                arrival += interval
                try:
                    futures.append(self.submit_sql(sql, block=False))
                except AdmissionRejected:
                    rejected += 1
        return self._gather(futures, rejected, t0, cache_before)

    def _gather(self, futures, rejected, t0, cache_before) -> ReplayResult:
        results = tuple(f.result() for f in futures)
        return ReplayResult(
            issued=len(futures) + rejected,
            completed=len(results),
            rejected=rejected,
            wall_seconds=now() - t0,
            results=results,
            snapshot=self._window_snapshot(cache_before),
        )

    def _hooks(self, name: str):
        """``(bound hook, resource labels)`` for every resource that
        implements ``name``, in resource order."""
        for resource, labels in self.resources:
            hook = getattr(resource, name, None)
            if hook is not None:
                yield hook, labels

    def _reset_window(self) -> None:
        for reset, _ in self._hooks("reset"):
            reset()

    # ------------------------------------------------------------------
    # Observability & lifecycle
    # ------------------------------------------------------------------

    def _cache_stats(self) -> Optional[CacheStats]:
        """Merged buffer-pool accounting (``None`` when caching is off)."""
        parts = [cache.stats() for cache in self.block_caches]
        return CacheStats.merged(parts) if parts else None

    def snapshot(self) -> MetricsSnapshot:
        """Current-window metrics with cache accounting attached."""
        return self._window_snapshot(None)

    def _window_snapshot(self, cache_before) -> MetricsSnapshot:
        """Snapshot whose cache stats cover only the window since
        ``cache_before`` — a replay's report must describe that replay,
        not cache activity accumulated over the service's lifetime."""
        cache = self._cache_stats()
        if cache is not None and cache_before is not None:
            cache = cache.since(cache_before)
        return self.metrics.snapshot(cache)

    def publish_metrics(self, registry: object, **labels: object) -> None:
        """Publish every resource this service owns into a
        :class:`~repro.obs.registry.MetricsRegistry`; each resource's
        series carry its own labels plus ``labels``."""
        for publish, own in self._hooks("publish"):
            publish(registry, **own, **labels)

    def report(self) -> str:
        """Operator-facing text report: the current window, then one
        block per resource."""
        lines = [self.snapshot().report()]
        for report_lines, _ in self._hooks("report_lines"):
            lines.extend(report_lines())
        return "\n".join(lines)

    def close(self) -> None:
        """Close every resource that owns threads or a loop, in order,
        then the front scheduler (a no-op where it was listed).  The
        adaptive service's rebuild loop closes first: no query starts
        a rebuild after that, and the scheduler's drain lets one that
        is already running inside a query finish."""
        for close, _ in self._hooks("close"):
            close()
        self.scheduler.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class LayoutService(Service):
    """One layout, one engine: the single-node topology.

    Parameters
    ----------
    store:
        The layout's block store.
    tree:
        Optional qd-tree; when given, queries are routed to the
        ``BID IN (...)`` list before scanning (Sec. 3.3), with routes
        memoized by predicate fingerprint.
    profile:
        Cost profile for modeled runtimes.
    num_advanced_cuts:
        Advanced-cut slots the layout was built with.
    cache_budget_bytes:
        Buffer-pool budget; ``0``/``None`` disables caching entirely
        (every scan decodes from the encoded chunks).
    max_workers / queue_depth:
        Scheduler sizing; see :class:`~repro.serve.scheduler.Scheduler`.
    planner:
        The planner that planned the layout's build workload.  Pass it
        whenever that workload contained advanced (column-vs-column)
        cuts: advanced-cut slot indices are handed out in planning
        order, so a fresh planner seeing served statements in a
        different order would bind the same comparison to a different
        slot and rout/prune on the wrong possibility bits.
    result_cache / generation:
        Optional :class:`~repro.exec.ResultCache` plus
        the generation of the layout this service fronts.  When given,
        repeated queries return the memoized
        :class:`~repro.engine.executor.QueryStats` without
        scanning; entries are keyed under ``generation`` so a database
        that swaps or re-ingests layouts can never serve a stale
        result through a cache shared across generations.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`; when given, every
        served query records one per-stage trace.  ``None`` (default)
        keeps the untraced fast path.
    """

    def __init__(
        self,
        store: BlockStore,
        tree: Optional[QdTree] = None,
        profile: CostProfile = SPARK_PARQUET,
        num_advanced_cuts: int = 0,
        cache_budget_bytes: Optional[int] = DEFAULT_CACHE_BUDGET,
        max_workers: int = 4,
        queue_depth: int = 64,
        planner: Optional[SqlPlanner] = None,
        result_cache: Optional[ResultCache] = None,
        generation: int = 0,
        tracer: Optional[object] = None,
    ) -> None:
        self.store = store
        self.generation = generation
        metrics = ServingMetrics()
        scheduler = Scheduler(max_workers=max_workers, queue_depth=queue_depth)
        self.engine, self.cache, self.router, pipeline = layout_generation(
            store,
            tree,
            generation,
            profile,
            num_advanced_cuts,
            cache_budget_bytes,
            planner if planner is not None else SqlPlanner(store.schema),
            result_cache=result_cache,
            metrics=metrics,
            tracer=tracer,
        )
        caches = [self.cache] if self.cache is not None else []
        super().__init__(
            pipeline,
            scheduler,
            metrics,
            [(r, {}) for r in (metrics, scheduler, *caches)]
            + [(pipeline.stage(name), {}) for name in ("route", "result_cache")],
            block_caches=caches,
        )
