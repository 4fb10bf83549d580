"""The staged query pipeline and its canonical configurations.

:class:`QueryPipeline` is the one place a query's journey — plan,
route, result-cache, scan, merge — is spelled out; the four
execution paths in this codebase (serial baseline, ``Database.execute``,
:class:`~repro.serve.LayoutService`, the sharded coordinator)
plus the multi-layout arbiter are built by the factory functions at
the bottom of this module and differ only in the collaborators their
stages receive.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterator, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.router import QueryRouter
from ..engine.executor import QueryStats, ScanEngine
from ..engine.profiles import CostProfile
from ..obs.clock import now
from ..sql.planner import SqlPlanner
from ..storage.blocks import BlockStore
from .context import ExecContext, LayoutBinding
from .memo import RouteMemo
from .result_cache import ResultCache
from .stages import (
    ArbitrateStage,
    MergeStage,
    PlanStage,
    RecordStage,
    ResultCacheStage,
    RouteStage,
    ScanStage,
    ScatterScanStage,
    Stage,
)

__all__ = [
    "QueryPipeline",
    "ServeResult",
    "StageSeconds",
    "multi_layout_pipeline",
    "serial_pipeline",
    "sharded_pipeline",
    "single_layout_pipeline",
]


#: One shared key tuple per distinct stage-key sequence (a handful per
#: pipeline configuration).
_KEY_TUPLES: Dict[Tuple[str, ...], Tuple[str, ...]] = {}


class StageSeconds(Mapping[str, float]):
    """Read-only ``stage -> wall seconds`` mapping, compact because a
    client may keep every reply: the keys are one tuple shared by every
    result with the same stages, the values one packed array of
    doubles.  Compares equal to the ``dict`` of the same items."""

    __slots__ = ("_keys", "_values")

    def __init__(self, timings: Mapping[str, float]) -> None:
        keys = tuple(timings)
        self._keys = _KEY_TUPLES.setdefault(keys, keys)
        self._values = array("d", timings.values())

    def __getitem__(self, key: str) -> float:
        try:
            return self._values[self._keys.index(key)]
        except ValueError:
            raise KeyError(key) from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)

    def __repr__(self) -> str:
        return f"StageSeconds({dict(self.items())!r})"


@dataclass(frozen=True, slots=True)
class ServeResult:
    """Outcome of one executed/served query."""

    sql: str
    stats: QueryStats
    #: End-to-end seconds (queue wait + plan + route + scan when the
    #: query went through a scheduler; service time otherwise).
    latency_seconds: float
    #: BIDs the router narrowed the query to (``None`` without a tree).
    routed_block_ids: Optional[Tuple[int, ...]] = None
    #: True when the stats came from the result cache.
    cached: bool = False
    #: Label of the winning layout under multi-layout arbitration.
    winner: Optional[str] = None
    #: Per-stage wall seconds for this execution (a
    #: :class:`StageSeconds` when a pipeline built it).  Every configured
    #: stage appears (zero-cost stages report ~0, and each stage's
    #: ``finish`` time folds into its key); ``"queue"`` is the
    #: scheduler queue wait.  The un-dotted keys sum to ≈
    #: ``latency_seconds``.  Dotted keys (``"scan.shard2"``) are
    #: per-shard sub-attributions *inside* the scatter stage — each is
    #: that shard's own scan wall time, so they overlap the ``"scan"``
    #: entry and are excluded from the sum identity.
    stage_seconds: Mapping[str, float] = field(default_factory=dict)
    #: Generation of the layout that answered this query — what makes
    #: a result attributable under concurrent swaps and adaptation.
    generation: int = 0


def _fingerprint(ctx: ExecContext) -> object:
    """Stable query identity for trace ids: the planned query's
    predicate + projection + labels (the same shape the result cache
    keys on, minus cost profile).  Falls back to the SQL text before
    planning succeeded."""
    q = ctx.query
    if q is None:
        return ctx.sql
    return (q.predicate, q.scan_columns(), q.name, q.template)


class QueryPipeline:
    """An ordered stage list executing queries over shared collaborators.

    Every public execution path builds one of these (see the factory
    functions below) and delegates to :meth:`execute`; there is no
    other route/cache/scan loop in the codebase.
    """

    def __init__(
        self,
        planner: SqlPlanner,
        stages: Sequence[Stage],
        metrics: Optional[object] = None,
        tracer: Optional[object] = None,
    ) -> None:
        self.planner = planner
        self.stages: Tuple[Stage, ...] = tuple(stages)
        #: Optional :class:`~repro.serve.metrics.ServingMetrics`-like
        #: collector (duck-typed so repro.exec never imports repro.serve).
        self.metrics = metrics
        #: Optional :class:`~repro.obs.trace.Tracer`-like recorder
        #: (duck-typed for the same reason).  ``None`` — the default —
        #: keeps execution on the untraced fast path: the only cost is
        #: one ``is None`` check per query.
        self.tracer = tracer
        self._cache_stage: Optional[ResultCacheStage] = next(
            (s for s in self.stages if isinstance(s, ResultCacheStage)), None
        )
        self._scan_stage = next(
            (s for s in self.stages if hasattr(s, "collect")), None
        )
        #: Stages with post-result work (the base ``finish`` is a
        #: no-op, not worth two clock reads per stage per query).
        self._finishers = tuple(
            s for s in self.stages if type(s).finish is not Stage.finish
        )

    # ------------------------------------------------------------------

    @property
    def result_cache(self) -> Optional[ResultCache]:
        return self._cache_stage.cache if self._cache_stage else None

    def stage(self, name: str) -> Optional[Stage]:
        """First stage with the given name (observability helpers)."""
        for s in self.stages:
            if s.name == name:
                return s
        return None

    # ------------------------------------------------------------------

    def execute(
        self, sql: str, admitted_at: Optional[float] = None
    ) -> ServeResult:
        """Run one statement through every stage; returns its result.

        ``admitted_at`` is the scheduler-admission timestamp when the
        call arrives through a worker pool (latency then includes the
        queue wait); defaults to now for direct calls.
        """
        t_admit = admitted_at if admitted_at is not None else now()
        ctx = ExecContext(sql=sql, admitted_at=t_admit)
        tracer = self.tracer
        tb = None
        if tracer is not None and getattr(tracer, "enabled", True):
            tb = tracer.begin_query(sql)
            ctx.trace = tb
        t_start = now()
        # Queue wait: admission-to-execution gap (≈0 on direct calls).
        ctx.mark("queue", t_admit, t_start - t_admit, span="queue")
        try:
            for stage in self.stages:
                t0 = now()
                stage.run(ctx)
                elapsed = now() - t0
                if tb is None:  # untraced: no span, so no attrs to build
                    ctx.mark(stage.name, t0, elapsed)
                else:
                    span = stage.span_name or stage.name
                    ctx.mark(stage.name, t0, elapsed, span, **stage.span_attrs(ctx))
            for stage in self._finishers:
                t0 = now()
                stage.finish(ctx)
                # finish-time work (result-cache publish) folds into
                # the owning stage's key so the sum-of-stages identity
                # holds.
                ctx.mark(stage.name, t0, now() - t0)
        except Exception as exc:
            # A stage raised (``stage`` / ``t0`` are its).  Close what
            # was opened: its span and the trace carry the exception
            # type and the error is counted, then the exception goes
            # on to the caller / future.
            error = type(exc).__name__
            ctx.mark(stage.name, t0, now() - t0, span=stage.span_name or stage.name, error=error)
            self._close(ctx, tb, now() - t_admit, error)
            raise
        latency = now() - t_admit
        self._close(ctx, tb, latency)
        return ServeResult(
            sql=sql,
            stats=ctx.stats,
            latency_seconds=latency,
            routed_block_ids=ctx.routed,
            cached=ctx.cached,
            winner=ctx.winner,
            stage_seconds=StageSeconds(ctx.timings),
            generation=ctx.generation,
        )

    def _close(self, ctx: ExecContext, tb, latency: float, error: Optional[str] = None) -> None:
        """Book one finished execution — served or failed — in the
        metrics window and publish its trace."""
        if self.metrics is not None:
            if error is None:
                self.metrics.record(
                    latency, ctx.stats, cached=ctx.cached, winner=ctx.winner
                )
            else:
                self.metrics.record_error()
        if tb is not None:
            stats = ctx.stats
            outcome = {"error": error} if error is not None else {}
            tb.finish(
                fingerprint=_fingerprint(ctx),
                generation=ctx.generation,
                cached=ctx.cached,
                winner=ctx.winner,
                blocks_scanned=stats.blocks_scanned if stats else 0,
                tuples_scanned=stats.tuples_scanned if stats else 0,
                bytes_read=stats.bytes_read if stats else 0,
                rows_returned=stats.rows_returned if stats else 0,
                latency_seconds=latency,
                **outcome,
            )

    def prepare(self, sql: str) -> ExecContext:
        """Run plan and route (or arbitration) only — everything a
        non-scan consumer like ``collect_row_ids`` needs, without
        touching the result cache or scanning."""
        ctx = ExecContext(sql=sql, admitted_at=now())
        for stage in self.stages:
            if isinstance(stage, (ResultCacheStage, MergeStage)):
                continue
            if stage is self._scan_stage:
                continue
            stage.run(ctx)
        return ctx

    def collect_row_ids(self, sql: str) -> np.ndarray:
        """Matched original-table row ids (sorted, deduped) for one
        statement, through the byte-bounded row-id cache when this
        configuration carries a result cache.

        The returned array is always **read-only** — cache hits hand
        out the shared stored array, so the miss path freezes its
        fresh array too rather than letting mutability depend on
        cache state.  Callers needing to mutate should copy.
        """
        ctx = self.prepare(sql)
        cache = self.result_cache
        generation = (
            self._cache_stage._generation(ctx) if self._cache_stage else 0
        )
        if cache is not None:
            hit = cache.get_row_ids(ctx.query, generation)
            if hit is not None:
                return hit
        ids = self._scan_stage.collect(ctx)
        ids.setflags(write=False)
        if cache is not None:
            cache.put_row_ids(ctx.query, generation, ids)
        return ids


# ----------------------------------------------------------------------
# Canonical configurations
# ----------------------------------------------------------------------


def serial_pipeline(
    planner: SqlPlanner,
    engine: ScanEngine,
    router: Optional[QueryRouter],
    store: BlockStore,
    tracer: Optional[object] = None,
) -> QueryPipeline:
    """The pre-serving baseline: no memo, no cache, no metrics —
    every arrival plans (memoized planner), routes and scans from
    scratch, one at a time."""
    return single_layout_pipeline(
        planner=planner,
        engine=engine,
        router=router,
        store=store,
        result_cache=None,
        memoize=False,
        tracer=tracer,
    )


def single_layout_pipeline(
    planner: SqlPlanner,
    engine: ScanEngine,
    router: Optional[QueryRouter],
    store: BlockStore,
    result_cache: Optional[ResultCache] = None,
    generation: int = 0,
    metrics: Optional[object] = None,
    memoize: bool = True,
    record_sink: Optional[object] = None,
    tracer: Optional[object] = None,
) -> QueryPipeline:
    """One engine over one layout: ``Database.execute`` (cache, no
    metrics) and :class:`~repro.serve.LayoutService` (cache +
    metrics) are both this configuration.  ``record_sink`` appends a
    :class:`~repro.exec.stages.RecordStage` feeding it every finished
    query; the adaptive service's layout generations are the one
    configuration that asks for it."""
    stages = [
        PlanStage(planner),
        RouteStage(router, engine, memo=RouteMemo() if memoize else None),
        ResultCacheStage(result_cache, generation, profile=engine.profile),
        ScanStage(engine),
        MergeStage(engine.profile, store.schema),
    ]
    if record_sink is not None:
        stages.append(RecordStage(record_sink))
    return QueryPipeline(planner, stages, metrics=metrics, tracer=tracer)


def sharded_pipeline(
    planner: SqlPlanner,
    shards: Sequence[object],
    partition: str,
    router: Optional[QueryRouter],
    engine: ScanEngine,
    result_cache: Optional[ResultCache] = None,
    generation: int = 0,
    metrics: Optional[object] = None,
    tracer: Optional[object] = None,
) -> QueryPipeline:
    """The scatter-gather coordinator: routing happens once, at the
    coordinator, over the full store (``engine`` is the coordinator's
    own, over all blocks — it never scans), the scan stage splits the
    survivors by owning shard and scans each part on its shard, and
    the merge stage folds the parts into one bit-identical result."""
    stages = [
        PlanStage(planner),
        RouteStage(router, engine, memo=RouteMemo()),
        ResultCacheStage(result_cache, generation, profile=engine.profile),
        ScatterScanStage(shards, partition),
        MergeStage(engine.profile, engine.store.schema),
    ]
    return QueryPipeline(planner, stages, metrics=metrics, tracer=tracer)


def multi_layout_pipeline(
    planner: SqlPlanner,
    bindings: Sequence[LayoutBinding],
    profile: CostProfile,
    result_cache: Optional[ResultCache] = None,
    metrics: Optional[object] = None,
    tracer: Optional[object] = None,
) -> QueryPipeline:
    """Cost-arbitrated serving over several layouts of one table: the
    arbitration stage routes against every layout and binds the
    (blocks-surviving, bytes-scanned) argmin; the result cache keys
    on the winner's generation."""
    stages = [
        PlanStage(planner),
        ArbitrateStage(bindings),
        ResultCacheStage(result_cache, generation=None, profile=profile),
        ScanStage(engine=None),
        MergeStage(profile, bindings[0].store.schema),
    ]
    return QueryPipeline(planner, stages, metrics=metrics, tracer=tracer)
