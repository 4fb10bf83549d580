"""Cost-arbitrated serving over several layouts of one table.

The qd-tree paper's core promise is routing each query to the layout
that skips the most blocks.  :class:`MultiLayoutService` delivers the
multi-layout version of that promise: the same table is served under
several :class:`~repro.db.LayoutHandle`-style layouts at once, and a
cost-model arbiter (:class:`~repro.exec.stages.ArbitrateStage`) routes
each unique predicate against every layout's pruning table, scores the
candidates with a **blocks-surviving × bytes-scanned** model (min-max
stats as the priors), and executes on the argmin layout.  Per-layout
win counts land in :class:`ServingMetrics`
(``snapshot().layout_wins``), so a skewed workload visibly splits its
templates across the layouts that serve them cheapest.

This topology reuses the shared
:class:`~repro.exec.pipeline.QueryPipeline`'s plan, result-cache
(keyed by the winning layout's generation) and scan stages unchanged —
only the route stage differs.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..engine.profiles import SPARK_PARQUET, CostProfile
from ..exec import LayoutBinding, ResultCache, multi_layout_pipeline
from ..sql.planner import SqlPlanner
from .cache import BlockCache
from .metrics import ServingMetrics
from .scheduler import Scheduler
from .service import DEFAULT_CACHE_BUDGET, Service, pooled_engine, serving_router

__all__ = ["MultiLayoutService"]


def _bindings_for(
    layouts: Sequence[object],
    profile: CostProfile,
    cache_budget_bytes: Optional[int],
) -> Tuple[Tuple[LayoutBinding, ...], Tuple[Optional[BlockCache], ...]]:
    """Build one (engine + router) binding per layout handle.

    ``layouts`` is duck-typed (``store``, ``tree``, ``generation``,
    ``num_advanced_cuts`` and a ``label``/``strategy`` name) so this
    module never imports :mod:`repro.db`.  Labels are disambiguated
    with the generation when two layouts share a name — win counts
    must be attributable.
    """
    labels = [
        getattr(handle, "label", "") or getattr(handle, "strategy", "layout")
        for handle in layouts
    ]
    duplicated = {label for label in labels if labels.count(label) > 1}
    labels = [
        f"{label}@gen{getattr(layouts[i], 'generation', i)}"
        if label in duplicated
        else label
        for i, label in enumerate(labels)
    ]
    per_layout_budget = (
        cache_budget_bytes // len(layouts) if cache_budget_bytes else None
    )
    bindings = []
    caches = []
    for handle, label in zip(layouts, labels):
        engine, cache = pooled_engine(
            handle.store,
            profile,
            getattr(handle, "num_advanced_cuts", 0),
            per_layout_budget,
        )
        bindings.append(
            LayoutBinding(
                label=label,
                generation=getattr(handle, "generation", 0),
                store=handle.store,
                engine=engine,
                router=serving_router(
                    getattr(handle, "tree", None), handle.store
                ),
            )
        )
        caches.append(cache)
    return tuple(bindings), tuple(caches)


class MultiLayoutService(Service):
    """Serve one table under several layouts, cheapest layout wins.

    Parameters
    ----------
    layouts:
        The candidate layouts (e.g. :class:`repro.db.LayoutHandle`
        instances).  Order matters only for ties: the earliest layout
        wins a tied score.
    profile:
        Cost profile shared by every layout's engine (one model, one
        comparable score).
    cache_budget_bytes:
        TOTAL buffer-pool budget, split evenly across layouts;
        ``0``/``None`` disables block caching.
    max_workers / queue_depth:
        Scheduler sizing (one pool serves all layouts — the arbiter
        decides where each query scans).
    planner:
        Shared planner (same advanced-cut caveat as
        :class:`~repro.serve.service.LayoutService`).
    result_cache:
        Optional generation-keyed result cache; entries key on the
        *winning* layout's generation, so the cache is exactly as
        stale-proof as single-layout serving.
    record_sink:
        Optional query-log sink at the pipeline tail.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`; traced queries
        carry an ``arbitrate`` span with the winning layout label and
        generation.
    """

    def __init__(
        self,
        layouts: Sequence[object],
        profile: CostProfile = SPARK_PARQUET,
        cache_budget_bytes: Optional[int] = DEFAULT_CACHE_BUDGET,
        max_workers: int = 4,
        queue_depth: int = 64,
        planner: Optional[SqlPlanner] = None,
        result_cache: Optional[ResultCache] = None,
        record_sink: Optional[object] = None,
        tracer: Optional[object] = None,
    ) -> None:
        layouts = list(layouts)
        if not layouts:
            raise ValueError("serve_multi needs at least one layout")
        schema = layouts[0].store.schema
        self.bindings, caches = _bindings_for(
            layouts, profile, cache_budget_bytes
        )
        metrics = ServingMetrics()
        scheduler = Scheduler(max_workers=max_workers, queue_depth=queue_depth)
        pipeline = multi_layout_pipeline(
            planner=planner if planner is not None else SqlPlanner(schema),
            bindings=self.bindings,
            profile=profile,
            result_cache=result_cache,
            metrics=metrics,
            record_sink=record_sink,
            tracer=tracer,
        )
        self._arbiter = pipeline.stage("route")
        pools = [
            (cache, {"layout": binding.label})
            for binding, cache in zip(self.bindings, caches)
            if cache is not None
        ]
        super().__init__(
            pipeline,
            scheduler,
            metrics,
            [(metrics, {}), (self._arbiter, {}), (scheduler, {})]
            + pools
            + [(pipeline.stage("result_cache"), {})],
            block_caches=[cache for cache, _ in pools],
        )

    @property
    def win_counts(self) -> Dict[str, int]:
        """Queries won per layout label in the current window."""
        return self.metrics.win_counts()

    def arbiter_scores(self, sql: str) -> Tuple[Tuple[str, Tuple[int, int]], ...]:
        """(label, (blocks surviving, estimated bytes)) per layout for
        one statement — the explain path for an arbitration decision."""
        query = self.pipeline.planner.plan(sql).query
        choice = self._arbiter.choice_for(query)
        return tuple(
            (binding.label, score)
            for binding, score in zip(self.bindings, choice.scores)
        )

    def __repr__(self) -> str:
        labels = ", ".join(b.label for b in self.bindings)
        return f"MultiLayoutService(layouts=[{labels}])"
