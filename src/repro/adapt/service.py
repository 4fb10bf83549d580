"""Adaptive serving: a :class:`~repro.serve.Service` that re-learns
its layout.

:class:`AdaptiveService` is the closed loop in one object: one
service, with one scheduler and one metrics window for its whole
life, whose pipeline and buffer pool are the *current generation's*,
and the adapt control plane wired around it:

* every served query is recorded into a :class:`~repro.adapt.log
  .QueryLog` by the pipeline's tail stage;
* a :class:`~repro.adapt.drift.DriftDetector` periodically compares
  the live mix against the signature the active layout was built for;
* on drift, a :class:`~repro.adapt.reoptimize.Reoptimizer` rebuilds a
  candidate from the logged window **inline on the serving worker
  that detects drift**, evaluates it offline on the same window
  (blocks-scanned cost model) and — only if it wins by the policy
  margin — installs it through ``db.swap_layout`` (new generation,
  result-cache purge);
* the service then **hot-swaps** its pipeline and buffer pool onto
  the new generation: new arrivals serve from the new layout,
  in-flight queries finish on the old one (both generations hold
  identical rows, so every result stays bit-identical;
  ``ServeResult.generation`` says which layout answered).

The client surface is :class:`~repro.serve.Service`'s, unchanged;
what is this class's own is the hot swap, the swapped-pool window
fix-up and the reads of the adaptation loop (:attr:`generation`,
:attr:`events`; the ledger is ``reoptimizer.stats()``).  Construct
through :meth:`repro.db.Database.auto_adapt`.
"""

from __future__ import annotations

from typing import Optional

from ..engine.profiles import SPARK_PARQUET, CostProfile
from ..exec import ResultCache
from ..serve import DEFAULT_CACHE_BUDGET, Scheduler, Service, ServingMetrics
from ..serve.metrics import MetricsSnapshot
from ..serve.service import layout_generation
from .drift import DriftDetector
from .log import QueryLog
from .reoptimize import AdaptPolicy, Reoptimizer, control_span
from .signature import WorkloadSignature

__all__ = ["AdaptiveService"]


class AdaptiveService(Service):
    """Single-layout serving with online workload-drift adaptation.

    Parameters
    ----------
    db:
        The owning :class:`repro.db.Database`; must hold a logical
        table (rebuilds need the rows) and an active layout.
    policy:
        The :class:`~repro.adapt.reoptimize.AdaptPolicy` loop knobs.
    profile / cache_budget_bytes:
        Each generation's scan engine and buffer-pool budget.
    max_workers / queue_depth:
        The one scheduler's sizing.
    result_cache:
        The generation-keyed result cache every generation's pipeline
        consults (``None`` = uncached).  Pass the database's shared
        cache to have swaps purge it per the generation lifecycle; a
        private cache is purged by this service.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer` shared by every
        generation's pipeline AND the control plane — one tracer sees
        query traces from every generation plus the ``drift_check`` /
        ``rebuild`` / ``generation_swap`` control traces, on one
        timeline.
    """

    def __init__(
        self,
        db,
        policy: Optional[AdaptPolicy] = None,
        profile: CostProfile = SPARK_PARQUET,
        cache_budget_bytes: Optional[int] = DEFAULT_CACHE_BUDGET,
        max_workers: int = 4,
        queue_depth: int = 64,
        result_cache: Optional[ResultCache] = None,
        tracer: Optional[object] = None,
    ) -> None:
        active = db.active_layout
        if active is None:
            raise ValueError(
                "no layout yet: call build_layout() before auto_adapt()"
            )
        self.db = db
        self.policy = policy or AdaptPolicy()
        self.tracer = tracer
        metrics = ServingMetrics()
        self.log = QueryLog(self.policy.window)
        baseline = active.workload_signature or WorkloadSignature()
        self.detector = DriftDetector(
            baseline,
            threshold=self.policy.threshold,
            min_records=self.policy.min_records,
        )
        self.reoptimizer = Reoptimizer(
            db,
            self.log,
            self.detector,
            self.policy,
            on_swap=self._install,
            tracer=tracer,
        )
        #: What every generation's pipeline is built with.
        self._generation_options = dict(
            profile=profile,
            cache_budget_bytes=cache_budget_bytes,
            planner=db.planner,
            result_cache=result_cache,
            metrics=metrics,
            record_sink=self.reoptimizer,
            tracer=tracer,
        )
        # The resources are what a swap leaves in place.  The current
        # generation's pool is absent (a registry collector bound to it
        # would go stale at the next swap), and so is the scheduler:
        # this topology reports and publishes the window and the
        # ledger only.  The rebuild loop closes first, so no query
        # starts a rebuild while the scheduler drains.
        pipeline, pools = self._generation(active)
        super().__init__(
            pipeline,
            Scheduler(max_workers=max_workers, queue_depth=queue_depth),
            metrics,
            [(metrics, {}), (self.reoptimizer, {})],
            block_caches=pools,
        )

    # -- generation hot-swap -------------------------------------------

    def _generation(self, handle):
        """``handle``'s pipeline and buffer pool(s): a generation gets
        its own pool, because pool keys are ``(block id, column)`` and
        two generations' block ids collide."""
        _, cache, _, pipeline = layout_generation(
            handle.store,
            handle.tree,
            handle.generation,
            num_advanced_cuts=handle.num_advanced_cuts,
            **self._generation_options,
        )
        return pipeline, (cache,) if cache is not None else ()

    def _install(self, handle) -> None:
        """Hot-swap serving onto a freshly installed generation (called
        inside the query that ran the rebuild, so it never closes or
        waits on the scheduler).  In-flight queries finish on the old
        pipeline, and those late results are still correct — their
        generation's store holds the same rows, it just skips fewer
        blocks."""
        with control_span(self.tracer, "generation_swap") as attrs:
            attrs["generation"] = handle.generation
            # A statement already running finishes on the pipeline it
            # read; the next one reads this.
            self.pipeline, self.block_caches = self._generation(handle)
            # db.swap_layout purged the database's shared cache; a
            # private cache is ours to keep hygienic, or each swap
            # would strand the prior generation's entries as
            # unreachable garbage.
            rc = self.result_cache
            if rc is not None and rc is not self.db.result_cache:
                rc.retain(handle.generation)

    # -- what is this topology's own -----------------------------------

    @property
    def generation(self) -> int:
        """Generation of the layout serving follows."""
        return self.reoptimizer.serving.generation

    @property
    def events(self):
        """Completed rebuild decisions, oldest first."""
        return self.reoptimizer.stats().events

    def _window_snapshot(self, cache_before) -> MetricsSnapshot:
        now = self._cache_stats()
        if (
            now is not None
            and cache_before is not None
            and (now.hits < cache_before.hits or now.misses < cache_before.misses)
        ):
            # A hot swap replaced the buffer pool mid-window:
            # `cache_before` belongs to the retired cache, so the
            # delta is meaningless.  The new pool's lifetime stats
            # ARE the window since the swap — report those.
            cache_before = None
        return super()._window_snapshot(cache_before)

    def __repr__(self) -> str:
        r = self.reoptimizer.stats()
        return (
            f"AdaptiveService(gen={self.generation}, "
            f"drift={self.detector.last_score:.3f}, swaps={r.swaps})"
        )
