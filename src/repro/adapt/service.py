"""Adaptive serving: a :class:`~repro.serve.Service` that re-learns
its layout.

:class:`AdaptiveService` is the closed loop in one object: a service
whose pipeline, scheduler and buffer pool resolve to the *current
generation's* single-layout service, with the adapt control plane
wired around it:

* every served query is recorded into a :class:`~repro.adapt.log
  .QueryLog` by the pipeline's tail stage;
* a :class:`~repro.adapt.drift.DriftDetector` periodically compares
  the live mix against the signature the active layout was built for;
* on drift, a :class:`~repro.adapt.reoptimize.Reoptimizer` rebuilds a
  candidate from the logged window in a **background thread**,
  evaluates it offline on the same window (blocks-scanned cost model)
  and — only if it wins by the policy margin — installs it through
  ``db.swap_layout`` (new generation, result-cache purge);
* the service then **hot-swaps** its inner service onto the new
  generation: new arrivals serve from the new layout, in-flight
  queries finish on the old one (both generations hold identical
  rows, so every result stays bit-identical; ``ServeResult.generation``
  says which layout answered).

The client surface is :class:`~repro.serve.Service`'s, unchanged;
what is this class's own is the hot swap, a swap-race retry in
``submit_sql``, the swapped-pool window fix-up and the adaptation
ledger (:meth:`adapt_snapshot`, :attr:`events`).  Construct through
:meth:`repro.db.Database.auto_adapt`.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from typing import Optional

from ..engine.profiles import SPARK_PARQUET, CostProfile
from ..exec import ResultCache
from ..serve import (
    DEFAULT_CACHE_BUDGET,
    AdaptSnapshot,
    LayoutService,
    Service,
    ServingMetrics,
)
from ..serve.metrics import MetricsSnapshot
from .drift import DriftDetector
from .log import QueryLog
from .reoptimize import AdaptPolicy, Reoptimizer
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
    profile / cache_budget_bytes / max_workers / queue_depth:
        Forwarded to each inner :class:`LayoutService` (including the
        ones created by hot swaps).
    result_cache:
        The generation-keyed result cache the inner services consult
        (``None`` = uncached).  Pass the database's shared cache to
        have swaps purge it per the generation lifecycle; a private
        cache is purged by this service.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer` shared by every
        inner service across hot swaps AND the control plane — one
        tracer sees query traces from every generation plus the
        ``drift_check`` / ``rebuild`` / ``generation_swap`` control
        traces, on one timeline.
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
        self._result_cache = result_cache
        self.tracer = tracer
        #: One collector across hot swaps: the observation window is
        #: the service's, not any single generation's.
        self.metrics = ServingMetrics()
        self.log = QueryLog(self.policy.log_capacity)
        baseline = active.workload_signature or WorkloadSignature()
        self.detector = DriftDetector(
            baseline,
            window=self.policy.window,
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
        #: What survives hot swaps.  The current generation's pools
        #: are deliberately absent: a registry collector bound to them
        #: would go stale at the next swap.  The rebuild loop closes
        #: first so no swap can install a service after ``close``.
        self.resources = ((self.metrics, {}), (self.reoptimizer, {}))
        #: What every generation's inner service is built with.
        self._inner_options = dict(
            profile=profile,
            cache_budget_bytes=cache_budget_bytes,
            max_workers=max_workers,
            queue_depth=queue_depth,
            planner=db.planner,
            result_cache=result_cache,
            metrics=self.metrics,
            record_sink=self.reoptimizer,
            tracer=tracer,
        )
        self._swap_lock = threading.Lock()
        self._service = self._make_service(active)

    # -- generation hot-swap -------------------------------------------

    def _make_service(self, handle) -> LayoutService:
        return LayoutService(
            handle.store,
            handle.tree,
            num_advanced_cuts=handle.num_advanced_cuts,
            generation=handle.generation,
            **self._inner_options,
        )

    def _install(self, handle) -> None:
        """Hot-swap serving onto a freshly installed generation
        (called on the rebuild thread).  New arrivals see the new
        inner service immediately; the old scheduler drains its
        in-flight queries before shutting down, and those late results
        are still correct — their generation's store holds the same
        rows, it just skips fewer blocks."""
        span = (
            self.tracer.control_span("generation_swap")
            if self.tracer is not None
            else nullcontext({})
        )
        with span as attrs:
            attrs["generation"] = handle.generation
            new = self._make_service(handle)
            with self._swap_lock:
                old, self._service = self._service, new
            old.close()
            # db.swap_layout purged the database's shared cache; a
            # private cache is ours to keep hygienic, or each swap
            # would strand the prior generation's entries as
            # unreachable garbage.
            rc = self._result_cache
            if rc is not None and rc is not self.db.result_cache:
                rc.retain(handle.generation)

    @property
    def service(self) -> LayoutService:
        """The current inner service (changes across hot swaps)."""
        with self._swap_lock:
            return self._service

    # What Service reads resolves to the current generation.

    @property
    def pipeline(self):
        return self.service.pipeline

    @property
    def scheduler(self):
        return self.service.scheduler

    @property
    def block_caches(self):
        return self.service.block_caches

    @property
    def generation(self) -> int:
        """Generation currently being served."""
        return self.service.generation

    # -- what is this topology's own -----------------------------------

    def submit_sql(
        self, sql: str, block: bool = True, timeout: Optional[float] = None
    ):
        """Admit one statement; returns its future.  Retries once if a
        hot swap closed the scheduler between the reference read and
        the submit (the new service accepts the work)."""
        for attempt in (0, 1):
            service = self.service
            try:
                return service.submit_sql(sql, block=block, timeout=timeout)
            except RuntimeError:
                # Scheduler shut down mid-swap; re-read and retry once.
                if attempt or service is self.service:
                    raise
        raise AssertionError("unreachable")

    def adapt_snapshot(self) -> AdaptSnapshot:
        return self.reoptimizer.stats()

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

    def join_adaptation(self, timeout: Optional[float] = None) -> None:
        """Wait for an in-flight background rebuild (tests, shutdown)."""
        self.reoptimizer.join(timeout)

    def __repr__(self) -> str:
        r = self.reoptimizer.stats()
        return (
            f"AdaptiveService(gen={self.generation}, "
            f"drift={self.detector.last_score:.3f}, swaps={r.swaps})"
        )
