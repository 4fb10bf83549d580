"""Background re-optimization: rebuild the layout the workload wants.

When the :class:`~repro.adapt.drift.DriftDetector` fires, the
:class:`Reoptimizer` closes the loop the paper leaves as future work:

1. **rebuild** — a candidate layout is built from the recent query
   log (frequency-weighted window SQL) through the existing
   :mod:`repro.db.registry` strategy registry, in a background thread,
   without touching the serving path (``activate=False`` — just
   another immutable generation);
2. **evaluate offline** — incumbent and candidate are compared on the
   logged window with the blocks-scanned cost model (one routing
   pass per query, frequency-weighted; no wall-clock, so the verdict
   is deterministic and single-core-fair);
3. **install or discard** — only a candidate beating the incumbent by
   ``min_improvement`` is installed, through the existing generation
   lifecycle (``db.swap_layout`` → result-cache purge), after which
   the detector is rebased onto the mix that triggered the rebuild.

Everything the loop needs from the database is duck-typed
(``build_layout`` / ``swap_layout`` / ``drop_layout`` /
``active_layout`` / ``planner``), so this module never imports
:mod:`repro.db`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Tuple

from ..exec import route_and_count
from ..serve.metrics import AdaptSnapshot
from .drift import DriftDetector
from .log import QueryLog

__all__ = [
    "AdaptEvent",
    "AdaptPolicy",
    "Reoptimizer",
    "offline_blocks_cost",
]


@dataclass(frozen=True)
class AdaptPolicy:
    """Knobs of the observe → detect → rebuild → swap loop."""

    #: Ring capacity of the query log feeding the loop.
    log_capacity: int = 4096
    #: Most-recent records the drift signature / rebuild workload use.
    window: int = 256
    #: Divergence (total variation, [0, 1]) that arms a rebuild.
    threshold: float = 0.3
    #: Evidence floor before any drift score counts.
    min_records: int = 32
    #: Drift is checked every this many recorded queries (the check is
    #: a histogram fold over the window — cheap, but not free).
    check_every: int = 16
    #: Strategy the candidate layout is rebuilt with (any registered
    #: name; the paper's greedy builder by default).
    strategy: str = "greedy"
    #: Fractional blocks-scanned improvement on the logged window the
    #: candidate must deliver to be installed (0.1 = 10% fewer).
    min_improvement: float = 0.1
    #: Arrivals to wait after a *rejected* rebuild before trying again
    #: (``None`` = half the window).  Early drift checks see a window
    #: still mixed with the old template; the cooldown lets the ring
    #: fill with the new mix instead of rebuilding on every check.
    cooldown: Optional[int] = None
    #: Drop the displaced incumbent from the database after a
    #: successful swap.  Every generation pins a full materialized
    #: copy of the table, so a long-running loop under recurring drift
    #: would otherwise grow memory by one dataset copy per swap.
    #: Disable to keep superseded generations around for rollback
    #: (caller-held handles stay usable either way).
    drop_superseded: bool = True

    def __post_init__(self) -> None:
        if self.window < 1 or self.log_capacity < self.window:
            raise ValueError("need log_capacity >= window >= 1")
        if not 0.0 <= self.min_improvement < 1.0:
            raise ValueError("min_improvement must be in [0, 1)")
        if self.check_every < 1:
            raise ValueError("check_every must be >= 1")
        if self.cooldown is not None and self.cooldown < 0:
            raise ValueError("cooldown must be >= 0")

    @property
    def effective_cooldown(self) -> int:
        return (
            self.cooldown if self.cooldown is not None else self.window // 2
        )


@dataclass(frozen=True)
class AdaptEvent:
    """One completed rebuild decision (installed or discarded)."""

    kind: str  # "swap" | "rejected"
    drift_score: float
    strategy: str
    #: Window blocks-scanned cost, incumbent vs candidate.
    incumbent_blocks: int
    candidate_blocks: int
    #: Generation of the candidate layout (the new active generation
    #: when kind == "swap").
    generation: int

    @property
    def improvement(self) -> float:
        if self.incumbent_blocks <= 0:
            return 0.0
        return 1.0 - self.candidate_blocks / self.incumbent_blocks


def offline_blocks_cost(
    handle,
    weighted_queries: Sequence[Tuple[object, int]],
) -> int:
    """Blocks a layout would scan serving the weighted query list.

    Survivors of the routing pass per unique query, times its
    observed frequency — the avoided-work cost model every layout
    decision in this codebase reduces to, computed by the same
    function that routes served queries.  No data is scanned and no
    wall-clock is read.
    """
    router, engine = handle.router(), handle.engine()
    return sum(
        count * len(route_and_count(router, engine, query)[2])
        for query, count in weighted_queries
    )


class Reoptimizer:
    """Drift-triggered background rebuild + evaluate + hot-swap.

    Parameters
    ----------
    db:
        The :class:`repro.db.Database` (duck-typed) owning layouts and
        the generation lifecycle.  Must hold a logical table (a
        layout-only database cannot rebuild).
    log / detector / policy:
        The observation ring, the armed drift detector, and the loop
        knobs.
    on_swap:
        Callback invoked (on the rebuild thread) with the newly
        installed :class:`~repro.db.LayoutHandle` after a successful
        swap — the adaptive service uses it to re-wire serving onto
        the new generation.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`; when given, every
        drift check and rebuild decision records a control trace
        (``drift_check`` / ``rebuild``).  ``None`` keeps the hot-path
        ``poke`` untraced.
    """

    def __init__(
        self,
        db,
        log: QueryLog,
        detector: DriftDetector,
        policy: Optional[AdaptPolicy] = None,
        on_swap: Optional[Callable[[object], None]] = None,
        tracer: Optional[object] = None,
    ) -> None:
        if getattr(db, "table", None) is None:
            raise ValueError(
                "adaptation needs the logical table: a layout-only "
                "database cannot rebuild layouts"
            )
        self.db = db
        self.log = log
        self.detector = detector
        self.policy = policy or AdaptPolicy()
        self.on_swap = on_swap
        self.tracer = tracer
        #: The layout serving follows: the one active when the loop
        #: started, then whichever candidate it last installed.
        self.serving = db.active_layout
        self._lock = threading.Lock()
        #: Serializes rebuild bodies: poke()'s is-alive guard is only
        #: a cheap fast path, and adapt_now() may race the background
        #: thread — two concurrent rebuilds would double-swap and leak
        #: the first winner's generation.
        self._rebuild_mutex = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._closed = False
        self._arrivals = 0
        self._cooldown_until = 0
        self._ledger = AdaptSnapshot()

    # -- the hot-path hook ---------------------------------------------

    def observe(self, ctx) -> None:
        """Pipeline record sink: log the query, then poke the loop.
        Runs on serving worker threads, so it never blocks — the
        rebuild itself always runs on its own thread."""
        self.log.observe(ctx)
        self.poke()

    def poke(self) -> bool:
        """Called after every recorded query (worker threads).  Cheap:
        a counter bump, a windowed histogram fold every
        ``check_every`` arrivals, and — at most once at a time — the
        launch of a background rebuild.  Returns whether a rebuild was
        launched."""
        with self._lock:
            if self._closed:
                return False
            self._arrivals += 1
            if self._arrivals % self.policy.check_every != 0:
                return False
            if self._arrivals < self._cooldown_until:
                return False
            if self._thread is not None and self._thread.is_alive():
                return False
            self._ledger.checks += 1
        tracer = self.tracer
        if tracer is not None:
            with tracer.control_span("drift_check") as attrs:
                drifted = self.detector.drifted(self.log)
                attrs["drifted"] = drifted
                attrs["score"] = self.detector.last_score
        else:
            drifted = self.detector.drifted(self.log)
        if not drifted:
            return False
        with self._lock:
            if self._closed or (
                self._thread is not None and self._thread.is_alive()
            ):
                return False
            self._ledger.rebuilds += 1
            self._thread = threading.Thread(
                target=self._rebuild_and_decide,
                name="repro-adapt-rebuild",
                daemon=True,
            )
            self._thread.start()
        return True

    def adapt_now(self) -> Optional[AdaptEvent]:
        """Synchronous rebuild + decision regardless of the detector —
        the deterministic entry point tests and the CLI use.  Returns
        the decision event (``None`` if the window was empty)."""
        with self._lock:
            self._ledger.rebuilds += 1
        return self._rebuild_and_decide()

    def join(self, timeout: Optional[float] = None) -> None:
        """Wait for an in-flight background rebuild to finish."""
        with self._lock:
            thread = self._thread
        if thread is not None:
            thread.join(timeout)

    def close(self) -> None:
        with self._lock:
            self._closed = True
        self.join()

    # -- the background loop body --------------------------------------

    def _rebuild_and_decide(self) -> Optional[AdaptEvent]:
        with self._rebuild_mutex:
            try:
                return self._traced_rebuild()
            except Exception as exc:  # the loop must never kill serving
                with self._lock:
                    self._ledger.last_error = f"{type(exc).__name__}: {exc}"
                    self._ledger.rejected += 1
                    self._cooldown_until = (
                        self._arrivals + self.policy.effective_cooldown
                    )
                return None

    def _traced_rebuild(self) -> Optional[AdaptEvent]:
        """Run the rebuild body, recording a ``rebuild`` control trace
        when a tracer is attached (attributes carry the decision)."""
        tracer = self.tracer
        if tracer is None:
            return self._rebuild_and_decide_inner()
        with tracer.control_span("rebuild") as attrs:
            event = self._rebuild_and_decide_inner()
            if event is None:
                attrs["kind"] = "empty_window"
            else:
                attrs.update(
                    kind=event.kind,
                    strategy=event.strategy,
                    drift_score=event.drift_score,
                    incumbent_blocks=event.incumbent_blocks,
                    candidate_blocks=event.candidate_blocks,
                    generation=event.generation,
                )
            return event

    def _rebuild_and_decide_inner(self) -> Optional[AdaptEvent]:
        drift_score = self.detector.last_score
        weighted_sql = self.log.statements(self.policy.window)
        if not weighted_sql:
            return None
        incumbent = self.db.active_layout
        # Frequency-weighted build workload: the window's statements,
        # repeated by observed count, so the builder optimizes for the
        # mix as served, not one-of-each.
        statements = [
            sql for sql, count in weighted_sql for _ in range(count)
        ]
        candidate = self.db.build_layout(
            self.policy.strategy,
            workload=statements,
            activate=False,
            label=f"adapt-{self.policy.strategy}",
        )
        try:
            return self._decide(candidate, incumbent, weighted_sql, drift_score)
        except Exception:
            # The candidate is a full materialized copy of the table:
            # a decision that crashed must not leave it registered.
            if candidate is not self.db.active_layout:
                try:
                    self.db.drop_layout(candidate)
                except ValueError:
                    pass  # the reject branch already dropped it
            raise

    def _decide(
        self, candidate, incumbent, weighted_sql, drift_score: float
    ) -> AdaptEvent:
        """Score the built candidate against the incumbent on the
        window, then install it or drop it."""
        planner = self.db.planner
        weighted_queries = [
            (planner.plan(sql).query, count) for sql, count in weighted_sql
        ]
        incumbent_blocks = offline_blocks_cost(incumbent, weighted_queries)
        candidate_blocks = offline_blocks_cost(candidate, weighted_queries)
        beats = candidate_blocks <= incumbent_blocks * (
            1.0 - self.policy.min_improvement
        )
        if beats:
            self.db.swap_layout(candidate)
            if self.policy.drop_superseded and incumbent is not None:
                try:
                    self.db.drop_layout(incumbent)
                except ValueError:
                    pass  # already dropped, or externally managed
            self.detector.rebase(self.log.signature(self.policy.window))
            event = AdaptEvent(
                kind="swap",
                drift_score=drift_score,
                strategy=self.policy.strategy,
                incumbent_blocks=incumbent_blocks,
                candidate_blocks=candidate_blocks,
                generation=candidate.generation,
            )
            with self._lock:
                self._ledger.swaps += 1
                self._ledger.events += (event,)
            if self.on_swap is not None:
                self.on_swap(candidate)
            self.serving = candidate
        else:
            self.db.drop_layout(candidate)
            event = AdaptEvent(
                kind="rejected",
                drift_score=drift_score,
                strategy=self.policy.strategy,
                incumbent_blocks=incumbent_blocks,
                candidate_blocks=candidate_blocks,
                generation=candidate.generation,
            )
            with self._lock:
                self._ledger.rejected += 1
                self._ledger.events += (event,)
                self._cooldown_until = (
                    self._arrivals + self.policy.effective_cooldown
                )
        return event

    # -- observability -------------------------------------------------

    def stats(self) -> AdaptSnapshot:
        """The adaptation ledger: the counters and decision events,
        plus the point-in-time drift score, log depth, serving
        generation and whether a rebuild is running."""
        drift_score, log_records = self.detector.last_score, len(self.log)
        with self._lock:
            return replace(
                self._ledger,
                drift_score=drift_score,
                log_records=log_records,
                generation=self.serving.generation,
                in_progress=(
                    self._thread is not None and self._thread.is_alive()
                ),
            )

    #: The same ledger, under the name serving snapshots ask for.
    snapshot = stats

    def publish(self, registry: object, **labels: object) -> None:
        """Publish :meth:`stats` as a view into a
        :class:`~repro.obs.registry.MetricsRegistry`."""
        registry.register_view("adapt", labels, lambda: self.stats().rows())

    def report_lines(self) -> Tuple[str, ...]:
        """The serving generation, then one line per rebuild decision."""
        serving = self.serving
        lines = [
            f"serving generation {serving.generation} "
            f"({serving.strategy}, {serving.store.num_blocks} blocks)"
        ]
        for event in self.stats().events:
            lines.append(
                f"  [{event.kind}] drift {event.drift_score:.3f}: "
                f"window blocks {event.incumbent_blocks} -> "
                f"{event.candidate_blocks} "
                f"({100 * event.improvement:+.1f}% improvement, "
                f"{event.strategy}, gen {event.generation})"
            )
        return tuple(lines)

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"Reoptimizer(swaps={s.swaps}, rejected={s.rejected}, "
            f"checks={s.checks}, in_progress={s.in_progress})"
        )
