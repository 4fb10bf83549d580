"""Inline re-optimization: rebuild the layout the workload wants.

When the :class:`~repro.adapt.drift.DriftDetector` fires, the
:class:`Reoptimizer` closes the loop the paper leaves as future work,
inline on the serving worker that detects drift (that query's client
pays for the rebuild; the other workers keep serving):

1. **rebuild** — a candidate layout is built from the recent query
   log (frequency-weighted window SQL) through the existing
   :mod:`repro.db.registry` strategy registry, without touching the
   serving path (``activate=False`` — just another immutable
   generation);
2. **evaluate offline** — incumbent and candidate are compared on the
   logged window with the blocks-scanned cost model (one routing
   pass per query, frequency-weighted; no wall-clock, so the verdict
   is deterministic and single-core-fair);
3. **install or discard** — only a candidate beating the incumbent by
   ``min_improvement`` is installed, through the existing generation
   lifecycle (``db.swap_layout`` → result-cache purge), after which
   the superseded generation is dropped and the detector is rebased
   onto the mix that triggered the rebuild.

Everything the loop needs from the database is duck-typed
(``build_layout`` / ``swap_layout`` / ``drop_layout`` /
``active_layout`` / ``planner``), so this module never imports
:mod:`repro.db`.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from dataclasses import asdict, dataclass, replace
from typing import Callable, Optional, Sequence, Tuple

from ..exec import route_and_count
from ..obs.stats import Stats, counter, gauge
from .drift import DriftDetector
from .log import QueryLog

__all__ = [
    "AdaptEvent",
    "AdaptPolicy",
    "AdaptSnapshot",
    "Reoptimizer",
    "offline_blocks_cost",
]


@dataclass(frozen=True)
class AdaptPolicy:
    """Knobs of the observe → detect → rebuild → swap loop."""

    #: Records the query log keeps, and so the drift signature and the
    #: rebuild workload cover.
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

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if not 0.0 <= self.min_improvement < 1.0:
            raise ValueError("min_improvement must be in [0, 1)")
        if self.check_every < 1:
            raise ValueError("check_every must be >= 1")


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


@dataclass
class AdaptSnapshot(Stats):
    """The adaptation ledger: the re-optimizer's live counters and (as
    a copy) what :meth:`Reoptimizer.stats` returns — the current drift
    score and the rebuild/swap ledger with its decision events."""

    #: Divergence between the build-time and live workload mixes.
    drift_score: float = gauge(
        "repro_adapt_drift_score", "Live-vs-baseline workload divergence", 0.0
    )
    swaps: int = counter("repro_adapt_swaps_total", "Generation hot-swaps installed")
    #: Swaps + rejected + crashed, plus the rebuild running now and any
    #: ``adapt_now`` that found an empty window.
    rebuilds: int = counter("repro_adapt_rebuilds_total", "Rebuilds attempted")
    #: Candidates that lost the offline evaluation.
    rejected: int = counter("repro_adapt_rejected_total", "Candidates built but discarded")
    log_records: int = gauge("repro_adapt_log_records", "Records in the query-log ring")
    generation: int = gauge("repro_adapt_generation", "Generation currently serving")
    #: Drift checks run (every ``check_every`` arrivals).
    checks: int = counter()
    #: Rebuilds that raised (the latest error is ``last_error``).
    crashed: int = counter()
    last_error: Optional[str] = None
    #: Completed rebuild decisions (:class:`AdaptEvent`), oldest first.
    events: Tuple[AdaptEvent, ...] = ()


def control_span(tracer: Optional[object], name: str):
    """``tracer``'s control span ``name``, or a no-op one yielding a
    throwaway attribute dict when there is no tracer."""
    return tracer.control_span(name) if tracer is not None else nullcontext({})


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
    """Drift-triggered inline rebuild + evaluate + hot-swap.

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
        Callback invoked (on the thread that ran the rebuild) with the
        newly installed :class:`~repro.db.LayoutHandle` after a
        successful swap — the adaptive service uses it to re-wire
        serving onto the new generation.
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
        #: Held by the one drift check or rebuild running: a worker
        #: reaching a check meanwhile skips it, and adapt_now() waits,
        #: so two rebuilds can never double-swap.
        self._rebuild_mutex = threading.Lock()
        self._closed = False
        self._arrivals = 0
        self._cooldown_until = 0
        self._ledger = AdaptSnapshot()

    # -- the hot-path hook ---------------------------------------------

    def observe(self, ctx) -> None:
        """Pipeline record sink: log the query, then poke the loop.
        Runs on the thread that served the query."""
        self.log.observe(ctx)
        self.poke()

    def poke(self) -> bool:
        """Called after every recorded query.  Cheap on all but a few
        calls: a counter bump, a windowed histogram fold every
        ``check_every`` arrivals and, on drift, the rebuild itself,
        inline — the query that saw the drift pays for it.  Returns
        whether a rebuild ran."""
        with self._lock:
            if self._closed:
                return False
            self._arrivals += 1
            if self._arrivals % self.policy.check_every != 0:
                return False
            if self._arrivals < self._cooldown_until:
                return False
        if not self._rebuild_mutex.acquire(blocking=False):
            return False  # another worker is checking or rebuilding
        try:
            with self._lock:
                self._ledger.checks += 1
            with control_span(self.tracer, "drift_check") as attrs:
                drifted = self.detector.drifted(self.log)
                attrs.update(drifted=drifted, score=self.detector.last_score)
            if not drifted:
                return False
            with self._lock:
                if self._closed:
                    return False
                self._ledger.rebuilds += 1
            self._rebuild()
            return True
        finally:
            self._rebuild_mutex.release()

    def adapt_now(self) -> Optional[AdaptEvent]:
        """Synchronous rebuild + decision regardless of the detector —
        the deterministic entry point tests and the CLI use; waits
        for a rebuild already running.  Returns the decision event
        (``None`` if the window was empty or the rebuild raised)."""
        with self._rebuild_mutex:
            with self._lock:
                self._ledger.rebuilds += 1
            return self._rebuild()

    def close(self) -> None:
        """Stop starting rebuilds (one already running finishes)."""
        with self._lock:
            self._closed = True

    # -- the rebuild ---------------------------------------------------

    def _rebuild(self) -> Optional[AdaptEvent]:
        """Build a candidate from the logged window, score it against
        the incumbent offline, then install it or drop it; the caller
        holds ``_rebuild_mutex``.  Returns the decision, or ``None``
        for an empty window or a rebuild that raised: it runs inside a
        served query, which must still return its rows, so an error is
        booked as a crash (``crashed``, ``last_error``) and never
        escapes."""
        policy = self.policy
        candidate = None
        try:
            with control_span(self.tracer, "rebuild") as attrs:
                drift_score = self.detector.last_score
                weighted_sql = self.log.statements(policy.window)
                if not weighted_sql:
                    attrs["kind"] = "empty_window"
                    return None
                incumbent = self.db.active_layout
                # Frequency-weighted build workload: the window's
                # statements, repeated by observed count, so the
                # builder optimizes for the mix as served, not
                # one-of-each.
                candidate = self.db.build_layout(
                    policy.strategy,
                    workload=[
                        sql for sql, count in weighted_sql for _ in range(count)
                    ],
                    activate=False,
                    label=f"adapt-{policy.strategy}",
                )
                planner = self.db.planner
                weighted_queries = [
                    (planner.plan(sql).query, count)
                    for sql, count in weighted_sql
                ]
                incumbent_blocks = offline_blocks_cost(incumbent, weighted_queries)
                candidate_blocks = offline_blocks_cost(candidate, weighted_queries)
                beats = candidate_blocks <= incumbent_blocks * (
                    1.0 - policy.min_improvement
                )
                event = AdaptEvent(
                    kind="swap" if beats else "rejected",
                    drift_score=drift_score,
                    strategy=policy.strategy,
                    incumbent_blocks=incumbent_blocks,
                    candidate_blocks=candidate_blocks,
                    generation=candidate.generation,
                )
                if beats:
                    self.db.swap_layout(candidate)
                    # Every generation pins a full materialized copy
                    # of the table: keeping the superseded one would
                    # grow memory by one dataset copy per swap.
                    if incumbent is not None:
                        try:
                            self.db.drop_layout(incumbent)
                        except ValueError:
                            pass  # already dropped, or externally managed
                    self.detector.rebase(self.log.signature(policy.window))
                    if self.on_swap is not None:
                        self.on_swap(candidate)
                    self.serving = candidate
                else:
                    self.db.drop_layout(candidate)
                attrs.update(asdict(event))
                self._book(event)
                return event
        except Exception as exc:  # the loop must never fail a query
            # The candidate is a full materialized copy of the table:
            # a rebuild that crashed must not leave it registered.
            if candidate is not None and candidate is not self.db.active_layout:
                try:
                    self.db.drop_layout(candidate)
                except ValueError:
                    pass  # the reject branch already dropped it
            self._book(None, error=f"{type(exc).__name__}: {exc}")
            return None

    def _book(
        self, event: Optional[AdaptEvent], error: Optional[str] = None
    ) -> None:
        """Count one decision: a swap, a rejection, or a crash
        (``event`` is ``None``; ``error`` becomes ``last_error``).  A
        rejection or a crash holds off the next rebuild for half a
        window: early drift checks see a window still mixed with the
        old template, and the wait lets the ring fill with the new mix
        instead of rebuilding on every check."""
        ledger = self._ledger
        with self._lock:
            if event is None:
                ledger.crashed += 1
                ledger.last_error = error
            else:
                ledger.events += (event,)
                if event.kind == "swap":
                    ledger.swaps += 1
                    return
                ledger.rejected += 1
            self._cooldown_until = self._arrivals + self.policy.window // 2

    # -- observability -------------------------------------------------

    def stats(self) -> AdaptSnapshot:
        """The adaptation ledger: the counters and decision events,
        plus the point-in-time drift score, log depth and serving
        generation."""
        drift_score, log_records = self.detector.last_score, len(self.log)
        with self._lock:
            return replace(
                self._ledger,
                drift_score=drift_score,
                log_records=log_records,
                generation=self.serving.generation,
            )

    def publish(self, registry: object, **labels: object) -> None:
        """Publish :meth:`stats` as a view into a
        :class:`~repro.obs.registry.MetricsRegistry`."""
        registry.register_view("adapt", labels, lambda: self.stats().rows())

    def report_lines(self) -> Tuple[str, ...]:
        """The ledger's counters and the serving generation, then one
        line per rebuild decision."""
        s, serving = self.stats(), self.serving
        lines = [
            f"drift score        {s.drift_score:.3f}",
            f"adaptation         {s.swaps} swaps / {s.rebuilds} rebuilds / "
            f"{s.rejected} rejected ({s.log_records} log records)",
            f"serving generation {serving.generation} "
            f"({serving.strategy}, {serving.store.num_blocks} blocks)",
        ]
        for event in s.events:
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
            f"checks={s.checks})"
        )
