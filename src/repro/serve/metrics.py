"""Serving-side observability: latency, throughput, cache efficiency.

:class:`ServingMetrics` is a thread-safe collector the
:class:`~repro.serve.service.LayoutService` feeds once per completed
query.  :meth:`ServingMetrics.snapshot` freezes the counters into a
:class:`MetricsSnapshot` with the numbers an operator watches: QPS,
latency percentiles (p50/p95/p99), cache hit rate, and bytes decoded
versus bytes served from the buffer pool.  Multi-layout serving adds
per-layout win counts; adaptive serving adds the re-optimizer's
:class:`AdaptSnapshot` ledger.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

import numpy as np

from ..engine.executor import QueryStats
from ..obs.clock import now
from ..obs.stats import Stats, counter, gauge
from .cache import CacheStats

__all__ = ["AdaptSnapshot", "MetricsSnapshot", "ServingMetrics"]


@dataclass
class AdaptSnapshot(Stats):
    """The adaptation ledger: the re-optimizer's live counters and (as
    a copy) the view every serving snapshot carries.

    Filled by the :mod:`repro.adapt` control plane (the serving tier
    itself never computes these): the current drift score and the
    rebuild/swap ledger with its decision events.
    """

    #: Divergence between the build-time and live workload mixes.
    drift_score: float = gauge(
        "repro_adapt_drift_score", "Live-vs-baseline workload divergence", 0.0
    )
    swaps: int = counter("repro_adapt_swaps_total", "Generation hot-swaps installed")
    #: Swaps + rejected, plus the rebuild running now and any
    #: ``adapt_now`` that found an empty window.
    rebuilds: int = counter("repro_adapt_rebuilds_total", "Rebuilds attempted")
    #: Insufficient improvement, or the rebuild itself crashed
    #: (``last_error`` tells them apart).
    rejected: int = counter("repro_adapt_rejected_total", "Candidates built but discarded")
    log_records: int = gauge("repro_adapt_log_records", "Records in the query-log ring")
    generation: int = gauge("repro_adapt_generation", "Generation currently serving")
    #: Drift checks run (every ``check_every`` arrivals).
    checks: int = counter()
    last_error: Optional[str] = None
    #: Completed rebuild decisions (:class:`repro.adapt.AdaptEvent`),
    #: oldest first.
    events: Tuple[object, ...] = ()

    def report_lines(self) -> Tuple[str, ...]:
        return (
            f"drift score        {self.drift_score:.3f}",
            f"adaptation         {self.swaps} swaps / "
            f"{self.rebuilds} rebuilds / {self.rejected} rejected "
            f"({self.log_records} log records)",
        )


@dataclass
class MetricsSnapshot(Stats):
    """Serving metrics over one observation window: the collector's
    live counters and (as a copy, with the window's derived gauges
    filled in) its frozen snapshot.

    ``bytes_read`` counts decoded bytes queries consumed; with a
    buffer pool attached, ``cache.decoded_bytes`` /
    ``cache.served_bytes`` split that into real decode work versus
    pool hits.
    """

    queries: int = counter("repro_serve_queries_total", "Queries served")
    window_seconds: float = gauge("repro_serve_window_seconds", "Observation window length", 0.0)
    qps: float = gauge("repro_serve_qps", "Window throughput", 0.0)
    latency_mean_ms: float = gauge(
        "repro_serve_latency_mean_ms", "Mean latency over the window", 0.0
    )
    latency_p50_ms: float = gauge(
        "repro_serve_latency_p50_ms", "Median latency over the window", 0.0
    )
    latency_p95_ms: float = gauge("repro_serve_latency_p95_ms", "p95 latency over the window", 0.0)
    latency_p99_ms: float = gauge("repro_serve_latency_p99_ms", "p99 latency over the window", 0.0)
    blocks_scanned: int = counter(
        "repro_serve_blocks_scanned_total", "Blocks scanned (cache hits excluded)"
    )
    tuples_scanned: int = counter(
        "repro_serve_tuples_scanned_total", "Tuples scanned (cache hits excluded)"
    )
    rows_returned: int = counter("repro_serve_rows_returned_total", "Rows returned to clients")
    bytes_read: int = counter("repro_serve_bytes_read_total", "Decoded bytes queries consumed")
    cache: Optional[CacheStats] = None
    #: Multi-layout arbitration: (layout label, queries won) pairs,
    #: most wins first; empty outside multi-layout serving.
    layout_wins: Tuple[Tuple[str, int], ...] = counter(
        "repro_serve_layout_wins_total",
        "Queries each layout won under arbitration",
        label="layout",
        default=(),
    )
    #: Adaptation-loop counters (``None`` outside adaptive serving).
    adapt: Optional[AdaptSnapshot] = None
    #: Queries a raising stage aborted (they count nowhere else).
    errors: int = counter("repro_serve_errors_total", "Queries that raised")

    @property
    def cache_hit_rate(self) -> float:
        return self.cache.hit_rate if self.cache is not None else 0.0

    @property
    def bytes_decoded(self) -> int:
        """Bytes actually decoded (all of ``bytes_read`` when no
        buffer pool sits in front of the scan)."""
        if self.cache is not None:
            return self.cache.decoded_bytes
        return self.bytes_read

    def report(self) -> str:
        """Human-readable multi-line report."""
        lines = [
            f"queries            {self.queries}",
            f"window             {self.window_seconds:.3f} s",
            f"throughput         {self.qps:.1f} qps",
            (
                f"latency mean/p50   {self.latency_mean_ms:.3f} / "
                f"{self.latency_p50_ms:.3f} ms"
            ),
            (
                f"latency p95/p99    {self.latency_p95_ms:.3f} / "
                f"{self.latency_p99_ms:.3f} ms"
            ),
            f"blocks scanned     {self.blocks_scanned}",
            f"tuples scanned     {self.tuples_scanned}",
            f"rows returned      {self.rows_returned}",
            f"bytes read         {self.bytes_read}",
            f"bytes decoded      {self.bytes_decoded}",
        ]
        if self.cache is not None:
            lines.append(
                f"cache hit rate     {100 * self.cache.hit_rate:.1f}% "
                f"({self.cache.hits} hits / {self.cache.misses} misses, "
                f"{self.cache.evictions} evictions)"
            )
            lines.append(
                f"cache residency    {self.cache.cached_bytes}/"
                f"{self.cache.budget_bytes} bytes "
                f"in {self.cache.entries} entries"
            )
        if self.layout_wins:
            won = ", ".join(f"{label}: {n}" for label, n in self.layout_wins)
            lines.append(f"layout wins        {won}")
        if self.adapt is not None:
            lines.extend(self.adapt.report_lines())
        return "\n".join(lines)


def _percentile(latencies_ms: np.ndarray, q: float) -> float:
    """Percentile that degenerates to 0.0 on an empty window instead
    of letting ``np.percentile`` raise on a zero-length sample."""
    return float(np.percentile(latencies_ms, q)) if len(latencies_ms) else 0.0


class ServingMetrics:
    """Accumulates per-query observations from concurrent workers.

    Latency samples are kept in a bounded window (``max_samples`` most
    recent) so a long-lived service cannot grow without limit; the
    scalar counters stay cumulative.
    """

    def __init__(self, max_samples: int = 100_000) -> None:
        self._lock = threading.Lock()
        self._latencies: "deque[float]" = deque(maxlen=max_samples)
        self._wins: Dict[str, int] = {}
        self._stats = MetricsSnapshot()
        self._window_start = now()
        self._last_record = self._window_start

    def record(
        self,
        latency_seconds: float,
        stats: QueryStats,
        cached: bool = False,
        winner: Optional[str] = None,
    ) -> None:
        """Record one completed query (called by any worker thread).

        ``cached=True`` marks a result served from a result cache: the
        query and its latency count (traffic really happened) and so
        does ``rows_returned`` (results really left the service), but
        the scan-work counters do NOT — no block was touched, and
        double-booking the original execution's tuples/bytes here
        would inflate the IO report with work that never ran.

        ``winner`` is the label of the layout the multi-layout arbiter
        picked for this query (counted for cached hits too: the
        decision stands, the cache merely spared the scan).
        """
        with self._lock:
            window = self._stats
            self._latencies.append(latency_seconds)
            window.queries += 1
            window.rows_returned += stats.rows_returned
            if not cached:
                window.blocks_scanned += stats.blocks_scanned
                window.tuples_scanned += stats.tuples_scanned
                window.bytes_read += stats.bytes_read
            if winner is not None:
                self._wins[winner] = self._wins.get(winner, 0) + 1
            self._last_record = now()

    def record_error(self) -> None:
        """Count one query a raising stage aborted.  ``queries`` and
        the scan counters do not move: nothing was served."""
        with self._lock:
            self._stats.errors += 1

    def win_counts(self) -> Dict[str, int]:
        """Per-layout queries won (multi-layout serving only)."""
        with self._lock:
            return dict(self._wins)

    def reset(self) -> None:
        """Start a fresh observation window."""
        with self._lock:
            self._latencies.clear()
            self._wins.clear()
            self._stats = MetricsSnapshot()
            self._window_start = now()
            self._last_record = self._window_start

    def publish(self, registry: object, **labels: object) -> None:
        """Publish :meth:`snapshot` as a view into a
        :class:`~repro.obs.registry.MetricsRegistry`: one
        :class:`MetricsSnapshot` is frozen per export."""
        registry.register_view(
            "serving_metrics", labels, lambda: self.snapshot().rows()
        )

    def snapshot(
        self,
        cache: Optional[CacheStats] = None,
        adapt: Optional[AdaptSnapshot] = None,
    ) -> MetricsSnapshot:
        """Freeze the current window (optionally attaching cache and
        adaptation accounting so one report covers the whole serving
        stack)."""
        with self._lock:
            wins = tuple(
                sorted(self._wins.items(), key=lambda kv: (-kv[1], kv[0]))
            )
            lat_ms = np.asarray(self._latencies, dtype=np.float64) * 1000.0
            window = max(self._last_record - self._window_start, 0.0)
            # Window spans from collector start/reset to the last
            # completion; an empty window degenerates to all zeros
            # (qps, mean and the guarded percentiles included).
            return replace(
                self._stats,
                window_seconds=window,
                qps=self._stats.queries / window if window > 0 else 0.0,
                latency_mean_ms=float(lat_ms.mean()) if len(lat_ms) else 0.0,
                latency_p50_ms=_percentile(lat_ms, 50),
                latency_p95_ms=_percentile(lat_ms, 95),
                latency_p99_ms=_percentile(lat_ms, 99),
                cache=cache,
                layout_wins=wins,
                adapt=adapt,
            )
