"""Thread-pool scheduler with bounded admission control.

A naive ``ThreadPoolExecutor`` accepts unbounded work: under heavy
traffic its internal queue grows without limit and tail latency
explodes.  :class:`Scheduler` caps the number of admitted-but-
unfinished queries at ``max_workers + queue_depth``; past that, a
submit either blocks (closed-loop clients) or raises
:class:`AdmissionRejected` (open-loop clients shed load).
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Any, Callable, Optional, Tuple

from ..exec.errors import AdmissionRejected
from ..obs.stats import Stats, counter, gauge

__all__ = ["AdmissionRejected", "Scheduler", "SchedulerStats"]


@dataclass
class SchedulerStats(Stats):
    """Counters describing scheduler behaviour so far.

    The counters reconcile by construction and tests assert it:
    ``submitted`` (admitted) = ``completed`` + ``failed`` +
    ``in_flight``, and every offered unit of work is either admitted
    or ``rejected`` (shed).
    """

    submitted: int = counter("repro_scheduler_submitted_total", "Queries admitted")
    #: Admitted work whose future holds a result.
    completed: int = counter("repro_scheduler_completed_total", "Queries completed")
    rejected: int = counter("repro_scheduler_rejected_total", "Queries shed at admission")
    #: ``merged`` sums the peaks: each shard pool peaks independently,
    #: so the sum is the topology's peak concurrent capacity actually
    #: used (an upper bound on the true simultaneous peak).
    max_in_flight: int = gauge("repro_scheduler_max_in_flight", "Peak concurrent admitted work")
    in_flight: int = gauge("repro_scheduler_in_flight", "Admitted but unfinished right now")
    #: Admitted work whose future holds an exception (or was cancelled).
    failed: int = counter("repro_scheduler_failed_total", "Admitted work that raised")

    @property
    def offered(self) -> int:
        """Everything clients tried to submit (admitted + shed)."""
        return self.submitted + self.rejected


class Scheduler:
    """Bounded-queue thread pool executing serving work.

    Parameters
    ----------
    max_workers:
        Worker threads executing queries concurrently.
    queue_depth:
        Queries allowed to wait beyond the ones actively executing.
    """

    def __init__(self, max_workers: int = 4, queue_depth: int = 64) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if queue_depth < 0:
            raise ValueError("queue_depth must be >= 0")
        self.max_workers = max_workers
        self.queue_depth = queue_depth
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-serve"
        )
        self._slots = threading.BoundedSemaphore(max_workers + queue_depth)
        self._lock = threading.Lock()
        self._stats = SchedulerStats()
        self._shutdown = False

    # ------------------------------------------------------------------

    def submit(
        self,
        fn: Callable[..., Any],
        *args: Any,
        block: bool = True,
        timeout: Optional[float] = None,
        **kwargs: Any,
    ) -> "Future[Any]":
        """Admit one unit of work; returns its future.

        With ``block=False`` (or on timeout) a full admission queue
        raises :class:`AdmissionRejected` instead of waiting.
        """
        if self._shutdown:
            raise RuntimeError("scheduler is shut down")
        if block:
            acquired = self._slots.acquire(timeout=timeout)
        else:
            acquired = self._slots.acquire(blocking=False)
        stats = self._stats
        if not acquired:
            with self._lock:
                stats.rejected += 1
            raise AdmissionRejected(
                f"admission queue full "
                f"({self.max_workers} workers + {self.queue_depth} waiting)"
            )
        try:
            future = self._pool.submit(fn, *args, **kwargs)
        except BaseException:
            self._slots.release()
            raise
        # Counted only once the pool has accepted the work, so a
        # refusing pool leaves nothing to roll back; the release
        # callback is attached after the count, so it can never
        # decrement first.
        with self._lock:
            stats.submitted += 1
            stats.in_flight += 1
            stats.max_in_flight = max(stats.max_in_flight, stats.in_flight)
        future.add_done_callback(self._release)
        return future

    def run(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Execute one unit of work on the calling thread, admitted and
        booked exactly like a submitted one: it waits for an admission
        slot, counts as in flight while it runs, and ends completed or
        failed.  For work shorter than a thread hand-off (a shard's
        scan), where queueing it would cost more than doing it."""
        if self._shutdown:
            raise RuntimeError("scheduler is shut down")
        self._slots.acquire()
        stats = self._stats
        with self._lock:
            stats.submitted += 1
            stats.in_flight += 1
            stats.max_in_flight = max(stats.max_in_flight, stats.in_flight)
        failed = True
        try:
            result = fn(*args, **kwargs)
            failed = False
            return result
        finally:
            self._slots.release()
            with self._lock:
                if failed:
                    stats.failed += 1
                else:
                    stats.completed += 1
                stats.in_flight -= 1

    def _release(self, future: "Future[Any]") -> None:
        self._slots.release()
        failed = future.cancelled() or future.exception() is not None
        with self._lock:
            if failed:
                self._stats.failed += 1
            else:
                self._stats.completed += 1
            self._stats.in_flight -= 1

    # ------------------------------------------------------------------

    def stats(self) -> SchedulerStats:
        with self._lock:
            return replace(self._stats)

    def publish(self, registry: object, **labels: object) -> None:
        """Publish :meth:`stats` as a view into a
        :class:`~repro.obs.registry.MetricsRegistry`."""
        registry.register_view("scheduler", labels, lambda: self.stats().rows())

    def report_lines(self, title: str = "scheduler") -> Tuple[str, ...]:
        s = self.stats()
        return (
            f"{title:<18} {s.submitted} submitted / "
            f"{s.completed} completed / {s.rejected} rejected "
            f"(peak in-flight {s.max_in_flight})",
        )

    def close(self, wait: bool = True) -> None:
        """Stop admitting and (by default) drain admitted work.
        Idempotent."""
        self._shutdown = True
        self._pool.shutdown(wait=wait)

    def __enter__(self) -> "Scheduler":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
