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
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence, Tuple

from ..exec.errors import AdmissionRejected

__all__ = ["AdmissionRejected", "Scheduler", "SchedulerStats"]


@dataclass(frozen=True)
class SchedulerStats:
    """Counters describing scheduler behaviour so far.

    The counters reconcile by construction and tests assert it:
    ``submitted`` (admitted) = ``completed`` + ``in_flight``, and every
    offered unit of work is either admitted or ``rejected`` (shed).
    """

    submitted: int
    completed: int
    rejected: int
    max_in_flight: int
    #: Admitted but not yet finished at snapshot time.
    in_flight: int = 0

    @property
    def offered(self) -> int:
        """Everything clients tried to submit (admitted + shed)."""
        return self.submitted + self.rejected

    @classmethod
    def merged(cls, parts: Sequence["SchedulerStats"]) -> "SchedulerStats":
        """Aggregate across shards.  ``max_in_flight`` sums: each shard
        pool peaks independently, so the sum is the topology's peak
        concurrent capacity actually used (an upper bound on the true
        simultaneous peak)."""
        return cls(
            submitted=sum(p.submitted for p in parts),
            completed=sum(p.completed for p in parts),
            rejected=sum(p.rejected for p in parts),
            max_in_flight=sum(p.max_in_flight for p in parts),
            in_flight=sum(p.in_flight for p in parts),
        )


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
        self._submitted = 0
        self._completed = 0
        self._rejected = 0
        self._in_flight = 0
        self._max_in_flight = 0
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
        if not acquired:
            with self._lock:
                self._rejected += 1
            raise AdmissionRejected(
                f"admission queue full "
                f"({self.max_workers} workers + {self.queue_depth} waiting)"
            )
        with self._lock:
            self._submitted += 1
            self._in_flight += 1
            self._max_in_flight = max(self._max_in_flight, self._in_flight)
        try:
            future = self._pool.submit(fn, *args, **kwargs)
        except BaseException:
            self._slots.release()
            with self._lock:
                self._in_flight -= 1
            raise
        future.add_done_callback(self._release)
        return future

    def _release(self, _future: "Future[Any]") -> None:
        self._slots.release()
        with self._lock:
            self._completed += 1
            self._in_flight -= 1

    # ------------------------------------------------------------------

    def stats(self) -> SchedulerStats:
        with self._lock:
            return SchedulerStats(
                submitted=self._submitted,
                completed=self._completed,
                rejected=self._rejected,
                max_in_flight=self._max_in_flight,
                in_flight=self._in_flight,
            )

    def publish(self, registry: object, **labels: object) -> None:
        """Publish a collector view of :meth:`stats` into a
        :class:`~repro.obs.registry.MetricsRegistry` (thin view — the
        :class:`SchedulerStats` snapshot stays the source of truth)."""

        def rows():
            s, c, g = self.stats(), "counter", "gauge"
            yield "repro_scheduler_submitted_total", s.submitted, "Queries admitted", c
            yield "repro_scheduler_completed_total", s.completed, "Queries completed", c
            yield "repro_scheduler_rejected_total", s.rejected, "Queries shed at admission", c
            yield "repro_scheduler_in_flight", s.in_flight, "Admitted but unfinished right now", g
            yield (
                "repro_scheduler_max_in_flight",
                s.max_in_flight,
                "Peak concurrent admitted work",
                g,
            )

        registry.register_view("scheduler", labels, rows)

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
