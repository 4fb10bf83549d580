"""Bounded, thread-safe per-predicate memoization.

One memo discipline is shared by every cached pipeline configuration:
hits cost two dict lookups under a small lock; misses compute *outside*
the lock (a racing duplicate computation is benign — both sides
compute the same deterministic entry); inserts FIFO-evict past ``cap``
so a long-lived service under ad-hoc traffic cannot grow without
limit.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from ..core.predicates import Predicate

__all__ = ["RouteMemo"]


class RouteMemo:
    """Predicate-fingerprint -> entry memo used by pipeline stages.

    :class:`~repro.exec.stages.RouteStage` memoizes ``(routed BIDs,
    candidate count, survivors)`` — one memo per pipeline — and
    :class:`~repro.exec.stages.ArbitrateStage` that triple plus the
    score for every candidate layout, both through this one class.
    """

    def __init__(self, cap: int = 16384) -> None:
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Predicate, object]" = OrderedDict()
        self.cap = cap

    def get_or_compute(self, key: Predicate, compute):
        with self._lock:
            hit = self._entries.get(key)
            if hit is not None:
                return hit
        entry = compute()
        with self._lock:
            self._entries[key] = entry
            while len(self._entries) > self.cap:
                self._entries.popitem(last=False)
        return entry

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
