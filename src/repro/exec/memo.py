"""Bounded, thread-safe per-predicate memoization.

One memo discipline is shared by every cached pipeline configuration:
hits cost two dict lookups under a small lock and move the entry to
the back, so a hot predicate outlives a stream of one-off ones; misses
compute *outside* the lock (a racing duplicate computation is benign —
both sides compute the same deterministic entry); inserts evict the
least recently used entry past ``cap``
(:data:`~repro.core.router.MEMO_CAP` by default) so a long-lived
service under ad-hoc traffic cannot grow without limit.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from ..core.predicates import Predicate
from ..core.router import MEMO_CAP

__all__ = ["RouteMemo"]


class RouteMemo:
    """Predicate-fingerprint -> entry memo used by pipeline stages.

    :class:`~repro.exec.stages.RouteStage` memoizes ``(routed BIDs,
    candidate count, survivors)`` — one memo per pipeline — and
    :class:`~repro.exec.stages.ArbitrateStage` its whole decision (the
    winner's triple plus every layout's score), both through this one
    class.
    """

    def __init__(self, cap: int = MEMO_CAP) -> None:
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Predicate, object]" = OrderedDict()
        self.cap = cap

    def get_or_compute(self, key: Predicate, compute):
        with self._lock:
            hit = self._entries.get(key)
            if hit is not None:
                self._entries.move_to_end(key)
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
