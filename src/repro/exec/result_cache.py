"""Generation-keyed memoization of full query results.

The routing memo (:class:`~repro.exec.memo.RouteMemo`) spares a
repeated predicate the tree walk and the per-block min-max
intersection, but the surviving blocks are still *scanned* on every
arrival.  :class:`ResultCache` closes that gap: the finished
:class:`~repro.engine.executor.QueryStats` (and the routed BID list
that produced it) is memoized per **(query fingerprint, layout
generation)**, so a repeat of the same query against the same layout
generation skips planning's downstream entirely — no routing, no
pruning, no scan.

The layout *generation* is the invalidation story.  Every layout a
:class:`~repro.db.Database` builds — and every ingest, which produces
a new store — is stamped with a monotonically increasing generation
number.  Serving facades look entries up under the generation of the
layout they serve; a generation change (``db.ingest``,
``db.swap_layout``) therefore makes every old entry unreachable, and
the database additionally purges them eagerly (:meth:`retain`) so the
cache never carries dead weight.  Within one generation the store is
immutable, which is what makes result memoization sound at all.

Entries are shared across facades: a single :class:`ResultCache` can
sit behind the library path (``db.execute``), an unsharded
:class:`~repro.serve.LayoutService` and a sharded coordinator
at once — all three run the same
:class:`~repro.exec.pipeline.QueryPipeline` stages and produce
``result_key``-identical stats for the same (query, generation), so
whichever computes first populates the entry for the others.

Alongside the stats entries the cache keeps a second, **byte-bounded**
store of matched row-id arrays (:meth:`get_row_ids` /
:meth:`put_row_ids`), so repeated ``collect_row_ids`` calls are free.
Row-id payloads are bounded by total bytes — not entry count — because
one very unselective query can match more rows than thousands of
selective ones; LRU payloads are dropped once the budget is exceeded,
and an array larger than the whole budget is never admitted.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from ..core.workload import Query
from ..engine.executor import QueryStats
from ..obs.stats import Stats, counter, gauge

__all__ = [
    "CachedResult",
    "DEFAULT_ROW_ID_BUDGET",
    "ResultCache",
    "ResultCacheStats",
]

#: (query fingerprint, layout generation) — see :meth:`ResultCache.key_for`.
_Key = Tuple[object, int]

#: Default byte budget for cached row-id arrays (8 bytes per row id).
DEFAULT_ROW_ID_BUDGET = 32 * 1024 * 1024


@dataclass(frozen=True)
class CachedResult:
    """One memoized query outcome.

    ``stats`` is the first execution's :class:`QueryStats`; every
    deterministic field (``result_key()``) is — by the per-generation
    immutability argument above — exactly what a fresh execution would
    produce.  ``wall_seconds`` inside is the *original* scan's wall
    time; serving facades report the (much smaller) hit latency
    through their metrics instead.
    """

    stats: QueryStats
    routed_block_ids: Optional[Tuple[int, ...]] = None


@dataclass
class ResultCacheStats(Stats):
    """Result-cache accounting: the cache's live counters, and (as a
    copy) a consistent point-in-time snapshot of them."""

    hits: int = counter("repro_result_cache_hits_total", "Result-cache hits")
    misses: int = counter("repro_result_cache_misses_total", "Result-cache misses")
    entries: int = gauge("repro_result_cache_entries", "Result-cache entries resident")
    evictions: int = counter()
    #: Entries dropped by generation purges (ingest / swap_layout).
    invalidated: int = counter()
    #: Tuple-scans a fresh execution would have performed but a hit
    #: avoided — the work the cache exists to skip.
    tuples_avoided: int = counter(
        "repro_result_cache_tuples_avoided_total",
        "Tuple-scans the result cache avoided",
    )
    #: Row-id store accounting (the byte-bounded collect_row_ids memo).
    row_id_hits: int = counter()
    row_id_misses: int = counter()
    row_id_entries: int = gauge()
    row_id_bytes: int = gauge()
    row_id_evictions: int = counter()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def row_id_hit_rate(self) -> float:
        total = self.row_id_hits + self.row_id_misses
        return self.row_id_hits / total if total else 0.0


class ResultCache:
    """Bounded, thread-safe (fingerprint, generation) -> result memo.

    Parameters
    ----------
    cap:
        Maximum stats entries held; inserts past the cap evict
        least-recently-used entries, so a long-lived database under
        ad-hoc traffic cannot grow without limit.
    row_id_byte_budget:
        Total bytes of matched row-id arrays the cache may hold
        (``0`` disables row-id caching entirely).  Row-id payloads are
        bounded by bytes, not entry count.
    """

    def __init__(
        self,
        cap: int = 8192,
        row_id_byte_budget: int = DEFAULT_ROW_ID_BUDGET,
    ) -> None:
        if cap < 1:
            raise ValueError("cap must be >= 1")
        if row_id_byte_budget < 0:
            raise ValueError("row_id_byte_budget must be >= 0")
        self.cap = cap
        self.row_id_byte_budget = row_id_byte_budget
        self._lock = threading.Lock()
        self._entries: "OrderedDict[_Key, CachedResult]" = OrderedDict()
        self._row_ids: "OrderedDict[_Key, np.ndarray]" = OrderedDict()
        self._stats = ResultCacheStats()

    # ------------------------------------------------------------------

    @staticmethod
    def key_for(query: Query, profile: object = None) -> object:
        """The query fingerprint: every input that feeds a
        deterministic stat.  The predicate alone is NOT enough — two
        statements with the same WHERE clause but different
        projections scan different column counts — so the fingerprint
        also carries the scan columns, the provenance names, and the
        cost profile (``columns_read``/``modeled_ms`` depend on it)."""
        return (
            query.predicate,
            query.scan_columns(),
            query.name,
            query.template,
            profile,
        )

    def get(
        self, query: Query, generation: int, profile: object = None
    ) -> Optional[CachedResult]:
        """Memoized result for ``query`` under ``generation``, if any."""
        key = (self.key_for(query, profile), generation)
        with self._lock:
            hit = self._entries.get(key)
            if hit is None:
                self._stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self._stats.hits += 1
            self._stats.tuples_avoided += hit.stats.tuples_scanned
            return hit

    def put(
        self,
        query: Query,
        generation: int,
        result: CachedResult,
        profile: object = None,
    ) -> None:
        """Memoize one outcome (racing duplicate puts are benign —
        both computed the same deterministic fields)."""
        key = (self.key_for(query, profile), generation)
        with self._lock:
            self._entries[key] = result
            self._entries.move_to_end(key)
            while len(self._entries) > self.cap:
                self._entries.popitem(last=False)
                self._stats.evictions += 1

    # ------------------------------------------------------------------
    # Row-id store (byte-bounded)
    # ------------------------------------------------------------------

    def get_row_ids(
        self, query: Query, generation: int, profile: object = None
    ) -> Optional[np.ndarray]:
        """Memoized matched row ids for ``query``/``generation``.

        Returns a read-only int64 array, or ``None`` on a miss (the
        caller computes through the engine and calls
        :meth:`put_row_ids`)."""
        key = (self.key_for(query, profile), generation)
        with self._lock:
            hit = self._row_ids.get(key)
            if hit is None:
                self._stats.row_id_misses += 1
                return None
            self._row_ids.move_to_end(key)
            self._stats.row_id_hits += 1
            return hit

    def put_row_ids(
        self,
        query: Query,
        generation: int,
        row_ids: np.ndarray,
        profile: object = None,
    ) -> bool:
        """Memoize a matched row-id array; returns whether it was kept.

        Arrays larger than the whole byte budget are rejected (caching
        them would immediately evict everything else), and a budget of
        ``0`` disables the store entirely; otherwise LRU payloads are
        dropped until the total is back under budget.  The stats
        entry ``cap`` bounds entry count too, so a flood of zero-byte
        arrays (queries matching no rows) cannot grow the key set
        without limit.
        """
        if self.row_id_byte_budget <= 0:
            return False
        arr = np.asarray(row_ids, dtype=np.int64)
        if arr.nbytes > self.row_id_byte_budget:
            return False
        if arr.flags.writeable:
            arr = arr.copy()
            arr.setflags(write=False)
        key = (self.key_for(query, profile), generation)
        with self._lock:
            old = self._row_ids.pop(key, None)
            if old is not None:
                self._stats.row_id_bytes -= old.nbytes
            self._row_ids[key] = arr
            self._stats.row_id_bytes += arr.nbytes
            while (
                self._stats.row_id_bytes > self.row_id_byte_budget
                or len(self._row_ids) > self.cap
            ):
                _, dropped = self._row_ids.popitem(last=False)
                self._stats.row_id_bytes -= dropped.nbytes
                self._stats.row_id_evictions += 1
            return True

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------

    def retain(self, generation: int) -> int:
        """Drop every entry NOT belonging to ``generation``.

        Called by the database whenever the active generation changes
        (ingest, swap_layout): entries of other generations are
        unreachable from the new serving path anyway, so free them —
        stats entries and row-id payloads alike.  Returns the number
        of entries dropped.
        """
        with self._lock:
            stale = [k for k in self._entries if k[1] != generation]
            for key in stale:
                del self._entries[key]
            stale_ids = [k for k in self._row_ids if k[1] != generation]
            for key in stale_ids:
                self._stats.row_id_bytes -= self._row_ids.pop(key).nbytes
            self._stats.invalidated += len(stale) + len(stale_ids)
            return len(stale) + len(stale_ids)

    def clear(self) -> int:
        """Drop everything; returns the number of entries dropped."""
        with self._lock:
            dropped = len(self._entries) + len(self._row_ids)
            self._entries.clear()
            self._row_ids.clear()
            self._stats.row_id_bytes = 0
            self._stats.invalidated += dropped
            return dropped

    # ------------------------------------------------------------------

    def stats(self) -> ResultCacheStats:
        with self._lock:
            return replace(
                self._stats,
                entries=len(self._entries),
                row_id_entries=len(self._row_ids),
            )

    def publish(self, registry: object, **labels: object) -> None:
        """Publish :meth:`stats` as a view into a
        :class:`~repro.obs.registry.MetricsRegistry`."""
        registry.register_view(
            "result_cache", labels, lambda: self.stats().rows()
        )

    def report_lines(self, generation: Optional[int] = None) -> Tuple[str, ...]:
        """One operator-facing line; ``generation`` names the layout a
        single-generation service looks entries up under."""
        s = self.stats()
        gen = f"gen {generation}, " if generation is not None else ""
        return (
            f"result cache       {s.entries} entries / "
            f"{100 * s.hit_rate:.1f}% hit rate "
            f"({gen}{s.tuples_avoided} tuple-scans avoided, "
            f"{s.row_id_bytes} row-id bytes)",
        )

    def generations(self) -> Tuple[int, ...]:
        """Distinct generations currently holding entries (sorted)."""
        with self._lock:
            gens = {k[1] for k in self._entries}
            gens.update(k[1] for k in self._row_ids)
            return tuple(sorted(gens))

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"ResultCache(entries={s.entries}, hit_rate={s.hit_rate:.2f}, "
            f"row_id_bytes={s.row_id_bytes}, invalidated={s.invalidated})"
        )
