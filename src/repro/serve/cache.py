"""Memory-budgeted LRU buffer pool of decoded column arrays.

A scan engine re-decodes every block's filter columns on each query
(the paper's experiments run each query once, so this never mattered).
Under serving traffic the same (block, column) pairs are read over and
over; :class:`BlockCache` keeps decoded arrays in memory under a byte
budget with LRU eviction, shared across all queries and worker
threads.

The cache is a :data:`~repro.engine.executor.ColumnReader`: plug it
into :class:`~repro.engine.executor.ScanEngine` via ``column_reader=
cache.read_columns`` and cached and uncached execution share one scan
code path.

``admission="lfu"`` puts a tiny-LFU-style frequency gate in front of
the LRU: every (block, column) access bumps a decayed frequency
counter, and an insert that would evict may only proceed if the
newcomer has been touched at least as often as the LRU victim it
displaces.  One-shot scans of cold blocks then flow *through* the
cache without flushing the hot working set — the classic
scan-resistance failure of plain LRU.  Admission only decides what is
*kept*, never what is *returned*, so results are bit-identical under
either policy.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..obs.stats import Stats, counter, gauge
from ..storage.blocks import Block

__all__ = ["BlockCache", "CacheStats"]


@dataclass
class CacheStats(Stats):
    """Buffer-pool accounting: the pool's live counters, and (as a
    copy) a consistent point-in-time snapshot of them."""

    hits: int = counter("repro_cache_hits_total", "Buffer-pool hits")
    misses: int = counter("repro_cache_misses_total", "Buffer-pool misses")
    evictions: int = counter("repro_cache_evictions_total", "Evictions")
    entries: int = gauge("repro_cache_entries", "Resident entries")
    cached_bytes: int = gauge("repro_cache_bytes", "Resident bytes")
    budget_bytes: int = gauge("repro_cache_budget_bytes", "Byte budget")
    #: The work the cache exists to avoid.
    decoded_bytes: int = counter("repro_cache_decoded_bytes_total", "Bytes decoded on misses")
    #: Decode work avoided.
    served_bytes: int = counter(
        "repro_cache_served_bytes_total", "Bytes served straight from the pool"
    )
    #: 0 under plain LRU.
    admission_rejections: int = counter(
        "repro_cache_admission_rejections_total",
        "Inserts the admission gate turned away",
    )

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


#: Frequency counters are capped here (a key can't hoard history) and
#: halved once this many accesses have been sampled (old popularity
#: decays, so the gate tracks the *current* working set).
_FREQ_CAP = 15
_FREQ_SAMPLE_LIMIT = 32_768


class BlockCache:
    """Thread-safe LRU cache of decoded column arrays.

    Parameters
    ----------
    budget_bytes:
        Maximum decoded bytes held at once.  Inserting past the budget
        evicts least-recently-used entries; a single column larger than
        the whole budget is served decode-through (never cached).
    admission:
        ``"lru"`` (default) admits every insert; ``"lfu"`` adds the
        tiny-LFU frequency gate described in the module docstring —
        an insert may only displace the LRU victim if the newcomer has
        been accessed at least as often.  Either way, returned arrays
        are identical; only retention differs.
    """

    def __init__(self, budget_bytes: int, admission: str = "lru") -> None:
        if budget_bytes < 0:
            raise ValueError("budget_bytes must be >= 0")
        if admission not in ("lru", "lfu"):
            raise ValueError(
                f"admission must be 'lru' or 'lfu', got {admission!r}"
            )
        self.budget_bytes = budget_bytes
        self.admission = admission
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple[int, str], np.ndarray]" = OrderedDict()
        self._stats = CacheStats(budget_bytes=budget_bytes)
        #: Decayed access-frequency sketch (LFU admission only).
        self._freq: Dict[Tuple[int, str], int] = {}
        self._freq_samples = 0

    # ------------------------------------------------------------------
    # The ColumnReader hook
    # ------------------------------------------------------------------

    def read_columns(
        self, block: Block, names: Sequence[str]
    ) -> Dict[str, np.ndarray]:
        """Serve decoded columns, filling the pool on misses.

        Cached arrays are marked read-only before they are shared:
        every consumer (and every thread) sees the same immutable
        buffer, so a hit is a dict lookup, not a copy.

        Columns requested by one call are equally recent; processing
        them in sorted-name order makes the LRU order — and therefore
        eviction under equal-recency ties — independent of the order
        the caller listed the names, so differential runs with a fixed
        seed reproduce the same cache state and eviction counts.
        """
        out: Dict[str, np.ndarray] = {}
        missing = []
        names = sorted(set(names))
        stats = self._stats
        with self._lock:
            for name in names:
                key = (block.block_id, name)
                if self.admission == "lfu":
                    self._touch(key)
                arr = self._entries.get(key)
                if arr is not None:
                    self._entries.move_to_end(key)
                    stats.hits += 1
                    stats.served_bytes += arr.nbytes
                    out[name] = arr
                else:
                    stats.misses += 1
                    missing.append(name)
        # Decode outside the lock: numpy decode kernels release the GIL,
        # so concurrent misses on different blocks overlap.
        for name in missing:
            decoded = block.read_column(name)
            # Freeze a *view*, never the decoded array itself: for
            # PLAIN chunks read_column returns the block's own payload
            # by reference, and freezing that would make the block
            # (and any caller-owned source array) read-only for good.
            arr = decoded.view()
            arr.setflags(write=False)
            out[name] = arr
            with self._lock:
                stats.decoded_bytes += arr.nbytes
                self._insert((block.block_id, name), arr)
        return out

    # ------------------------------------------------------------------

    def _touch(self, key: Tuple[int, str]) -> None:
        """Bump the decayed access-frequency counter (held lock)."""
        self._freq[key] = min(self._freq.get(key, 0) + 1, _FREQ_CAP)
        self._freq_samples += 1
        if self._freq_samples >= _FREQ_SAMPLE_LIMIT:
            # Halve every counter (dropping zeros) so popularity decays
            # and the sketch cannot grow without bound.
            self._freq = {
                k: v // 2 for k, v in self._freq.items() if v >= 2
            }
            self._freq_samples = 0

    def _insert(self, key: Tuple[int, str], arr: np.ndarray) -> None:
        """Insert under the held lock, evicting LRU entries to fit.

        Under LFU admission, each needed eviction is gated: the
        newcomer must have been accessed at least as often as the LRU
        victim it would displace, otherwise the insert is rejected and
        the resident working set survives (the newcomer was served
        decode-through either way).
        """
        if arr.nbytes > self.budget_bytes:
            return  # decode-through: can never fit
        stats = self._stats
        existing = self._entries.pop(key, None)
        if existing is not None:
            stats.cached_bytes -= existing.nbytes
        if self.admission == "lfu":
            freq_new = self._freq.get(key, 0)
            while stats.cached_bytes + arr.nbytes > self.budget_bytes:
                victim = next(iter(self._entries))
                if self._freq.get(victim, 0) > freq_new:
                    stats.admission_rejections += 1
                    return
                _, evicted = self._entries.popitem(last=False)
                stats.cached_bytes -= evicted.nbytes
                stats.evictions += 1
        self._entries[key] = arr
        stats.cached_bytes += arr.nbytes
        while stats.cached_bytes > self.budget_bytes:
            _, evicted = self._entries.popitem(last=False)
            stats.cached_bytes -= evicted.nbytes
            stats.evictions += 1

    def invalidate(self, block_id: Optional[int] = None) -> int:
        """Drop entries for one BID (or all); returns entries dropped."""
        with self._lock:
            if block_id is None:
                dropped = len(self._entries)
                self._entries.clear()
                self._stats.cached_bytes = 0
                return dropped
            keys = [k for k in self._entries if k[0] == block_id]
            for key in keys:
                self._stats.cached_bytes -= self._entries.pop(key).nbytes
            return len(keys)

    def stats(self) -> CacheStats:
        with self._lock:
            return replace(self._stats, entries=len(self._entries))

    def publish(self, registry: object, **labels: object) -> None:
        """Publish :meth:`stats` as a view into a
        :class:`~repro.obs.registry.MetricsRegistry`."""
        registry.register_view(
            "block_cache", labels, lambda: self.stats().rows()
        )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"BlockCache(entries={s.entries}, "
            f"bytes={s.cached_bytes}/{s.budget_bytes}, "
            f"hit_rate={s.hit_rate:.2f})"
        )
