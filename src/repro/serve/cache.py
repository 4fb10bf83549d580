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
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..storage.blocks import Block

__all__ = ["BlockCache", "CacheStats"]


@dataclass(frozen=True)
class CacheStats:
    """A consistent point-in-time snapshot of cache accounting."""

    hits: int
    misses: int
    evictions: int
    entries: int
    cached_bytes: int
    budget_bytes: int
    #: Bytes decoded on misses (the work the cache exists to avoid).
    decoded_bytes: int
    #: Bytes served straight from the pool (decode work avoided).
    served_bytes: int
    #: Inserts the LFU admission gate turned away (0 under plain LRU).
    admission_rejections: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @classmethod
    def merged(cls, parts: Sequence["CacheStats"]) -> "CacheStats":
        """Aggregate accounting across shards: counters and residency
        sum (each shard owns its own budget, like separate machines)."""
        return cls(
            hits=sum(p.hits for p in parts),
            misses=sum(p.misses for p in parts),
            evictions=sum(p.evictions for p in parts),
            entries=sum(p.entries for p in parts),
            cached_bytes=sum(p.cached_bytes for p in parts),
            budget_bytes=sum(p.budget_bytes for p in parts),
            decoded_bytes=sum(p.decoded_bytes for p in parts),
            served_bytes=sum(p.served_bytes for p in parts),
            admission_rejections=sum(p.admission_rejections for p in parts),
        )

    def since(self, earlier: "CacheStats") -> "CacheStats":
        """Activity between ``earlier`` and this snapshot: cumulative
        counters become deltas; residency fields (entries,
        cached/budget bytes) keep this snapshot's point-in-time
        values."""
        return CacheStats(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            evictions=self.evictions - earlier.evictions,
            entries=self.entries,
            cached_bytes=self.cached_bytes,
            budget_bytes=self.budget_bytes,
            decoded_bytes=self.decoded_bytes - earlier.decoded_bytes,
            served_bytes=self.served_bytes - earlier.served_bytes,
            admission_rejections=(
                self.admission_rejections - earlier.admission_rejections
            ),
        )


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
        self._cached_bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._decoded_bytes = 0
        self._served_bytes = 0
        self._admission_rejections = 0
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
        with self._lock:
            for name in names:
                key = (block.block_id, name)
                if self.admission == "lfu":
                    self._touch(key)
                arr = self._entries.get(key)
                if arr is not None:
                    self._entries.move_to_end(key)
                    self._hits += 1
                    self._served_bytes += arr.nbytes
                    out[name] = arr
                else:
                    self._misses += 1
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
                self._decoded_bytes += arr.nbytes
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
        existing = self._entries.pop(key, None)
        if existing is not None:
            self._cached_bytes -= existing.nbytes
        if self.admission == "lfu":
            freq_new = self._freq.get(key, 0)
            while self._cached_bytes + arr.nbytes > self.budget_bytes:
                victim = next(iter(self._entries))
                if self._freq.get(victim, 0) > freq_new:
                    self._admission_rejections += 1
                    return
                _, evicted = self._entries.popitem(last=False)
                self._cached_bytes -= evicted.nbytes
                self._evictions += 1
        self._entries[key] = arr
        self._cached_bytes += arr.nbytes
        while self._cached_bytes > self.budget_bytes:
            _, evicted = self._entries.popitem(last=False)
            self._cached_bytes -= evicted.nbytes
            self._evictions += 1

    def invalidate(self, block_id: Optional[int] = None) -> int:
        """Drop entries for one BID (or all); returns entries dropped."""
        with self._lock:
            if block_id is None:
                dropped = len(self._entries)
                self._entries.clear()
                self._cached_bytes = 0
                return dropped
            keys = [k for k in self._entries if k[0] == block_id]
            for key in keys:
                self._cached_bytes -= self._entries.pop(key).nbytes
            return len(keys)

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                entries=len(self._entries),
                cached_bytes=self._cached_bytes,
                budget_bytes=self.budget_bytes,
                decoded_bytes=self._decoded_bytes,
                served_bytes=self._served_bytes,
                admission_rejections=self._admission_rejections,
            )

    def publish(self, registry: object, **labels: object) -> None:
        """Publish a collector view of :meth:`stats` into a
        :class:`~repro.obs.registry.MetricsRegistry` (thin view — the
        :class:`CacheStats` snapshot stays the source of truth)."""

        def rows():
            s, c, g = self.stats(), "counter", "gauge"
            yield "repro_cache_hits_total", s.hits, "Buffer-pool hits", c
            yield "repro_cache_misses_total", s.misses, "Buffer-pool misses", c
            yield "repro_cache_evictions_total", s.evictions, "Evictions", c
            yield "repro_cache_decoded_bytes_total", s.decoded_bytes, "Bytes decoded on misses", c
            yield (
                "repro_cache_served_bytes_total",
                s.served_bytes,
                "Bytes served straight from the pool",
                c,
            )
            yield (
                "repro_cache_admission_rejections_total",
                s.admission_rejections,
                "Inserts the admission gate turned away",
                c,
            )
            yield "repro_cache_entries", s.entries, "Resident entries", g
            yield "repro_cache_bytes", s.cached_bytes, "Resident bytes", g
            yield "repro_cache_budget_bytes", s.budget_bytes, "Byte budget", g

        registry.register_view("block_cache", labels, rows)

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
