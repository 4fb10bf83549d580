"""Memory-budgeted LRU buffer pool of decoded column arrays.

A scan engine re-decodes every block's filter columns on each query
(the paper's experiments run each query once, so this never mattered).
Under serving traffic the same (block, column) pairs are read over and
over; :class:`BlockCache` keeps decoded arrays in memory under a byte
budget with LRU eviction, shared across all queries and worker
threads.

:meth:`BlockCache.read_blocks` is a
:data:`~repro.engine.executor.ColumnReader`: plug it into
:class:`~repro.engine.executor.ScanEngine` via ``column_reader=
cache.read_blocks`` and cached and uncached execution share one scan
code path.  A scan fetches all of its blocks' filter columns in one
call — one lock pass of lookups, decodes outside the lock, one lock
pass of inserts — and :meth:`BlockCache.read_columns` is that same
call for a single block.

Every decoded column is admitted; eviction is strict LRU.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from dataclasses import dataclass, replace
from functools import partial
from itertools import compress, product
from operator import attrgetter, is_not, not_
from typing import Dict, List, Optional, Sequence, Tuple

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

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


_BLOCK_ID = attrgetter("block_id")
_NBYTES = attrgetter("nbytes")
_IS_ARRAY = partial(is_not, None)


class BlockCache:
    """Thread-safe LRU cache of decoded column arrays.

    Parameters
    ----------
    budget_bytes:
        Maximum decoded bytes held at once.  Inserting past the budget
        evicts least-recently-used entries; a single column larger than
        the whole budget is served decode-through (never cached).
    """

    def __init__(self, budget_bytes: int) -> None:
        if budget_bytes < 0:
            raise ValueError("budget_bytes must be >= 0")
        self.budget_bytes = budget_bytes
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple[int, str], np.ndarray]" = OrderedDict()
        self._stats = CacheStats(budget_bytes=budget_bytes)

    # ------------------------------------------------------------------
    # The ColumnReader hook
    # ------------------------------------------------------------------

    def read_blocks(
        self, blocks: Sequence[Block], names: Sequence[str]
    ) -> Dict[str, List[np.ndarray]]:
        """Serve decoded columns of many blocks at once, filling the
        pool on misses: ``{name: [array per block]}``.

        One lock pass looks every (block, column) pair up in (block,
        sorted name) order; misses decode outside the lock and are
        then inserted in that same order.  Sorting the names makes the
        LRU order — and therefore eviction under equal-recency ties —
        independent of the order the caller listed them, so
        differential runs with a fixed seed reproduce the same cache
        state and eviction counts.

        Cached arrays are marked read-only before they are shared:
        every consumer (and every thread) sees the same immutable
        buffer, so a hit is a dict lookup, not a copy.
        """
        names = sorted(set(names))
        keys = list(product(map(_BLOCK_ID, blocks), names))
        entries = self._entries
        stats = self._stats
        # The per-key work runs in C (map / compress / deque): a scan
        # looks up hundreds of keys, and a Python loop here would cost
        # more than the predicate evaluation it feeds.
        with self._lock:
            found = list(map(entries.get, keys))
            cached = list(map(_IS_ARRAY, found))
            hits = list(compress(keys, cached))
            deque(map(entries.move_to_end, hits), maxlen=0)
            stats.hits += len(hits)
            stats.misses += len(keys) - len(hits)
            stats.served_bytes += sum(map(_NBYTES, compress(found, cached)))
        if len(hits) < len(keys):
            missing = list(compress(range(len(keys)), map(not_, cached)))
            # Decode outside the lock: numpy decode kernels release the
            # GIL, so concurrent misses on different blocks overlap.
            width = len(names)
            for i in missing:
                # Freeze a *view*, never the decoded array itself: for
                # PLAIN chunks read_column returns the block's own
                # payload by reference, and freezing that would make the
                # block (and any caller-owned source array) read-only
                # for good.
                arr = blocks[i // width].read_column(names[i % width]).view()
                arr.setflags(write=False)
                found[i] = arr
            with self._lock:
                for i in missing:
                    stats.decoded_bytes += found[i].nbytes
                    self._insert(keys[i], found[i])
        return {name: found[j :: len(names)] for j, name in enumerate(names)}

    def read_columns(
        self, block: Block, names: Sequence[str]
    ) -> Dict[str, np.ndarray]:
        """:meth:`read_blocks` for one block: ``{name: array}``."""
        out = self.read_blocks((block,), names)
        return {name: arrays[0] for name, arrays in out.items()}

    # ------------------------------------------------------------------

    def _insert(self, key: Tuple[int, str], arr: np.ndarray) -> None:
        """Insert under the held lock, evicting LRU entries to fit."""
        if arr.nbytes > self.budget_bytes:
            return  # decode-through: can never fit
        stats = self._stats
        existing = self._entries.pop(key, None)
        if existing is not None:
            stats.cached_bytes -= existing.nbytes
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
