"""Hash partitioner: the other industry-standard scheme (paper Sec. 1).

Production warehouses commonly hash-partition on selected fields for
parallelism and load balance.  Hashing scatters value ranges across all
blocks, so min-max indexes cannot prune range queries at all; only
exact-match queries on the hash column can skip (a block holds one hash
residue class).  Included to quantify the paper's claim that neither
hash nor range partitioning "equate the sophisticated combination of
cuts produced by a qd-tree layout" (Sec. 7.7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..storage.table import Table

__all__ = ["HashPartitioner"]


def _mix(values: np.ndarray) -> np.ndarray:
    """A cheap 64-bit integer hash (splitmix64 finalizer)."""
    h = values.astype(np.uint64, copy=True)
    h ^= h >> np.uint64(30)
    h *= np.uint64(0xBF58476D1CE4E5B9)
    h ^= h >> np.uint64(27)
    h *= np.uint64(0x94D049BB133111EB)
    h ^= h >> np.uint64(31)
    return h


@dataclass
class HashPartitioner:
    """Hash rows into ``num_blocks`` buckets on the given columns."""

    columns: Sequence[str]
    num_blocks: int
    name: str = "hash"

    def partition(self, table: Table) -> np.ndarray:
        """Per-row BID assignment."""
        if not self.columns:
            raise ValueError("hash partitioner needs at least one column")
        if self.num_blocks < 1:
            raise ValueError("num_blocks must be >= 1")
        acc = np.zeros(table.num_rows, dtype=np.uint64)
        for i, column in enumerate(self.columns):
            values = table.column(column)
            # Quantize floats so equal values hash equally.
            ints = np.round(values * 1_000_003).astype(np.int64).view(np.uint64)
            # Per-column salt, wrapped mod 2**64 (the product overflows
            # uint64 from the third column on).
            salt = np.uint64(i * 0x9E3779B97F4A7C15 % 2**64)
            acc ^= _mix(ints + salt)
        return (acc % np.uint64(self.num_blocks)).astype(np.int64)
