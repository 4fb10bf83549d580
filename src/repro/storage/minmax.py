"""Min-max (small materialized aggregate / zone map) block indexes.

Every block in a scan-oriented store carries per-column minimum and
maximum values (paper Sec. 1, Sec. 8 "Partition Pruning").  The engine
consults this index to skip blocks whose value ranges cannot intersect a
query.  For categorical columns we additionally keep a distinct-value
bit set — the "block dictionary" the paper credits for categorical
pruning on Parquet (Sec. 7.5.1); the commercial-DBMS cost profile can be
configured without it to reproduce the paper's ``no route`` collapse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .table import Table

__all__ = ["ColumnStats", "MinMaxIndex"]


@dataclass(frozen=True)
class ColumnStats:
    """Per-block statistics for one column.

    ``minimum``/``maximum`` are over encoded values.  ``distinct`` is a
    ``|Dom|``-sized bit vector for categorical columns (1 = value
    present in the block) and ``None`` for numeric columns.
    """

    minimum: float
    maximum: float
    distinct: Optional[np.ndarray] = field(default=None)


class MinMaxIndex:
    """The SMA index over one block's rows.

    Parameters
    ----------
    stats:
        Column name -> :class:`ColumnStats`.  Columns absent from the
        mapping are treated as unbounded (the block can never be skipped
        on them).
    """

    def __init__(self, stats: Dict[str, ColumnStats]) -> None:
        self._stats = dict(stats)

    @classmethod
    def build(
        cls,
        table: Table,
        with_dictionaries: bool = True,
        columns: Optional[Sequence[str]] = None,
    ) -> "MinMaxIndex":
        """Compute the index over ``table``'s rows.

        ``with_dictionaries=False`` drops the categorical distinct-value
        bit sets, modelling engines without block-level dictionaries.
        """
        names = columns if columns is not None else table.schema.column_names
        stats: Dict[str, ColumnStats] = {}
        for name in names:
            arr = table.column(name)
            if len(arr) == 0:
                continue
            col = table.schema[name]
            distinct = None
            if col.is_categorical and with_dictionaries:
                dom = max(col.domain_size, int(arr.max()) + 1)
                distinct = np.zeros(dom, dtype=bool)
                distinct[np.unique(arr).astype(np.int64)] = True
            stats[name] = ColumnStats(
                minimum=float(arr.min()),
                maximum=float(arr.max()),
                distinct=distinct,
            )
        return cls(stats)

    def __contains__(self, column: str) -> bool:
        return column in self._stats

    def column_stats(self, column: str) -> Optional[ColumnStats]:
        """Stats for a column, or ``None`` when untracked."""
        return self._stats.get(column)

    def columns(self) -> Tuple[str, ...]:
        return tuple(self._stats)

    def bounds(self, column: str) -> Optional[Tuple[float, float]]:
        """(min, max) for a column, or ``None`` when untracked."""
        stats = self._stats.get(column)
        if stats is None:
            return None
        return stats.minimum, stats.maximum

    def __repr__(self) -> str:
        return f"MinMaxIndex(columns={list(self._stats)})"
