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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .schema import Column
from .table import Table

__all__ = ["ColumnStats", "MinMaxIndex", "segment_stats"]


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


def segment_stats(
    column: Column,
    values: np.ndarray,
    starts: np.ndarray,
    with_dictionaries: bool = True,
    bounds: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> List[ColumnStats]:
    """:class:`ColumnStats` of each non-empty segment
    ``values[starts[i]:starts[i + 1]]``: ``bounds`` (min, max) or two
    ``reduceat``; categorical distinct bits by one flat-index scatter
    into a ``segments x domain`` matrix, row ``i`` cut to
    ``max(|Dom|, segment max + 1)``."""
    if bounds is None:
        bounds = np.minimum.reduceat(values, starts), np.maximum.reduceat(values, starts)
    lo, hi = bounds
    distinct: List[Optional[np.ndarray]] = [None] * len(starts)
    if column.is_categorical and with_dictionaries:
        widths = np.maximum(column.domain_size, hi.astype(np.int64) + 1)
        width = int(widths.max())
        bits = np.zeros((len(starts), width), dtype=bool)
        flat = np.repeat(np.arange(0, bits.size, width), np.diff(np.append(starts, len(values))))
        flat += values.astype(np.int64, copy=False)
        bits.ravel()[flat] = True
        distinct = [row[:w] for row, w in zip(bits, widths.tolist())]
    return [
        ColumnStats(minimum=float(a), maximum=float(b), distinct=d)
        for a, b, d in zip(lo.tolist(), hi.tolist(), distinct)
    ]


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
        if table.num_rows == 0:
            return cls({})
        names = columns if columns is not None else table.schema.column_names
        one = np.zeros(1, dtype=np.int64)
        return cls({
            name: segment_stats(table.schema[name], table.column(name), one, with_dictionaries)[0]
            for name in names
        })

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
