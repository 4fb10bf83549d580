"""In-memory columnar table: the tuple set ``V`` of the paper.

A :class:`Table` pairs a :class:`~repro.storage.schema.Schema` with one
numpy array per column (all the same length).  Categorical columns hold
dictionary codes (int64); numeric columns hold int64 or float64.

Tables are immutable-by-convention: operations like :meth:`take` and
:meth:`sample` return new tables sharing column buffers where possible.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Optional, Sequence, Tuple

import numpy as np

from .schema import ColumnKind, Schema, SchemaError

__all__ = ["RowGroups", "Table", "group_rows"]


class RowGroups:
    """Positions grouped by id with one stable argsort, not one pass
    per id: group ``i`` holds id ``ids[i]`` (ascending) at positions
    ``order[starts[i]:stops[i]]``, ascending as ``np.flatnonzero(ids ==
    id)`` gives them.  Iterating yields ``(id, rows)``, ``rows`` a slice
    of the read-only ``order``."""

    def __init__(self, ids: np.ndarray) -> None:
        ids = np.asarray(ids)
        self.order = np.argsort(ids, kind="stable")
        self.order.setflags(write=False)
        ordered = ids[self.order]
        bounds = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
        self.starts = np.concatenate([[0], bounds]) if len(ids) else bounds
        self.stops = np.append(bounds, len(ids)) if len(ids) else bounds
        self.ids = ordered[self.starts]

    def __iter__(self) -> Iterator[Tuple[int, np.ndarray]]:
        for bid, start, stop in zip(
            self.ids.tolist(), self.starts.tolist(), self.stops.tolist()
        ):
            yield bid, self.order[start:stop]


def group_rows(ids: np.ndarray) -> RowGroups:
    """Group the positions of ``ids`` by value (see :class:`RowGroups`)."""
    return RowGroups(ids)


class Table:
    """A dictionary-encoded columnar table.

    Parameters
    ----------
    schema:
        Column definitions (owns categorical dictionaries).
    columns:
        Mapping from column name to a 1-D numpy array of encoded values.
        Every schema column must be present and all arrays must share
        one length.
    """

    def __init__(self, schema: Schema, columns: Mapping[str, np.ndarray]) -> None:
        self._schema = schema
        data: Dict[str, np.ndarray] = {}
        length: Optional[int] = None
        for col in schema:
            if col.name not in columns:
                raise SchemaError(f"missing data for column {col.name!r}")
            arr = np.asarray(columns[col.name])
            if arr.ndim != 1:
                raise SchemaError(
                    f"column {col.name!r} must be 1-D, got shape {arr.shape}"
                )
            if length is None:
                length = len(arr)
            elif len(arr) != length:
                raise SchemaError(
                    f"column {col.name!r} has length {len(arr)}, "
                    f"expected {length}"
                )
            data[col.name] = arr
        extra = set(columns) - set(schema.column_names)
        if extra:
            raise SchemaError(f"data for unknown columns: {sorted(extra)}")
        self._data = data
        self._length = length or 0

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_raw(
        cls, schema: Schema, raw: Mapping[str, Sequence[object]]
    ) -> "Table":
        """Build a table from raw (unencoded) python values.

        Categorical values are interned into the schema's dictionaries
        in first-seen order.
        """
        encoded: Dict[str, np.ndarray] = {}
        for col in schema:
            values = raw[col.name]
            if col.kind is ColumnKind.CATEGORICAL:
                assert col.dictionary is not None
                codes = np.fromiter(
                    (col.dictionary.add(v) for v in values), dtype=np.int64
                )
                encoded[col.name] = codes
            else:
                encoded[col.name] = np.asarray(values, dtype=np.float64)
        return cls(schema, encoded)

    @classmethod
    def empty(cls, schema: Schema) -> "Table":
        """A zero-row table with the given schema."""
        cols = {
            c.name: np.empty(0, dtype=np.int64 if c.is_categorical else np.float64)
            for c in schema
        }
        return cls(schema, cols)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def num_rows(self) -> int:
        return self._length

    def __len__(self) -> int:
        return self._length

    def column(self, name: str) -> np.ndarray:
        """The encoded array for column ``name``."""
        try:
            return self._data[name]
        except KeyError:
            raise SchemaError(f"unknown column {name!r}") from None

    def __getitem__(self, name: str) -> np.ndarray:
        return self.column(name)

    def columns(self) -> Dict[str, np.ndarray]:
        """A shallow copy of the name -> array mapping."""
        return dict(self._data)

    def row(self, index: int) -> Dict[str, object]:
        """Decode one row back to raw python values (for debugging)."""
        out: Dict[str, object] = {}
        for col in self._schema:
            out[col.name] = col.decode(self._data[col.name][index])
        return out

    def iter_rows(self) -> Iterator[Dict[str, object]]:
        """Iterate decoded rows (slow; intended for tests/examples)."""
        for i in range(self._length):
            yield self.row(i)

    # ------------------------------------------------------------------
    # Relational-ish operations
    # ------------------------------------------------------------------

    def take(self, indices: np.ndarray) -> "Table":
        """Select rows by position, preserving order."""
        idx = np.asarray(indices)
        cols = {name: arr[idx] for name, arr in self._data.items()}
        return Table(self._schema, cols)

    def filter(self, mask: np.ndarray) -> "Table":
        """Select rows where the boolean ``mask`` is true."""
        mask = np.asarray(mask, dtype=bool)
        if len(mask) != self._length:
            raise SchemaError(
                f"mask length {len(mask)} != table length {self._length}"
            )
        cols = {name: arr[mask] for name, arr in self._data.items()}
        return Table(self._schema, cols)

    def slice(self, start: int, stop: int) -> "Table":
        """Rows ``[start, stop)`` as a view-backed table."""
        cols = {name: arr[start:stop] for name, arr in self._data.items()}
        return Table(self._schema, cols)

    def sample(self, ratio: float, rng: np.random.Generator) -> "Table":
        """A uniform random sample of ``ratio`` of the rows.

        This is the construction sample the paper takes at algorithm
        initialization (Sec. 5.2.1; ``s`` between 0.1% and 1% is
        typical).  At least one row is returned for non-empty tables.
        """
        if not 0.0 < ratio <= 1.0:
            raise ValueError(f"sample ratio must be in (0, 1], got {ratio}")
        if self._length == 0:
            return self
        k = max(1, int(round(self._length * ratio)))
        idx = rng.choice(self._length, size=min(k, self._length), replace=False)
        idx.sort()
        return self.take(idx)

    def concat(self, other: "Table") -> "Table":
        """Stack two tables with identical schemas."""
        if other.schema.column_names != self._schema.column_names:
            raise SchemaError("cannot concat tables with different schemas")
        cols = {
            name: np.concatenate([arr, other._data[name]])
            for name, arr in self._data.items()
        }
        return Table(self._schema, cols)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def min_max(self, name: str) -> Tuple[float, float]:
        """(min, max) of a column; raises on empty tables."""
        arr = self._data[name]
        if len(arr) == 0:
            raise ValueError(f"min_max on empty column {name!r}")
        return float(arr.min()), float(arr.max())

    def distinct_codes(self, name: str) -> np.ndarray:
        """Sorted distinct encoded values of a column."""
        return np.unique(self._data[name])

    def nbytes(self) -> int:
        """Total in-memory size of the column buffers."""
        return sum(arr.nbytes for arr in self._data.values())

    def __repr__(self) -> str:
        return (
            f"Table(rows={self._length}, "
            f"cols={len(self._schema)})"
        )
