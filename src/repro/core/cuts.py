"""Candidate-cut extraction and the cut registry (paper Sec. 3.4).

The search space for both construction algorithms is the set of
*allowed cuts*.  Following the paper, we parse the target workload and
take every pushed-down unary predicate as a candidate, plus any
registered advanced cuts (Sec. 6.1).  The registry assigns each cut a
stable index used by the RL agent's action space and by tree
serialization.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from ..storage.schema import Schema
from .predicates import AdvancedCut, ColumnPredicate, Predicate
from .workload import Workload

__all__ = ["CutRegistry", "extract_candidate_cuts"]

#: Rows per slab of :meth:`CutRegistry.evaluate_all`.
_SLAB_ROWS = 8192


def extract_candidate_cuts(
    workload: Workload,
    schema: Optional[Schema] = None,
    include_advanced: bool = True,
) -> List[Predicate]:
    """All distinct unary predicates (and advanced cuts) in a workload.

    Walks each query's predicate tree and collects leaf predicates.
    Duplicate cuts (same column/op/literals) are collapsed.  With
    ``schema`` given, cuts on unknown columns are rejected loudly.
    """
    seen: Dict[Predicate, None] = {}
    for query in workload:
        for leaf in query.predicate.leaves():
            if isinstance(leaf, ColumnPredicate):
                if schema is not None and leaf.column not in schema:
                    raise ValueError(
                        f"query {query!r} references unknown column "
                        f"{leaf.column!r}"
                    )
                seen.setdefault(leaf, None)
            elif isinstance(leaf, AdvancedCut) and include_advanced:
                # Canonicalize to the positive form: the tree's binary
                # split covers both polarities.
                positive = leaf if leaf.positive else leaf.negate()
                seen.setdefault(positive, None)
    return list(seen)


class CutRegistry:
    """An indexed, ordered set of candidate cuts.

    The registry serves three roles:

    * the **action space** of the Woodblock agent (index = action id);
    * the **search space** of Greedy and Bottom-Up;
    * the **codec** for serializing trees (cuts referenced by index).

    Advanced cuts additionally get a dense *advanced index* used to
    size per-node ``adv_cuts`` bit vectors.
    """

    def __init__(
        self, schema: Schema, cuts: Iterable[Predicate] = ()
    ) -> None:
        self.schema = schema
        self._cuts: List[Predicate] = []
        self._index: Dict[Predicate, int] = {}
        self._advanced: List[AdvancedCut] = []
        for cut in cuts:
            self.add(cut)

    # ------------------------------------------------------------------

    @classmethod
    def from_workload(
        cls,
        schema: Schema,
        workload: Workload,
        extra_cuts: Iterable[Predicate] = (),
    ) -> "CutRegistry":
        """Registry of all cuts extracted from ``workload``.

        Advanced cuts are re-indexed densely in first-seen order so
        their node bit-vector slots are compact.
        """
        registry = cls(schema)
        for cut in extract_candidate_cuts(workload, schema):
            registry.add(cut)
        for cut in extra_cuts:
            registry.add(cut)
        return registry

    def add(self, cut: Predicate) -> int:
        """Register a cut (idempotent); returns its index."""
        if isinstance(cut, AdvancedCut) and not cut.positive:
            cut = cut.negate()
        if isinstance(cut, AdvancedCut):
            # Indices are assigned by the workload author and shared
            # with the queries that reference the cut, so they must be
            # kept as-is (node bit vectors are sized by the max index).
            # Equality is by index, so check for name clashes *before*
            # the dedup lookup or a conflicting cut slips through.
            for other in self._advanced:
                if other.index == cut.index and other.name != cut.name:
                    raise ValueError(
                        f"advanced cut index {cut.index} used by both "
                        f"{other.name!r} and {cut.name!r}"
                    )
        existing = self._index.get(cut)
        if existing is not None:
            return existing
        if isinstance(cut, AdvancedCut):
            self._advanced.append(cut)
        elif isinstance(cut, ColumnPredicate):
            if cut.column not in self.schema:
                raise ValueError(f"cut on unknown column {cut.column!r}")
            col = self.schema[cut.column]
            if col.is_categorical and not cut.op.is_equality:
                raise ValueError(
                    f"range cut {cut!r} on categorical column {cut.column!r}"
                )
        else:
            raise TypeError(
                f"only unary predicates and advanced cuts can be "
                f"candidate cuts, got {cut!r}"
            )
        index = len(self._cuts)
        self._cuts.append(cut)
        self._index[cut] = index
        return index

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._cuts)

    def __iter__(self):
        return iter(self._cuts)

    def __contains__(self, cut: Predicate) -> bool:
        return cut in self._index

    @property
    def cuts(self) -> Tuple[Predicate, ...]:
        return tuple(self._cuts)

    @property
    def advanced_cuts(self) -> Tuple[AdvancedCut, ...]:
        return tuple(self._advanced)

    @property
    def num_advanced_cuts(self) -> int:
        """Size needed for per-node advanced-cut bit vectors."""
        if not self._advanced:
            return 0
        return max(c.index for c in self._advanced) + 1

    def cut(self, index: int) -> Predicate:
        """Cut by action index."""
        return self._cuts[index]

    def index_of(self, cut: Predicate) -> int:
        """Action index of a registered cut."""
        if isinstance(cut, AdvancedCut) and not cut.positive:
            cut = cut.negate()
        try:
            return self._index[cut]
        except KeyError:
            raise KeyError(f"cut {cut!r} is not registered") from None

    # ------------------------------------------------------------------

    def evaluate_all(
        self, columns: Mapping[str, np.ndarray], num_rows: int
    ) -> np.ndarray:
        """``(num_rows, num_cuts)`` boolean matrix of cut outcomes: row
        ``r`` says which cuts record ``r`` satisfies.

        Layout construction keeps this matrix over its sample, so a
        node's rows are one contiguous row gather.  It is filled a slab
        of rows at a time; the result is the only full-size array.
        """
        out = np.empty((num_rows, len(self._cuts)), dtype=bool)
        slab = np.empty((len(self._cuts), _SLAB_ROWS), dtype=bool)
        for start in range(0, num_rows, _SLAB_ROWS):
            stop = min(start + _SLAB_ROWS, num_rows)
            part = {name: arr[start:stop] for name, arr in columns.items()}
            for i, cut in enumerate(self._cuts):
                slab[i, : stop - start] = cut.evaluate(part)
            out[start:stop] = slab[:, : stop - start].T
        return out

    def columns_used(self) -> Tuple[str, ...]:
        """All columns referenced by any registered cut."""
        cols = set()
        for cut in self._cuts:
            cols |= cut.referenced_columns()
        return tuple(sorted(cols))

    def __repr__(self) -> str:
        return (
            f"CutRegistry(cuts={len(self._cuts)}, "
            f"advanced={len(self._advanced)})"
        )
