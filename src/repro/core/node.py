"""Qd-tree nodes and their semantic descriptions.

A node's *semantic description* (paper Table 1 + Sec. 6.1) is:

``range``
    A :class:`~repro.core.hypercube.Hypercube` over numeric columns.
``categorical_mask``
    For each categorical column, a ``|Dom|``-bit vector; bit ``v`` = 0
    means value ``v`` definitively does not appear under the node.
``adv_cuts``
    For each registered advanced cut, two possibility bits:
    ``adv_true[i]`` (may contain records satisfying cut *i*) and
    ``adv_false[i]`` (may contain records violating it).  The paper
    stores only the first; tracking both lets *either* side of an
    advanced cut prune, strictly improving skipping while preserving
    completeness.

Descriptions support three operations used throughout the system:

* :meth:`NodeDescription.split` — apply a cut, producing the left
  (satisfies ``p``) and right (satisfies ``¬p``) descriptions: the one
  definition of what a cut does to a sub-space;
* :meth:`NodeDescription.tighten` — min-max tightening once data is
  routed (Sec. 3.2);
* :meth:`NodeDescription.matches_rows` — exact vectorized membership
  test (used to verify the completeness property).

The conservative "could any record under this description satisfy
this query?" test of query routing (Sec. 3.3) is not a method here: it
runs over descriptions stacked into a
:class:`~repro.core.router.PruningTable` — a one-row table for a
single description.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..storage.minmax import MinMaxIndex
from ..storage.schema import Schema
from .hypercube import Hypercube, Interval
from .predicates import (
    AdvancedCut,
    And,
    ColumnPredicate,
    Not,
    Op,
    Or,
    Predicate,
    TruePredicate,
)

__all__ = ["NodeDescription", "QdNode"]


class NodeDescription:
    """The (range, categorical_mask, adv_cuts) triple of one node."""

    def __init__(
        self,
        schema: Schema,
        hypercube: Hypercube,
        categorical_masks: Mapping[str, np.ndarray],
        adv_true: np.ndarray,
        adv_false: np.ndarray,
    ) -> None:
        self.schema = schema
        self.hypercube = hypercube
        self.categorical_masks: Dict[str, np.ndarray] = {
            name: np.asarray(mask, dtype=bool)
            for name, mask in categorical_masks.items()
        }
        self.adv_true = np.asarray(adv_true, dtype=bool)
        self.adv_false = np.asarray(adv_false, dtype=bool)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def root(cls, schema: Schema, num_advanced_cuts: int = 0) -> "NodeDescription":
        """The whole-table description: full domains everywhere."""
        intervals = {}
        for col in schema.numeric_columns:
            if col.domain is not None:
                lo, hi = col.domain
                intervals[col.name] = Interval(lo, hi, True, True)
        masks = {
            col.name: np.ones(col.domain_size, dtype=bool)
            for col in schema.categorical_columns
        }
        ones = np.ones(num_advanced_cuts, dtype=bool)
        return cls(schema, Hypercube(intervals), masks, ones, ones.copy())

    def copy(self) -> "NodeDescription":
        return NodeDescription(
            self.schema,
            self.hypercube.copy(),
            {k: v.copy() for k, v in self.categorical_masks.items()},
            self.adv_true.copy(),
            self.adv_false.copy(),
        )

    # ------------------------------------------------------------------
    # Cut application (Sec. 3.2, Sec. 6.1)
    # ------------------------------------------------------------------

    def split(self, cut: Predicate) -> Tuple["NodeDescription", "NodeDescription"]:
        """Left (satisfies ``cut``) and right (satisfies ``¬cut``)."""
        left = self.copy()
        right = self.copy()
        left._restrict(cut, satisfied=True)
        right._restrict(cut, satisfied=False)
        return left, right

    def _restrict(self, cut: Predicate, satisfied: bool) -> None:
        """Narrow this description assuming ``cut`` is (not) satisfied."""
        if isinstance(cut, TruePredicate):
            return
        if isinstance(cut, Not):
            self._restrict(cut.child, not satisfied)
            return
        if isinstance(cut, And) and satisfied:
            # All conjuncts hold; each narrows independently.
            for child in cut.children:
                self._restrict(child, True)
            return
        if isinstance(cut, Or) and not satisfied:
            # None of the disjuncts hold.
            for child in cut.children:
                self._restrict(child, False)
            return
        if isinstance(cut, ColumnPredicate):
            self._restrict_column(cut, satisfied)
            return
        if isinstance(cut, AdvancedCut):
            self._restrict_advanced(cut, satisfied)
            return
        # ¬(A∧B) / (A∨B): no single-sided narrowing is sound; skip.

    def _restrict_column(self, cut: ColumnPredicate, satisfied: bool) -> None:
        column = self.schema[cut.column]
        if cut.op.is_range or (cut.op is Op.EQ and column.is_numeric):
            interval = Interval.from_predicate(cut)
            if satisfied:
                self.hypercube = self.hypercube.restrict(cut.column, interval)
            else:
                # The complement has a piece below the interval unless
                # its low side is unbounded (infinite *and* inclusive:
                # ``x > inf`` is bounded, by a bound nothing clears),
                # and likewise above.  Only a one-piece complement
                # narrows a single interval; two pieces (EQ negation)
                # keep the parent hull, which stays sound.
                below = not (interval.lo == -math.inf and interval.lo_inclusive)
                above = not (interval.hi == math.inf and interval.hi_inclusive)
                if below != above:
                    piece = (
                        Interval(hi=interval.lo, hi_inclusive=not interval.lo_inclusive)
                        if below
                        else Interval(lo=interval.hi, lo_inclusive=not interval.hi_inclusive)
                    )
                    self.hypercube = self.hypercube.restrict(cut.column, piece)
            return
        if column.is_categorical:
            mask = self.categorical_masks[cut.column]
            codes = np.asarray(cut.values, dtype=np.int64)
            codes = codes[(codes >= 0) & (codes < len(mask))]
            if satisfied:
                keep = np.zeros_like(mask)
                keep[codes] = True
                self.categorical_masks[cut.column] = mask & keep
            else:
                drop = mask.copy()
                drop[codes] = False
                self.categorical_masks[cut.column] = drop
            return
        if cut.op is Op.IN:  # numeric IN: conservative hull on the true side
            if satisfied:
                lo, hi = min(cut.values), max(cut.values)
                self.hypercube = self.hypercube.restrict(
                    cut.column, Interval(lo, hi, True, True)
                )
            return
        raise ValueError(f"cannot restrict by {cut!r}")

    def _restrict_advanced(self, cut: AdvancedCut, satisfied: bool) -> None:
        if cut.index >= len(self.adv_true):
            raise IndexError(
                f"advanced cut index {cut.index} out of range "
                f"({len(self.adv_true)} registered)"
            )
        holds = satisfied if cut.positive else not satisfied
        if holds:
            self.adv_false[cut.index] = False
        else:
            self.adv_true[cut.index] = False

    # ------------------------------------------------------------------
    # Exact membership (completeness verification)
    # ------------------------------------------------------------------

    def matches_rows(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        """Boolean mask: which rows satisfy this description exactly?

        Advanced-cut bits are honoured by evaluating the registered
        evaluators where a bit rules a side out.
        """
        n = len(next(iter(columns.values())))
        mask = np.ones(n, dtype=bool)
        for name in self.hypercube.columns():
            iv = self.hypercube.interval(name)
            arr = columns[name]
            if np.isfinite(iv.lo):
                mask &= arr >= iv.lo if iv.lo_inclusive else arr > iv.lo
            if np.isfinite(iv.hi):
                mask &= arr <= iv.hi if iv.hi_inclusive else arr < iv.hi
        for name, bits in self.categorical_masks.items():
            codes = columns[name].astype(np.int64)
            valid = (codes >= 0) & (codes < len(bits))
            ok = np.zeros(n, dtype=bool)
            ok[valid] = bits[codes[valid]]
            mask &= ok
        return mask

    def tighten(self, stats: MinMaxIndex) -> "NodeDescription":
        """Min-max tightening once data is routed (paper Sec. 3.2).

        Replaces each numeric interval with the actual [min, max] of the
        node's records and each categorical mask with the actual
        distinct-value set, read from ``stats`` — the node's records'
        index, built with dictionaries.  Untracked columns (all of them
        for a node without records) keep their description.
        """
        out = self.copy()
        for col in self.schema.numeric_columns:
            s = stats.column_stats(col.name)
            if s is not None:
                out.hypercube = out.hypercube.with_interval(
                    col.name, Interval(s.minimum, s.maximum, True, True)
                )
        for col in self.schema.categorical_columns:
            s = stats.column_stats(col.name)
            if s is not None:
                out.categorical_masks[col.name] = s.distinct[: col.domain_size].copy()
        return out

    def __repr__(self) -> str:
        return (
            f"NodeDescription(range={self.hypercube!r}, "
            f"cats={list(self.categorical_masks)}, "
            f"adv={len(self.adv_true)})"
        )


class QdNode:
    """One node of a qd-tree.

    Internal nodes carry a ``cut``; the left child satisfies it and the
    right child its negation (Sec. 3).  Leaves carry a ``block_id``.
    """

    __slots__ = (
        "node_id",
        "description",
        "cut",
        "left",
        "right",
        "parent",
        "depth",
        "block_id",
    )

    def __init__(
        self,
        node_id: int,
        description: NodeDescription,
        depth: int = 0,
        parent: Optional["QdNode"] = None,
    ) -> None:
        self.node_id = node_id
        self.description = description
        self.cut: Optional[Predicate] = None
        self.left: Optional["QdNode"] = None
        self.right: Optional["QdNode"] = None
        self.parent = parent
        self.depth = depth
        self.block_id: Optional[int] = None

    @property
    def is_leaf(self) -> bool:
        return self.cut is None

    def path_cuts(self) -> List[Tuple[Predicate, bool]]:
        """(cut, took_left) pairs from the root to this node."""
        path: List[Tuple[Predicate, bool]] = []
        node: Optional[QdNode] = self
        while node is not None and node.parent is not None:
            parent = node.parent
            assert parent.cut is not None
            path.append((parent.cut, node is parent.left))
            node = parent
        path.reverse()
        return path

    def path_predicate(self) -> Predicate:
        """The conjunction of (possibly negated) cuts root -> here.

        This is the leaf's human-readable semantic description
        ("all tuples matching predicate p", Sec. 1.1).
        """
        from .predicates import conjunction

        parts: List[Predicate] = []
        for cut, took_left in self.path_cuts():
            parts.append(cut if took_left else cut.negate())
        return conjunction(parts)

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else f"cut={self.cut!r}"
        return f"QdNode(id={self.node_id}, depth={self.depth}, {kind})"
