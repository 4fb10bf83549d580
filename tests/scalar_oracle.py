"""The scalar three-valued match: the reference the tests hold
:class:`repro.core.router.PruningTable` to.

``may_match(description, predicate)`` answers, for one
:class:`~repro.core.node.NodeDescription`, "could *some* record in this
sub-space satisfy the predicate?" — the conservative (never
false-negative) test of paper Sec. 3.3, written one description and one
predicate node at a time: AND intersects iff all conjuncts do, OR iff
any disjunct does, NOT swaps the two.  The library routes, prunes,
costs and scores cuts with the vector version only; this recursion is
kept here as the oracle it must agree with row for row.
"""

import math
from typing import List

import numpy as np

from repro.core.hypercube import Interval
from repro.core.node import NodeDescription
from repro.core.predicates import (
    AdvancedCut,
    And,
    ColumnPredicate,
    Not,
    Op,
    Or,
    Predicate,
    TruePredicate,
)

__all__ = ["may_match"]


def may_match(description: NodeDescription, query: Predicate) -> bool:
    """Could *some* record in this sub-space satisfy ``query``?"""
    if description.hypercube.is_empty:
        return False
    return _may(description, query, positive=True)


def _may(description: NodeDescription, pred: Predicate, positive: bool) -> bool:
    if isinstance(pred, TruePredicate):
        return positive
    if isinstance(pred, Not):
        return _may(description, pred.child, not positive)
    if isinstance(pred, And):
        if positive:
            return all(_may(description, c, True) for c in pred.children)
        return any(_may(description, c, False) for c in pred.children)
    if isinstance(pred, Or):
        if positive:
            return any(_may(description, c, True) for c in pred.children)
        return all(_may(description, c, False) for c in pred.children)
    if isinstance(pred, ColumnPredicate):
        return _may_column(description, pred, positive)
    if isinstance(pred, AdvancedCut):
        if pred.index >= len(description.adv_true):
            # The cut is not tracked by this tree (e.g. advanced
            # cuts disabled at construction): it can never prune.
            return True
        holds = positive if pred.positive else not positive
        return bool(
            description.adv_true[pred.index]
            if holds
            else description.adv_false[pred.index]
        )
    raise TypeError(f"unsupported predicate {pred!r}")


def _may_column(
    description: NodeDescription, pred: ColumnPredicate, positive: bool
) -> bool:
    column = description.schema[pred.column]
    if column.is_categorical and pred.op.is_equality:
        mask = description.categorical_masks[pred.column]
        codes = np.asarray(pred.values, dtype=np.int64)
        codes = codes[(codes >= 0) & (codes < len(mask))]
        if positive:
            return bool(mask[codes].any()) if len(codes) else False
        # May a value OUTSIDE the literal set appear?  Iff the mask
        # holds more values than the literals account for.
        present = codes[mask[codes]]
        return np.count_nonzero(mask) > len(set(present.tolist()))
    # Numeric (or categorical used with a range op over codes).
    node_iv = description.hypercube.interval(pred.column)
    if pred.op is Op.IN:
        if positive:
            return any(node_iv.contains(v) for v in pred.values)
        return True  # interval can't prove all values are in the set
    pred_iv = Interval.from_predicate(pred)
    if positive:
        return node_iv.intersects(pred_iv)
    return any(node_iv.intersects(piece) for piece in _interval_complement(pred_iv))


def _interval_complement(interval: Interval) -> List[Interval]:
    """The complement of an interval as 0, 1 or 2 intervals.  A side
    is unbounded — and has no piece beyond it — only when it is
    infinite *and* inclusive: ``x > inf`` is bounded below, by a bound
    nothing clears, and its complement is everything."""
    pieces: List[Interval] = []
    if not (interval.lo == -math.inf and interval.lo_inclusive):
        pieces.append(
            Interval(hi=interval.lo, hi_inclusive=not interval.lo_inclusive)
        )
    if not (interval.hi == math.inf and interval.hi_inclusive):
        pieces.append(
            Interval(lo=interval.hi, lo_inclusive=not interval.hi_inclusive)
        )
    return pieces
