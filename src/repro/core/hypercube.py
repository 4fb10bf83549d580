"""Intervals and hypercubes: the range component of node descriptions.

Every qd-tree node logically owns a sub-space of the table's
N-dimensional domain (paper Sec. 3, Table 1: ``n.range``).  We model the
numeric part of that sub-space as a :class:`Hypercube` — a mapping from
numeric column name to :class:`Interval`, with explicit inclusive /
exclusive bounds so that both paper-style integer domains and real-
valued columns are handled exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from .predicates import ColumnPredicate, Op

__all__ = ["Interval", "Hypercube"]


@dataclass(frozen=True)
class Interval:
    """A (possibly unbounded) interval with inclusive/exclusive ends."""

    lo: float = -math.inf
    hi: float = math.inf
    lo_inclusive: bool = True
    hi_inclusive: bool = True

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"interval lo {self.lo} > hi {self.hi}")

    # ------------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        """True iff no value can lie in the interval."""
        if self.lo < self.hi:
            return False
        # lo == hi: non-empty only when both ends are inclusive.
        return not (self.lo_inclusive and self.hi_inclusive)

    def contains(self, value: float) -> bool:
        """Is ``value`` inside the interval?"""
        if value < self.lo or value > self.hi:
            return False
        if value == self.lo and not self.lo_inclusive:
            return False
        if value == self.hi and not self.hi_inclusive:
            return False
        return True

    def _meet(self, other: "Interval") -> Tuple[float, bool, float, bool]:
        """``(lo, lo_inclusive, hi, hi_inclusive)`` of the overlap with
        ``other``: the tighter bound on each side, exclusive winning a
        tie.  ``lo > hi`` when the two are disjoint."""
        if self.lo > other.lo:
            lo, lo_inc = self.lo, self.lo_inclusive
        elif self.lo < other.lo:
            lo, lo_inc = other.lo, other.lo_inclusive
        else:
            lo, lo_inc = self.lo, self.lo_inclusive and other.lo_inclusive
        if self.hi < other.hi:
            hi, hi_inc = self.hi, self.hi_inclusive
        elif self.hi > other.hi:
            hi, hi_inc = other.hi, other.hi_inclusive
        else:
            hi, hi_inc = self.hi, self.hi_inclusive and other.hi_inclusive
        return lo, lo_inc, hi, hi_inc

    def intersects(self, other: "Interval") -> bool:
        """Do the two intervals share at least one point?  (No
        interval is built.)"""
        lo, lo_inc, hi, hi_inc = self._meet(other)
        if lo > hi:
            return False
        return lo < hi or (lo_inc and hi_inc)

    def intersect(self, other: "Interval") -> "Interval":
        """The intersection (may be empty; never raises)."""
        lo, lo_inc, hi, hi_inc = self._meet(other)
        if lo > hi:
            return Interval.empty()
        return Interval(lo, hi, lo_inc, hi_inc)

    def contains_interval(self, other: "Interval") -> bool:
        """Does this interval fully contain ``other``?"""
        if other.is_empty:
            return True
        lo_ok = self.lo < other.lo or (
            self.lo == other.lo and (self.lo_inclusive or not other.lo_inclusive)
        )
        hi_ok = self.hi > other.hi or (
            self.hi == other.hi and (self.hi_inclusive or not other.hi_inclusive)
        )
        return lo_ok and hi_ok

    # ------------------------------------------------------------------

    @staticmethod
    def empty() -> "Interval":
        """The canonical empty interval."""
        return Interval(0.0, 0.0, False, False)

    @staticmethod
    def everything() -> "Interval":
        """The unbounded interval."""
        return Interval()

    @staticmethod
    def point(value: float) -> "Interval":
        """The degenerate interval ``[value, value]``."""
        return Interval(value, value, True, True)

    @staticmethod
    def from_predicate(pred: ColumnPredicate) -> "Interval":
        """The set of values satisfying a unary *range* predicate."""
        v = pred.value
        if pred.op is Op.LT:
            return Interval(hi=v, hi_inclusive=False)
        if pred.op is Op.LE:
            return Interval(hi=v, hi_inclusive=True)
        if pred.op is Op.GT:
            return Interval(lo=v, lo_inclusive=False)
        if pred.op is Op.GE:
            return Interval(lo=v, lo_inclusive=True)
        if pred.op is Op.EQ:
            return Interval.point(v)
        raise ValueError(f"predicate {pred!r} does not describe an interval")

    def __repr__(self) -> str:
        lo_b = "[" if self.lo_inclusive else "("
        hi_b = "]" if self.hi_inclusive else ")"
        return f"{lo_b}{self.lo}, {self.hi}{hi_b}"


#: What :meth:`Hypercube.interval` answers for an untracked column;
#: intervals are frozen, so every miss can share the one instance.
_UNBOUNDED = Interval()


class Hypercube:
    """Per-numeric-column intervals describing a node's range.

    Columns absent from the mapping are unbounded.  Hypercubes are
    immutable: restriction operations return new instances.
    """

    def __init__(self, intervals: Optional[Mapping[str, Interval]] = None) -> None:
        self._intervals: Dict[str, Interval] = dict(intervals or {})
        #: True iff any dimension's interval is empty.
        self.is_empty: bool = any(iv.is_empty for iv in self._intervals.values())

    # ------------------------------------------------------------------

    def interval(self, column: str) -> Interval:
        """The interval for ``column`` (unbounded when untracked)."""
        return self._intervals.get(column, _UNBOUNDED)

    def columns(self) -> Tuple[str, ...]:
        return tuple(self._intervals)

    # ------------------------------------------------------------------

    def restrict(self, column: str, interval: Interval) -> "Hypercube":
        """A new hypercube with ``column`` narrowed by ``interval``."""
        merged = dict(self._intervals)
        merged[column] = self.interval(column).intersect(interval)
        return Hypercube(merged)

    def with_interval(self, column: str, interval: Interval) -> "Hypercube":
        """A new hypercube with ``column``'s interval *replaced*."""
        merged = dict(self._intervals)
        merged[column] = interval
        return Hypercube(merged)

    def copy(self) -> "Hypercube":
        return Hypercube(self._intervals)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypercube):
            return NotImplemented
        cols = set(self._intervals) | set(other._intervals)
        return all(self.interval(c) == other.interval(c) for c in cols)

    def __repr__(self) -> str:
        parts = ", ".join(f"{c}: {iv!r}" for c, iv in sorted(self._intervals.items()))
        return f"Hypercube({parts})"
