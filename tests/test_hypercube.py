"""Unit tests for repro.core.hypercube."""

import math

import pytest

from repro.core import Hypercube, Interval, column_ge, column_le, column_lt
from repro.core.predicates import column_eq, column_gt


class TestInterval:
    def test_default_unbounded(self):
        iv = Interval()
        assert iv.contains(-1e18) and iv.contains(1e18)

    def test_inverted_rejected(self):
        with pytest.raises(ValueError):
            Interval(5, 3)

    def test_contains_inclusive_edges(self):
        iv = Interval(0, 10, True, False)
        assert iv.contains(0)
        assert not iv.contains(10)
        assert iv.contains(9.999)

    def test_point_interval(self):
        p = Interval.point(5)
        assert p.contains(5) and not p.contains(5.0001)
        assert not p.is_empty

    def test_empty(self):
        assert Interval.empty().is_empty
        assert not Interval.point(1).is_empty
        # Degenerate open interval is empty.
        assert Interval(3, 3, True, False).is_empty

    def test_intersect_overlapping(self):
        a = Interval(0, 10)
        b = Interval(5, 15)
        out = a.intersect(b)
        assert (out.lo, out.hi) == (5, 10)

    def test_intersect_disjoint_is_empty(self):
        assert Interval(0, 1).intersect(Interval(2, 3)).is_empty

    def test_intersect_touching_inclusive(self):
        out = Interval(0, 5).intersect(Interval(5, 10))
        assert not out.is_empty
        assert out.contains(5)

    def test_intersect_touching_exclusive(self):
        a = Interval(0, 5, True, False)
        b = Interval(5, 10)
        assert a.intersect(b).is_empty

    def test_intersect_inclusive_flags_at_shared_bound(self):
        a = Interval(0, 5, True, True)
        b = Interval(0, 5, False, True)
        out = a.intersect(b)
        assert not out.lo_inclusive and out.hi_inclusive

    def test_intersects_symmetry(self):
        a = Interval(0, 5)
        b = Interval(3, 8)
        assert a.intersects(b) and b.intersects(a)

    def test_contains_interval(self):
        assert Interval(0, 10).contains_interval(Interval(2, 5))
        assert Interval(0, 10).contains_interval(Interval(0, 10))
        assert not Interval(0, 10).contains_interval(Interval(0, 11))
        # Inclusiveness matters at shared bounds.
        outer = Interval(0, 10, False, True)
        assert not outer.contains_interval(Interval(0, 5, True, True))
        assert outer.contains_interval(Interval(0, 5, False, True))
        # Everything contains the empty interval.
        assert Interval(0, 1).contains_interval(Interval.empty())

    @pytest.mark.parametrize(
        "pred,lo,hi,lo_inc,hi_inc",
        [
            (column_lt("x", 5), -math.inf, 5, True, False),
            (column_le("x", 5), -math.inf, 5, True, True),
            (column_gt("x", 5), 5, math.inf, False, True),
            (column_ge("x", 5), 5, math.inf, True, True),
            (column_eq("x", 5), 5, 5, True, True),
        ],
    )
    def test_from_predicate(self, pred, lo, hi, lo_inc, hi_inc):
        iv = Interval.from_predicate(pred)
        assert (iv.lo, iv.hi) == (lo, hi)
        assert (iv.lo_inclusive, iv.hi_inclusive) == (lo_inc, hi_inc)

    def test_from_in_predicate_raises(self):
        from repro.core import column_in

        with pytest.raises(ValueError):
            Interval.from_predicate(column_in("x", [1, 2]))


class TestHypercube:
    def test_untracked_column_unbounded(self):
        h = Hypercube()
        assert h.interval("x").contains(1e9)

    def test_restrict_narrows(self):
        h = Hypercube({"x": Interval(0, 100)})
        h2 = h.restrict("x", Interval(50, 200))
        assert (h2.interval("x").lo, h2.interval("x").hi) == (50, 100)
        # Original untouched (immutability).
        assert h.interval("x").hi == 100

    def test_restrict_new_column(self):
        h = Hypercube().restrict("y", Interval(0, 1))
        assert h.interval("y").hi == 1

    def test_with_interval_replaces(self):
        h = Hypercube({"x": Interval(0, 100)})
        h2 = h.with_interval("x", Interval(500, 600))
        assert h2.interval("x").lo == 500

    def test_is_empty(self):
        h = Hypercube({"x": Interval(0, 10)})
        assert not h.is_empty
        assert h.restrict("x", Interval(20, 30)).is_empty

    def test_equality(self):
        a = Hypercube({"x": Interval(0, 10)})
        b = Hypercube({"x": Interval(0, 10)})
        assert a == b
        assert a != Hypercube({"x": Interval(0, 11)})
