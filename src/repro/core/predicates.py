"""Predicate AST: cuts, query filters, and their algebra.

The qd-tree framework works with *unary* predicates of the form
``(attr, op, literal)`` where ``op`` is a range comparison
(``<, <=, >, >=``) or an equality comparison (``=, IN``) — paper
Sec. 3.2 — plus *advanced cuts*: named arbitrary predicates such as the
binary filter ``l_shipdate < l_commitdate`` (Sec. 6.1).  Queries are
arbitrary conjunctions/disjunctions of these (Sec. 3.3).

All literals are in the *encoded* domain (dictionary codes for
categoricals); use :class:`~repro.storage.schema.Schema` helpers to
encode raw values.

Every predicate supports:

* :meth:`Predicate.evaluate` — vectorized evaluation over column arrays
  (used for routing data, Sec. 3.1);
* :meth:`Predicate.negate` — negation-normal-form complement (used to
  derive the right child of a cut and for conservative intersection);
* :meth:`Predicate.referenced_columns` — which columns a scan must read.
"""

from __future__ import annotations

import enum
from typing import Callable, FrozenSet, Iterable, Mapping, Sequence, Tuple

import numpy as np

__all__ = [
    "Op",
    "Predicate",
    "ColumnPredicate",
    "AdvancedCut",
    "And",
    "Or",
    "Not",
    "TruePredicate",
    "column_lt",
    "column_le",
    "column_gt",
    "column_ge",
    "column_eq",
    "column_in",
    "conjunction",
    "disjunction",
]

ColumnData = Mapping[str, np.ndarray]


class Op(enum.Enum):
    """Comparison operators allowed in unary cuts (paper Sec. 3.2)."""

    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    EQ = "="
    IN = "IN"

    @property
    def is_range(self) -> bool:
        return self in (Op.LT, Op.LE, Op.GT, Op.GE)

    @property
    def is_equality(self) -> bool:
        return self in (Op.EQ, Op.IN)


class Predicate:
    """Abstract base for all predicate nodes."""

    def evaluate(self, columns: ColumnData) -> np.ndarray:
        """Boolean mask of rows satisfying the predicate."""
        raise NotImplementedError

    def negate(self) -> "Predicate":
        """The logical complement, in negation normal form."""
        raise NotImplementedError

    def referenced_columns(self) -> FrozenSet[str]:
        """Columns the predicate reads."""
        raise NotImplementedError

    def leaves(self) -> Tuple["Predicate", ...]:
        """All non-boolean leaf predicates in the tree."""
        return (self,)

    # Operator sugar so workloads read naturally in examples/tests.
    def __and__(self, other: "Predicate") -> "Predicate":
        return conjunction([self, other])

    def __or__(self, other: "Predicate") -> "Predicate":
        return disjunction([self, other])

    def __invert__(self) -> "Predicate":
        return self.negate()


class TruePredicate(Predicate):
    """The always-true predicate (the root cut-space)."""

    def evaluate(self, columns: ColumnData) -> np.ndarray:
        any_col = next(iter(columns.values()))
        return np.ones(len(any_col), dtype=bool)

    def negate(self) -> "Predicate":
        return Not(self)

    def referenced_columns(self) -> FrozenSet[str]:
        return frozenset()

    def leaves(self) -> Tuple[Predicate, ...]:
        return ()

    def __repr__(self) -> str:
        return "TRUE"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TruePredicate)

    def __hash__(self) -> int:
        return hash("TRUE")


class ColumnPredicate(Predicate):
    """A unary predicate ``(column, op, literal(s))``.

    ``values`` always holds encoded literals; exactly one for
    comparison ops, one or more for ``IN``.
    """

    __slots__ = ("column", "op", "values", "_value_set")

    def __init__(self, column: str, op: Op, values: Sequence[float]) -> None:
        if op is not Op.IN and len(values) != 1:
            raise ValueError(f"{op.value} takes exactly one literal")
        if op is Op.IN and len(values) == 0:
            raise ValueError("IN requires at least one literal")
        self.column = column
        self.op = op
        self.values: Tuple[float, ...] = tuple(float(v) for v in values)
        # What equality and hashing compare: IN is a set of literals;
        # a comparison's single literal needs no second container (a
        # serving tier memoises thousands of these per template).
        self._value_set = frozenset(self.values) if op is Op.IN else self.values

    @property
    def value(self) -> float:
        """The single literal of a comparison predicate."""
        return self.values[0]

    def evaluate(self, columns: ColumnData) -> np.ndarray:
        arr = columns[self.column]
        if self.op is Op.LT:
            return arr < self.value
        if self.op is Op.LE:
            return arr <= self.value
        if self.op is Op.GT:
            return arr > self.value
        if self.op is Op.GE:
            return arr >= self.value
        if self.op is Op.EQ:
            return arr == self.value
        # IN: vectorized membership against the literal list.
        return np.isin(arr, np.asarray(self.values))

    def negate(self) -> Predicate:
        flipped = {
            Op.LT: Op.GE,
            Op.LE: Op.GT,
            Op.GT: Op.LE,
            Op.GE: Op.LT,
        }
        if self.op in flipped:
            return ColumnPredicate(self.column, flipped[self.op], self.values)
        return Not(self)

    def referenced_columns(self) -> FrozenSet[str]:
        return frozenset({self.column})

    def __repr__(self) -> str:
        if self.op is Op.IN:
            vals = ",".join(_fmt(v) for v in self.values)
            return f"{self.column} IN ({vals})"
        return f"{self.column} {self.op.value} {_fmt(self.value)}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColumnPredicate):
            return NotImplemented
        return (
            self.column == other.column
            and self.op == other.op
            and self._value_set == other._value_set
            and (self.op is Op.IN or self.values == other.values)
        )

    def __hash__(self) -> int:
        return hash((self.column, self.op, self._value_set))


class AdvancedCut(Predicate):
    """A named arbitrary predicate (binary filters, LIKE, UDFs).

    Paper Sec. 6.1: each workload declares up to ``|AC|`` advanced cuts
    a priori; nodes track per-cut possibility bits.  ``evaluator`` is
    the black-box row-set evaluator; ``index`` is the cut's slot in the
    per-node bit vectors and must be unique within a workload.
    """

    __slots__ = ("name", "index", "evaluator", "_columns", "positive")

    def __init__(
        self,
        name: str,
        index: int,
        evaluator: Callable[[ColumnData], np.ndarray],
        columns: Iterable[str] = (),
        positive: bool = True,
    ) -> None:
        self.name = name
        self.index = index
        self.evaluator = evaluator
        self._columns = frozenset(columns)
        self.positive = positive

    def evaluate(self, columns: ColumnData) -> np.ndarray:
        mask = np.asarray(self.evaluator(columns), dtype=bool)
        return mask if self.positive else ~mask

    def negate(self) -> Predicate:
        return AdvancedCut(
            self.name,
            self.index,
            self.evaluator,
            self._columns,
            positive=not self.positive,
        )

    def referenced_columns(self) -> FrozenSet[str]:
        return self._columns

    def __repr__(self) -> str:
        return f"AC{self.index}[{self.name}]" if self.positive else (
            f"NOT AC{self.index}[{self.name}]"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AdvancedCut):
            return NotImplemented
        return self.index == other.index and self.positive == other.positive

    def __hash__(self) -> int:
        return hash(("AC", self.index, self.positive))


class And(Predicate):
    """Conjunction of sub-predicates."""

    __slots__ = ("children",)

    def __init__(self, children: Sequence[Predicate]) -> None:
        if not children:
            raise ValueError("And requires at least one child")
        self.children: Tuple[Predicate, ...] = tuple(children)

    def evaluate(self, columns: ColumnData) -> np.ndarray:
        mask = self.children[0].evaluate(columns)
        for child in self.children[1:]:
            mask = mask & child.evaluate(columns)
        return mask

    def negate(self) -> Predicate:
        return Or([c.negate() for c in self.children])

    def referenced_columns(self) -> FrozenSet[str]:
        return frozenset().union(*(c.referenced_columns() for c in self.children))

    def leaves(self) -> Tuple[Predicate, ...]:
        out: Tuple[Predicate, ...] = ()
        for child in self.children:
            out = out + child.leaves()
        return out

    def __repr__(self) -> str:
        return "(" + " AND ".join(repr(c) for c in self.children) + ")"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, And):
            return NotImplemented
        return self.children == other.children

    def __hash__(self) -> int:
        return hash(("AND", self.children))


class Or(Predicate):
    """Disjunction of sub-predicates."""

    __slots__ = ("children",)

    def __init__(self, children: Sequence[Predicate]) -> None:
        if not children:
            raise ValueError("Or requires at least one child")
        self.children: Tuple[Predicate, ...] = tuple(children)

    def evaluate(self, columns: ColumnData) -> np.ndarray:
        mask = self.children[0].evaluate(columns)
        for child in self.children[1:]:
            mask = mask | child.evaluate(columns)
        return mask

    def negate(self) -> Predicate:
        return And([c.negate() for c in self.children])

    def referenced_columns(self) -> FrozenSet[str]:
        return frozenset().union(*(c.referenced_columns() for c in self.children))

    def leaves(self) -> Tuple[Predicate, ...]:
        out: Tuple[Predicate, ...] = ()
        for child in self.children:
            out = out + child.leaves()
        return out

    def __repr__(self) -> str:
        return "(" + " OR ".join(repr(c) for c in self.children) + ")"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Or):
            return NotImplemented
        return self.children == other.children

    def __hash__(self) -> int:
        return hash(("OR", self.children))


class Not(Predicate):
    """Negation wrapper for predicates with no flipped-operator form
    (``EQ``/``IN`` complements, ``TRUE``)."""

    __slots__ = ("child",)

    def __init__(self, child: Predicate) -> None:
        self.child = child

    def evaluate(self, columns: ColumnData) -> np.ndarray:
        return ~self.child.evaluate(columns)

    def negate(self) -> Predicate:
        return self.child

    def referenced_columns(self) -> FrozenSet[str]:
        return self.child.referenced_columns()

    def leaves(self) -> Tuple[Predicate, ...]:
        return self.child.leaves()

    def __repr__(self) -> str:
        return f"NOT ({self.child!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Not):
            return NotImplemented
        return self.child == other.child

    def __hash__(self) -> int:
        return hash(("NOT", self.child))


# ----------------------------------------------------------------------
# Convenience constructors
# ----------------------------------------------------------------------


def column_lt(column: str, value: float) -> ColumnPredicate:
    """``column < value``."""
    return ColumnPredicate(column, Op.LT, [value])


def column_le(column: str, value: float) -> ColumnPredicate:
    """``column <= value``."""
    return ColumnPredicate(column, Op.LE, [value])


def column_gt(column: str, value: float) -> ColumnPredicate:
    """``column > value``."""
    return ColumnPredicate(column, Op.GT, [value])


def column_ge(column: str, value: float) -> ColumnPredicate:
    """``column >= value``."""
    return ColumnPredicate(column, Op.GE, [value])


def column_eq(column: str, value: float) -> ColumnPredicate:
    """``column = value`` (encoded literal)."""
    return ColumnPredicate(column, Op.EQ, [value])


def column_in(column: str, values: Sequence[float]) -> ColumnPredicate:
    """``column IN (values...)`` (encoded literals)."""
    return ColumnPredicate(column, Op.IN, values)


def conjunction(predicates: Sequence[Predicate]) -> Predicate:
    """AND of predicates, flattening nested ANDs and dropping TRUE."""
    flat = []
    for p in predicates:
        if isinstance(p, TruePredicate):
            continue
        if isinstance(p, And):
            flat.extend(p.children)
        else:
            flat.append(p)
    if not flat:
        return TruePredicate()
    if len(flat) == 1:
        return flat[0]
    return And(flat)


def disjunction(predicates: Sequence[Predicate]) -> Predicate:
    """OR of predicates, flattening nested ORs."""
    flat = []
    for p in predicates:
        if isinstance(p, Or):
            flat.extend(p.children)
        else:
            flat.append(p)
    if not flat:
        raise ValueError("disjunction of no predicates")
    if len(flat) == 1:
        return flat[0]
    return Or(flat)


def _fmt(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else f"{v:g}"
