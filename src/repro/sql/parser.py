"""Recursive-descent parser for WHERE-clause predicates.

Produces :mod:`repro.core.predicates` trees bound to a schema: literals
are encoded through the schema's dictionaries at parse time, and
``LIKE`` patterns over categorical columns are compiled into ``IN``
predicates over the dictionary codes matching the pattern (this is how
a dictionary-encoded columnar store evaluates LIKE cheaply, and it
gives LIKE cuts exact semantic descriptions).

Grammar (standard precedence: OR < AND < NOT < comparison)::

    expr     := or_expr
    or_expr  := and_expr (OR and_expr)*
    and_expr := not_expr (AND not_expr)*
    not_expr := NOT not_expr | primary
    primary  := '(' expr ')' | comparison
    comparison := column op literal
                | literal op column          (flipped)
                | column [NOT] IN '(' literal (',' literal)* ')'
                | column BETWEEN literal AND literal
                | column [NOT] LIKE string
                | column op column           (advanced / binary cut)
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, Optional

import numpy as np

from ..core.predicates import (
    AdvancedCut,
    ColumnPredicate,
    Not,
    Predicate,
    column_eq,
    column_ge,
    column_gt,
    column_in,
    column_le,
    column_lt,
    conjunction,
    disjunction,
)
from ..storage.schema import Schema
from .lexer import SqlSyntaxError, Token, TokenType, tokenize

__all__ = ["PredicateParser", "parse_predicate", "like_to_regex"]

_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}

_OP_BUILDERS: Dict[str, Callable[[str, float], ColumnPredicate]] = {
    "<": column_lt,
    "<=": column_le,
    ">": column_gt,
    ">=": column_ge,
    "=": column_eq,
}


def like_to_regex(pattern: str) -> "re.Pattern[str]":
    """Compile a SQL LIKE pattern (``%``/``_`` wildcards) to a regex."""
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("^" + "".join(out) + "$", re.IGNORECASE)


class PredicateParser:
    """Parses one predicate expression against a schema.

    Binary (column-vs-column) comparisons become
    :class:`~repro.core.predicates.AdvancedCut` instances; their
    indices are handed out by ``advanced_registry``, a dict shared
    across all queries of a workload so the same textual comparison
    always maps to the same advanced-cut slot.
    """

    def __init__(
        self,
        schema: Schema,
        advanced_registry: Optional[Dict[str, AdvancedCut]] = None,
    ) -> None:
        self.schema = schema
        self.advanced_registry = (
            advanced_registry if advanced_registry is not None else {}
        )
        self._tokens: List[Token] = []
        self._pos = 0

    # ------------------------------------------------------------------
    # Token plumbing
    # ------------------------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _next(self) -> Token:
        token = self._tokens[self._pos]
        self._pos += 1
        return token

    def _expect(self, token_type: TokenType, value: Optional[str] = None) -> Token:
        token = self._next()
        if token.type is not token_type or (value is not None and token.value != value):
            raise SqlSyntaxError(
                f"expected {value or token_type.name} at {token.position}, "
                f"got {token.value!r}"
            )
        return token

    def _accept_keyword(self, word: str) -> bool:
        token = self._peek()
        if token.type is TokenType.KEYWORD and token.value == word:
            self._pos += 1
            return True
        return False

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def parse(self, text: str) -> Predicate:
        """Parse ``text`` into a bound predicate tree."""
        self._tokens = tokenize(text)
        self._pos = 0
        pred = self._parse_or()
        if self._peek().type is not TokenType.END:
            token = self._peek()
            raise SqlSyntaxError(
                f"trailing input at {token.position}: {token.value!r}"
            )
        return pred

    # ------------------------------------------------------------------
    # Grammar
    # ------------------------------------------------------------------

    def _parse_or(self) -> Predicate:
        parts = [self._parse_and()]
        while self._accept_keyword("OR"):
            parts.append(self._parse_and())
        return disjunction(parts) if len(parts) > 1 else parts[0]

    def _parse_and(self) -> Predicate:
        parts = [self._parse_not()]
        while self._accept_keyword("AND"):
            parts.append(self._parse_not())
        return conjunction(parts) if len(parts) > 1 else parts[0]

    def _parse_not(self) -> Predicate:
        if self._accept_keyword("NOT"):
            return self._parse_not().negate()
        return self._parse_primary()

    def _parse_primary(self) -> Predicate:
        if self._peek().type is TokenType.LPAREN:
            self._next()
            pred = self._parse_or()
            self._expect(TokenType.RPAREN)
            return pred
        return self._parse_comparison()

    def _parse_comparison(self) -> Predicate:
        token = self._next()
        if token.type in (TokenType.NUMBER, TokenType.STRING):
            # literal op column — flip around.
            op_token = self._expect(TokenType.OPERATOR)
            column = self._column_name(self._expect(TokenType.IDENT))
            return self._build_comparison(
                column, _FLIP.get(op_token.value, op_token.value), token
            )
        if token.type is not TokenType.IDENT:
            raise SqlSyntaxError(
                f"expected column or literal at {token.position}, got {token.value!r}"
            )
        column = self._column_name(token)
        nxt = self._peek()
        if nxt.type is TokenType.KEYWORD and nxt.value in ("IN", "LIKE", "BETWEEN", "NOT"):
            self._next()
            negated = False
            if nxt.value == "NOT":
                inner = self._next()
                if inner.type is not TokenType.KEYWORD or inner.value not in (
                    "IN",
                    "LIKE",
                ):
                    raise SqlSyntaxError(
                        f"expected IN or LIKE after NOT at {inner.position}"
                    )
                negated = True
                keyword = inner.value
            else:
                keyword = nxt.value
            if keyword == "IN":
                pred = self._parse_in(column)
            elif keyword == "LIKE":
                pred = self._parse_like(column)
            else:
                pred = self._parse_between(column)
            return pred.negate() if negated else pred
        op_token = self._expect(TokenType.OPERATOR)
        operand = self._next()
        if operand.type is TokenType.IDENT:
            return self._advanced(column, op_token.value, self._column_name(operand))
        if operand.type not in (TokenType.NUMBER, TokenType.STRING):
            raise SqlSyntaxError(
                f"expected literal or column at {operand.position}"
            )
        return self._build_comparison(column, op_token.value, operand)

    # ------------------------------------------------------------------
    # Comparison builders
    # ------------------------------------------------------------------

    def _column_name(self, token: Token) -> str:
        """Strip an optional table qualifier (``R.a`` -> ``a``)."""
        name = token.value
        if "." in name:
            name = name.split(".")[-1]
        if name not in self.schema:
            raise SqlSyntaxError(
                f"unknown column {name!r} at {token.position}"
            )
        # the schema's own string, not this statement's slice of text:
        # memoised plans then share one name object per column
        return self.schema[name].name

    def _encode(self, column: str, token: Token) -> float:
        value: object
        if token.type is TokenType.NUMBER:
            value = float(token.value)
            if value.is_integer():
                # Dictionary keys for numeric-looking categoricals are
                # stored as ints.
                col = self.schema[column]
                if col.is_categorical:
                    value = int(value)
        else:
            value = token.value
        try:
            return self.schema.encode_literal(column, value)
        except KeyError:
            raise SqlSyntaxError(
                f"literal {value!r} not in dictionary of column {column!r}"
            ) from None

    def _build_comparison(self, column: str, op: str, token: Token) -> Predicate:
        encoded = self._encode(column, token)
        if op in ("<>", "!="):
            return Not(column_eq(column, encoded))
        builder = _OP_BUILDERS.get(op)
        if builder is None:
            raise SqlSyntaxError(f"unsupported operator {op!r}")
        col = self.schema[column]
        if col.is_categorical and op != "=":
            raise SqlSyntaxError(
                f"range operator {op!r} on categorical column {column!r}"
            )
        return builder(column, encoded)

    def _parse_in(self, column: str) -> Predicate:
        self._expect(TokenType.LPAREN)
        values = [self._encode(column, self._next_literal())]
        while self._peek().type is TokenType.COMMA:
            self._next()
            values.append(self._encode(column, self._next_literal()))
        self._expect(TokenType.RPAREN)
        return column_in(column, values)

    def _next_literal(self) -> Token:
        token = self._next()
        if token.type not in (TokenType.NUMBER, TokenType.STRING):
            raise SqlSyntaxError(f"expected literal at {token.position}")
        return token

    def _parse_between(self, column: str) -> Predicate:
        lo = self._encode(column, self._next_literal())
        if not self._accept_keyword("AND"):
            raise SqlSyntaxError("expected AND in BETWEEN")
        hi = self._encode(column, self._next_literal())
        return conjunction([column_ge(column, lo), column_le(column, hi)])

    def _parse_like(self, column: str) -> Predicate:
        pattern_token = self._next()
        if pattern_token.type is not TokenType.STRING:
            raise SqlSyntaxError(
                f"LIKE requires a string pattern at {pattern_token.position}"
            )
        col = self.schema[column]
        if not col.is_categorical:
            raise SqlSyntaxError(
                f"LIKE on non-categorical column {column!r} is unsupported"
            )
        assert col.dictionary is not None
        regex = like_to_regex(pattern_token.value)
        codes = [
            col.dictionary.encode(value)
            for value in col.dictionary.values()
            if isinstance(value, str) and regex.match(value)
        ]
        if not codes:
            # No dictionary value matches: an always-false IN would be
            # invalid, so emit a contradiction on the column instead.
            return conjunction(
                [column_lt(column, 0), column_ge(column, 0)]
            )
        return column_in(column, codes)

    def _advanced(self, left: str, op: str, right: str) -> Predicate:
        """A binary column-vs-column comparison as an advanced cut."""
        key = f"{left} {op} {right}"
        cut = self.advanced_registry.get(key)
        if cut is not None:
            return cut
        comparators: Dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
            "<": np.less,
            "<=": np.less_equal,
            ">": np.greater,
            ">=": np.greater_equal,
            "=": np.equal,
        }
        compare = comparators.get(op)
        if compare is None:
            raise SqlSyntaxError(f"unsupported binary operator {op!r}")

        def evaluator(
            columns: Dict[str, np.ndarray],
            _l: str = left,
            _r: str = right,
            _cmp: Callable[[np.ndarray, np.ndarray], np.ndarray] = compare,
        ) -> np.ndarray:
            return _cmp(columns[_l], columns[_r])

        cut = AdvancedCut(
            name=key,
            index=len(self.advanced_registry),
            evaluator=evaluator,
            columns=(left, right),
        )
        self.advanced_registry[key] = cut
        return cut


def parse_predicate(
    text: str,
    schema: Schema,
    advanced_registry: Optional[Dict[str, AdvancedCut]] = None,
) -> Predicate:
    """One-shot convenience wrapper around :class:`PredicateParser`."""
    return PredicateParser(schema, advanced_registry).parse(text)
