"""The "standard SQL planner" of paper Sec. 3.4.

Given workload queries as SQL text, the planner parses each statement,
pushes the WHERE clause down into a bound predicate tree, and exposes
the set of unary predicates (plus advanced cuts) as candidate cuts.

Only the subset needed by the paper is implemented::

    SELECT <cols|*> FROM <table> WHERE <predicate>

The planner is stateful across queries so that identical binary
comparisons share one advanced-cut slot.  Because that state (the
advanced-cut registry and the embedded parser) is shared, :meth:`plan`
serializes callers behind a re-entrant lock and memoizes repeated
statement texts — the serving tier (:mod:`repro.serve`) re-plans the
same statements from many threads.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.cuts import CutRegistry
from ..core.predicates import AdvancedCut
from ..core.router import MEMO_CAP
from ..core.workload import Query, Workload
from ..storage.schema import Schema
from .lexer import SqlSyntaxError, TokenType, tokenize
from .parser import PredicateParser

__all__ = ["PlannedQuery", "SqlPlanner"]


@dataclass(frozen=True)
class PlannedQuery:
    """Result of planning one statement."""

    query: Query
    table_name: str
    projection: Tuple[str, ...]


class SqlPlanner:
    """Plans SQL statements into :class:`~repro.core.workload.Query`
    objects and collects candidate cuts across a workload."""

    #: Bound on the statement memo (least recently used go first) so a
    #: long-lived planner fed ad-hoc statements cannot grow without
    #: limit, while a hot statement outlives a stream of one-off ones.
    MEMO_CAP = MEMO_CAP

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self.advanced_registry: Dict[str, AdvancedCut] = {}
        self._parser = PredicateParser(schema, self.advanced_registry)
        self._lock = threading.RLock()
        self._memo: "OrderedDict[Tuple[str, str, str], PlannedQuery]" = (
            OrderedDict()
        )
        #: ``SELECT *``'s projection, one tuple for every such plan.
        self._all_columns = schema.column_names

    # ------------------------------------------------------------------

    def plan(self, sql: str, name: str = "", template: str = "") -> PlannedQuery:
        """Plan one ``SELECT ... FROM ... WHERE ...`` statement.

        Thread-safe; repeated statements (same text/name/template) hit
        a memo instead of re-parsing, so re-planning a served workload
        is cheap and never grows the advanced-cut registry.
        """
        key = (sql, name, template)
        with self._lock:
            hit = self._memo.get(key)
            if hit is not None:
                self._memo.move_to_end(key)
                return hit
            planned = self._plan_uncached(sql, name=name, template=template)
            self._memo[key] = planned
            while len(self._memo) > self.MEMO_CAP:
                self._memo.popitem(last=False)
            return planned

    def _plan_uncached(
        self, sql: str, name: str = "", template: str = ""
    ) -> PlannedQuery:
        tokens = tokenize(sql)
        pos = 0

        def expect_keyword(word: str) -> None:
            nonlocal pos
            token = tokens[pos]
            if token.type is not TokenType.KEYWORD or token.value != word:
                raise SqlSyntaxError(
                    f"expected {word} at {token.position}, got {token.value!r}"
                )
            pos += 1

        expect_keyword("SELECT")
        projection: List[str] = []
        star = False
        while True:
            token = tokens[pos]
            if token.type is TokenType.STAR:
                star = True
                pos += 1
            elif token.type is TokenType.IDENT:
                column = token.value.split(".")[-1]
                if column not in self.schema:
                    raise SqlSyntaxError(
                        f"unknown projected column {column!r} at {token.position}"
                    )
                # the schema's own string: memoised plans share it
                projection.append(self.schema[column].name)
                pos += 1
            else:
                raise SqlSyntaxError(f"bad projection at {token.position}")
            if tokens[pos].type is TokenType.COMMA:
                pos += 1
                continue
            break
        expect_keyword("FROM")
        table_token = tokens[pos]
        if table_token.type is not TokenType.IDENT:
            raise SqlSyntaxError(f"expected table name at {table_token.position}")
        pos += 1
        expect_keyword("WHERE")
        # Hand the remainder of the original text to the predicate
        # parser (token positions index into the original string).
        where_text = sql[tokens[pos].position :]
        predicate = self._parser.parse(where_text)
        columns: Tuple[str, ...]
        if star:
            columns = self._all_columns
        else:
            columns = tuple(projection)
        query = Query(
            predicate=predicate,
            name=name or sql.strip(),
            template=template,
            columns=columns,
        )
        return PlannedQuery(
            query=query,
            table_name=sys.intern(table_token.value),
            projection=columns,
        )

    def plan_workload(
        self, statements: Sequence[str], template_names: Optional[Sequence[str]] = None
    ) -> Workload:
        """Plan many statements into a workload."""
        queries = []
        for i, sql in enumerate(statements):
            template = template_names[i] if template_names else ""
            queries.append(self.plan(sql, name=f"q{i}", template=template).query)
        return Workload(queries)

    def candidate_cuts(self, workload: Workload) -> CutRegistry:
        """The Sec. 3.4 cut set: all pushed-down unary predicates plus
        the advanced cuts discovered while planning."""
        return CutRegistry.from_workload(self.schema, workload)
