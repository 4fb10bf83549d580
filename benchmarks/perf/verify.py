"""Answer verification against brute-force row evaluation.

Runs after the measured phase, outside every timed region.  The
reference evaluates the planned predicate over the whole logical table
(``db.table``, which has grown on ``build_ingest``), so it shares no
routing, pruning, caching or scanning code with what it checks.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np


def brute_force_rows(db, sql: str) -> np.ndarray:
    """Row ids of ``db.table`` the statement matches."""
    predicate = db.planner.plan(sql).query.predicate
    return np.flatnonzero(predicate.evaluate(db.table.columns()))


def check_replies(db, replies: Iterable) -> Tuple[int, List[str]]:
    """Every measured reply must exist and carry the brute-force row
    count.  Returns (failed operations, first few problems)."""
    expected: Dict[str, int] = {}
    failed = 0
    problems: List[str] = []
    for reply in replies:
        if reply.stats is None:
            problem = f"raised {reply.error}: {reply.sql}"
        else:
            if reply.sql not in expected:
                expected[reply.sql] = len(brute_force_rows(db, reply.sql))
            if reply.stats.rows_returned == expected[reply.sql]:
                continue
            problem = (
                f"rows_returned {reply.stats.rows_returned} != "
                f"{expected[reply.sql]}: {reply.sql}"
            )
        failed += 1
        if len(problems) < 5:
            problems.append(problem)
    return failed, problems


def check_row_ids(db, service, statements: Sequence[str]) -> List[str]:
    """``service.collect_row_ids`` must return exactly the brute-force
    row ids.  Returns the problems found (at most a few)."""
    problems: List[str] = []
    for sql in statements:
        got = service.collect_row_ids(sql)
        if not np.array_equal(got, brute_force_rows(db, sql)):
            problems.append(f"row ids differ: {sql}")
            if len(problems) == 5:
                break
    return problems
