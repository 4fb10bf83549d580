"""Layout validation: check the paper's invariants on a built layout.

A qd-tree layout promises three things (paper Sec. 1.1, 2.1, 3.2):

1. **Partition** — every row lands in exactly one leaf (without the
   overlap extension).
2. **Completeness** — each leaf holds *all* rows matching its semantic
   description and nothing else.
3. **Minimum block size** — every block holds at least ``b`` rows.

:func:`validate_layout` checks all three plus query-routing soundness
(no routed-out block ever contains a matching row) and returns a
structured report.  Useful in CI for any new construction algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..storage.table import Table
from .router import block_descriptions
from .tree import QdTree
from .workload import Workload

__all__ = ["ValidationReport", "validate_layout"]


@dataclass
class ValidationReport:
    """Outcome of :func:`validate_layout`."""

    is_partition: bool
    is_complete: bool
    meets_min_block_size: bool
    routing_sound: bool
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.is_partition
            and self.is_complete
            and self.meets_min_block_size
            and self.routing_sound
        )

    def raise_if_invalid(self) -> None:
        """Raise ``AssertionError`` with the violation list when bad."""
        if not self.ok:
            raise AssertionError(
                "layout validation failed:\n  " + "\n  ".join(self.violations)
            )


def validate_layout(
    tree: QdTree,
    table: Table,
    min_block_size: Optional[int] = None,
    workload: Optional[Workload] = None,
    max_queries: int = 50,
) -> ValidationReport:
    """Check partition/completeness/size/routing invariants.

    Parameters
    ----------
    tree:
        The constructed qd-tree (frozen or not).
    table:
        The full dataset the layout was built for.
    min_block_size:
        ``b``; when given, every leaf's row count is checked against it.
    workload:
        When given, up to ``max_queries`` queries are checked for
        routing soundness (every matching row's block is routed).
    """
    violations: List[str] = []
    assignment = tree.route_table(table)
    columns = table.columns()

    leaf_ids = {leaf.node_id for leaf in tree.leaves()}
    stray = set(np.unique(assignment)) - leaf_ids
    is_partition = not stray
    if stray:
        violations.append(f"rows routed to non-leaf nodes: {sorted(stray)}")

    is_complete = True
    for leaf in tree.leaves():
        desc_mask = leaf.description.matches_rows(columns)
        routed_mask = assignment == leaf.node_id
        if not np.array_equal(desc_mask, routed_mask):
            is_complete = False
            extra = int((desc_mask & ~routed_mask).sum())
            missing = int((routed_mask & ~desc_mask).sum())
            violations.append(
                f"leaf {leaf.node_id} incomplete: {extra} matching rows "
                f"stored elsewhere, {missing} stored rows not matching"
            )

    meets_min = True
    if min_block_size is not None:
        ids, counts = np.unique(assignment, return_counts=True)
        sizes = dict(zip(ids.tolist(), counts.tolist()))
        for leaf in tree.leaves():
            size = sizes.get(leaf.node_id, 0)
            if 0 < size < min_block_size:
                meets_min = False
                violations.append(
                    f"leaf {leaf.node_id} has {size} rows < b={min_block_size}"
                )

    routing_sound = True
    if workload is not None:
        bids = tree.route_to_blocks(table)
        leaves = block_descriptions(None, tree)
        for query in list(workload)[:max_queries]:
            routed = set(leaves.matching(query.predicate))
            matches = query.predicate.evaluate(columns)
            needed = set(np.unique(bids[matches]).tolist())
            leaked = needed - routed
            if leaked:
                routing_sound = False
                violations.append(
                    f"query {query.name or query!r} misses blocks {sorted(leaked)}"
                )

    return ValidationReport(
        is_partition=is_partition,
        is_complete=is_complete,
        meets_min_block_size=meets_min,
        routing_sound=routing_sound,
        violations=violations,
    )
