"""The skipping cost model ``C(P)`` (paper Sec. 2.1, Eq. 1).

For a partitioning ``P`` and workload ``W``, each block ``P_i``
contributes ``C(P_i) = |P_i| * sum_q S(P_i, q)`` skipped tuples, where
``S`` is 1 when the block can be skipped for query ``q``.  Skippability
is decided by the block's semantic description / min-max metadata via
:meth:`NodeDescription.may_match`.

This module computes the paper's *logical* metrics over a qd-tree:

* per-query tuples accessed,
* total skipped tuples ``C(P)``,
* the **access percentage** reported in Table 2
  (``accessed / (|W| * |V|)``),
* per-node subtree skips ``S(n)`` (Sec. 5.2.2).

Everything here is computed from scratch over any tree and any table:
``may_match`` on every (leaf, query) pair, sizes from
:func:`leaf_sizes`.  Construction keeps the same quantities
incrementally over its sample (:mod:`repro.core.construct`); the tests
hold the two equal.
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np

from ..storage.table import Table
from .node import QdNode
from .tree import QdTree
from .workload import Workload

__all__ = [
    "leaf_sizes",
    "tuples_accessed",
    "skipped_tuples",
    "scan_ratio",
    "access_percentage",
    "subtree_skips",
    "per_query_accessed",
]


def leaf_sizes(tree: QdTree, table: Table) -> Dict[int, int]:
    """Route ``table`` and return leaf node id -> row count."""
    assignment = tree.route_table(table)
    ids, counts = np.unique(assignment, return_counts=True)
    sizes = {int(i): int(c) for i, c in zip(ids, counts)}
    for leaf in tree.leaves():
        sizes.setdefault(leaf.node_id, 0)
    return sizes


def per_query_accessed(
    tree: QdTree, workload: Workload, sizes: Mapping[int, int]
) -> np.ndarray:
    """Tuples each query must scan under the tree's layout.

    A query scans the full size of every leaf whose semantic
    description it intersects (retrieved blocks are fully scanned,
    Sec. 1).
    """
    leaves = tree.leaves()
    accessed = np.zeros(len(workload), dtype=np.int64)
    for leaf in leaves:
        size = sizes.get(leaf.node_id, 0)
        if size == 0:
            continue
        desc = leaf.description
        for qi, query in enumerate(workload):
            if desc.may_match(query.predicate):
                accessed[qi] += size
    return accessed


def tuples_accessed(
    tree: QdTree, workload: Workload, sizes: Mapping[int, int]
) -> int:
    """Total tuples scanned across the workload."""
    return int(per_query_accessed(tree, workload, sizes).sum())


def skipped_tuples(
    tree: QdTree, workload: Workload, sizes: Mapping[int, int]
) -> int:
    """``C(P)``: total tuples skipped across the workload."""
    total_rows = sum(sizes.values())
    ceiling = total_rows * len(workload)
    return ceiling - tuples_accessed(tree, workload, sizes)


def scan_ratio(
    tree: QdTree, workload: Workload, sizes: Mapping[int, int]
) -> float:
    """Fraction of (tuple, query) pairs scanned — lower is better.

    ``1.0`` means every query scans everything; the lower bound is the
    true workload selectivity.
    """
    total_rows = sum(sizes.values())
    if total_rows == 0 or len(workload) == 0:
        return 0.0
    return tuples_accessed(tree, workload, sizes) / (total_rows * len(workload))


def access_percentage(tree: QdTree, workload: Workload, table: Table) -> float:
    """Table 2's metric: % of tuples accessed, on the full dataset."""
    sizes = leaf_sizes(tree, table)
    return 100.0 * scan_ratio(tree, workload, sizes)


def subtree_skips(
    tree: QdTree, workload: Workload, sizes: Mapping[int, int]
) -> Dict[int, int]:
    """Per-node ``S(n)``: skipped tuples under each node (Sec. 5.2.2).

    ``S(leaf) = C(leaf.records)`` (Eq. 1 restricted to the leaf) and
    ``S(n) = S(n.left) + S(n.right)`` for internal nodes.
    """
    skips: Dict[int, int] = {}

    def visit(node: QdNode) -> int:
        if node.is_leaf:
            size = sizes.get(node.node_id, 0)
            skipped_queries = 0
            if size > 0:
                for query in workload:
                    if not node.description.may_match(query.predicate):
                        skipped_queries += 1
            value = size * skipped_queries
        else:
            assert node.left is not None and node.right is not None
            value = visit(node.left) + visit(node.right)
        skips[node.node_id] = value
        return value

    visit(tree.root)
    return skips
