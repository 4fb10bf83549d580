"""The skipping cost model ``C(P)`` (paper Sec. 2.1, Eq. 1).

For a partitioning ``P`` and workload ``W``, each block ``P_i``
contributes ``C(P_i) = |P_i| * sum_q S(P_i, q)`` skipped tuples, where
``S`` is 1 when the block can be skipped for query ``q``.  Skippability
is decided by the block's semantic description: the tree's leaves
stacked into one :class:`~repro.core.router.PruningTable`
(``block_descriptions(None, tree)``) and matched once per query.

This module computes the paper's *logical* metrics over a qd-tree:

* per-query tuples accessed,
* total skipped tuples ``C(P)``,
* the **access percentage** reported in Table 2
  (``accessed / (|W| * |V|)``),
* per-node subtree skips ``S(n)`` (Sec. 5.2.2).

Everything here is computed from scratch over any tree and any table,
as array operations on the ``|W| x leaves`` hit matrix
(:func:`_leaf_hits`) and the leaf-size vector from :func:`leaf_sizes`.
Construction keeps the same quantities incrementally over its sample
(:mod:`repro.core.construct`); the tests hold the two equal.
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

import numpy as np

from ..storage.table import Table
from .node import QdNode
from .router import block_descriptions
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


def _leaf_hits(
    tree: QdTree, workload: Workload, sizes: Mapping[int, int]
) -> Tuple[np.ndarray, np.ndarray]:
    """``(hits, leaf_size)`` in leaf order: ``hits[q, i]`` is whether
    query ``q`` may touch leaf ``i``, and ``leaf_size[i]`` its rows."""
    leaves = tree.leaves()
    table = block_descriptions(None, tree)
    hits = np.array(
        [table.match(query.predicate) for query in workload], dtype=bool
    ).reshape(len(workload), len(leaves))
    leaf_size = np.array(
        [sizes.get(leaf.node_id, 0) for leaf in leaves], dtype=np.int64
    )
    return hits, leaf_size


def per_query_accessed(
    tree: QdTree, workload: Workload, sizes: Mapping[int, int]
) -> np.ndarray:
    """Tuples each query must scan under the tree's layout.

    A query scans the full size of every leaf whose semantic
    description it intersects (retrieved blocks are fully scanned,
    Sec. 1).
    """
    hits, leaf_size = _leaf_hits(tree, workload, sizes)
    return hits @ leaf_size


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
    hits, leaf_size = _leaf_hits(tree, workload, sizes)
    missed = leaf_size * (len(workload) - hits.sum(axis=0))
    leaf_skips = dict(zip([leaf.node_id for leaf in tree.leaves()], missed.tolist()))
    skips: Dict[int, int] = {}

    def visit(node: QdNode) -> int:
        if node.is_leaf:
            value = leaf_skips[node.node_id]
        else:
            assert node.left is not None and node.right is not None
            value = visit(node.left) + visit(node.right)
        skips[node.node_id] = value
        return value

    visit(tree.root)
    return skips
