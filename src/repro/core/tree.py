"""The query-data routing tree (qd-tree) itself.

A :class:`QdTree` is a binary tree of :class:`~repro.core.node.QdNode`.
It supports the two usages of paper Sec. 3:

* **Data routing** (Sec. 3.1): :meth:`route_to_blocks` recursively
  routes a batch of records down the tree with vectorized predicate
  evaluation, returning a per-row block-ID (BID) assignment.
* **Query routing** (Sec. 3.3): the leaves' semantic descriptions,
  stacked once into a :class:`~repro.core.router.PruningTable`
  (``block_descriptions(None, tree)``, or
  :class:`~repro.core.router.QueryRouter`), give the BIDs of all
  intersecting leaves.  The tree keeps no such table: it is mutable
  until frozen, and a table stays valid only while its leaves do.

After data is routed, :meth:`freeze` performs the min-max tightening
optimization of Sec. 3.2: each leaf's range/mask description is replaced
with the exact statistics of its records.

Trees serialize to/from plain dicts (:meth:`to_dict`/:meth:`from_dict`)
so learned layouts can be persisted next to the block catalog.

A tree is structure and descriptions only.  The sample rows, query-hit
vectors and cut-outcome matrix that construction needs live in
:mod:`repro.core.construct` for the duration of one walk and are never
attached to the tree that is saved, shared across generations or served.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from ..storage.blocks import leaf_pass
from ..storage.catalog import write_json_atomic
from ..storage.minmax import MinMaxIndex
from ..storage.schema import Schema
from ..storage.table import Table, group_rows
from .cuts import CutRegistry
from .node import NodeDescription, QdNode
from .predicates import AdvancedCut, ColumnPredicate, Predicate

__all__ = ["QdTree"]


def _cut_key(cut: Optional[Predicate]) -> str:
    """A cut's column, ``AC<index>`` for an advanced cut, else its type."""
    if isinstance(cut, ColumnPredicate):
        return cut.column
    if isinstance(cut, AdvancedCut):
        return f"AC{cut.index}"
    return type(cut).__name__


class QdTree:
    """A qd-tree over ``schema`` with cuts drawn from ``registry``.

    Parameters
    ----------
    schema:
        Table schema (owns categorical dictionaries).
    registry:
        The candidate-cut registry; required for advanced-cut bit-vector
        sizing and for serialization.
    """

    def __init__(self, schema: Schema, registry: Optional[CutRegistry] = None) -> None:
        self.schema = schema
        self.registry = registry if registry is not None else CutRegistry(schema)
        root_desc = NodeDescription.root(
            schema, num_advanced_cuts=self.registry.num_advanced_cuts
        )
        self._nodes: List[QdNode] = [QdNode(0, root_desc, depth=0)]
        self._frozen = False

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    @property
    def root(self) -> QdNode:
        return self._nodes[0]

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def is_frozen(self) -> bool:
        return self._frozen

    def node(self, node_id: int) -> QdNode:
        return self._nodes[node_id]

    def nodes(self) -> Tuple[QdNode, ...]:
        return tuple(self._nodes)

    def leaves(self) -> List[QdNode]:
        """All leaf nodes, in node-id order."""
        return [n for n in self._nodes if n.is_leaf]

    def internal_nodes(self) -> List[QdNode]:
        return [n for n in self._nodes if not n.is_leaf]

    def depth(self) -> int:
        """Maximum leaf depth (0 for the singleton tree)."""
        return max(n.depth for n in self.leaves())

    def iter_bfs(self) -> Iterator[QdNode]:
        """Breadth-first traversal from the root."""
        queue = [self.root]
        while queue:
            node = queue.pop(0)
            yield node
            if not node.is_leaf:
                assert node.left is not None and node.right is not None
                queue.append(node.left)
                queue.append(node.right)

    # ------------------------------------------------------------------
    # Growth
    # ------------------------------------------------------------------

    def apply_cut(self, node: QdNode, cut: Predicate) -> Tuple[QdNode, QdNode]:
        """Apply action ``a = (cut, node)``: split a leaf into two.

        Returns the (left, right) children.  The left child's sub-space
        satisfies ``cut``; the right satisfies its negation.  Pure
        structure: no row data is read or kept.
        """
        if self._frozen:
            raise RuntimeError("cannot grow a frozen qd-tree")
        if not node.is_leaf:
            raise ValueError(f"node {node.node_id} is not a leaf")
        left_desc, right_desc = node.description.split(cut)
        left = QdNode(len(self._nodes), left_desc, node.depth + 1, parent=node)
        self._nodes.append(left)
        right = QdNode(len(self._nodes), right_desc, node.depth + 1, parent=node)
        self._nodes.append(right)
        node.cut = cut
        node.left = left
        node.right = right
        return left, right

    # ------------------------------------------------------------------
    # Data routing (Sec. 3.1)
    # ------------------------------------------------------------------

    def route_table(self, table: Table) -> np.ndarray:
        """Route every row to a leaf; returns per-row leaf node ids.

        Vectorized: each tree edge evaluates its predicate once over the
        batch of rows reaching it.
        """
        return self.route_columns(table.columns(), table.num_rows)

    def route_columns(
        self, columns: Mapping[str, np.ndarray], num_rows: int
    ) -> np.ndarray:
        """Route rows given as raw column arrays."""
        assignment = np.empty(num_rows, dtype=np.int64)
        indices = np.arange(num_rows)
        self._route_recursive(self.root, columns, indices, assignment)
        return assignment

    def _route_recursive(
        self,
        node: QdNode,
        columns: Mapping[str, np.ndarray],
        indices: np.ndarray,
        assignment: np.ndarray,
    ) -> None:
        if node.is_leaf:
            assignment[indices] = node.node_id
            return
        if len(indices) == 0:
            return
        assert node.cut is not None and node.left is not None
        assert node.right is not None
        subset = {
            name: columns[name][indices]
            for name in node.cut.referenced_columns()
        }
        mask = node.cut.evaluate(subset)
        self._route_recursive(node.left, columns, indices[mask], assignment)
        self._route_recursive(node.right, columns, indices[~mask], assignment)

    def assign_block_ids(self) -> Dict[int, int]:
        """Assign dense BIDs to leaves; returns leaf node id -> BID."""
        mapping: Dict[int, int] = {}
        for bid, leaf in enumerate(self.leaves()):
            leaf.block_id = bid
            mapping[leaf.node_id] = bid
        return mapping

    def route_to_blocks(self, table: Table) -> np.ndarray:
        """Route rows and return per-row *block* IDs (dense) — the
        library's one rows -> BID function: layouts are built from it
        (:meth:`freeze`) and future rows are routed through it
        (:class:`~repro.core.ingest.IngestionPipeline`)."""
        self.assign_block_ids()
        return self.block_id_table()[self.route_table(table)]

    def block_id_table(self) -> np.ndarray:
        """Leaf node id -> BID (``-1`` at internal nodes): the lookup
        :meth:`route_to_blocks` maps routed leaves through."""
        lut = np.full(self.num_nodes, -1, dtype=np.int64)
        for leaf in self.leaves():
            lut[leaf.node_id] = leaf.block_id
        return lut

    # ------------------------------------------------------------------
    # Freezing (min-max tightening, Sec. 3.2)
    # ------------------------------------------------------------------

    def freeze(self, table: Table) -> np.ndarray:
        """Route the full dataset and tighten leaf descriptions.

        Returns the per-row dense BID assignment.  After freezing, leaf
        descriptions reflect exact per-leaf min-max / distinct stats, so
        query routing prunes at least as much as before.
        """
        bids = self.route_to_blocks(table)
        groups = group_rows(bids)
        _, stats = leaf_pass(table.schema, table.column, groups.order, groups.starts, encode=False)
        self.tighten(dict(zip(groups.ids.tolist(), stats)))
        return bids

    def tighten(self, stats: Mapping[int, MinMaxIndex]) -> None:
        """Tighten each leaf to its block's stats (BID -> index with
        dictionaries; a leaf without rows keeps its description) and
        freeze the tree."""
        for leaf in self.leaves():
            if leaf.block_id in stats:
                leaf.description = leaf.description.tighten(stats[leaf.block_id])
        self._frozen = True

    # ------------------------------------------------------------------
    # Introspection / serialization
    # ------------------------------------------------------------------

    def leaf_descriptions(self) -> Dict[int, str]:
        """BID -> human-readable semantic description string."""
        out: Dict[int, str] = {}
        for leaf in self.leaves():
            bid = leaf.block_id if leaf.block_id is not None else leaf.node_id
            out[bid] = repr(leaf.path_predicate())
        return out

    def cut_histogram(self) -> Dict[str, int]:
        """Cut column/advanced-cut name -> number of times cut."""
        return dict(Counter(_cut_key(node.cut) for node in self.internal_nodes()))

    def cuts_by_depth(self) -> Dict[int, Dict[str, int]]:
        """depth -> {cut name -> count}; data behind paper Fig. 9."""
        out: Dict[int, Dict[str, int]] = {}
        for node in self.internal_nodes():
            level = out.setdefault(node.depth, {})
            key = _cut_key(node.cut)
            level[key] = level.get(key, 0) + 1
        return out

    def to_dict(self) -> Dict[str, object]:
        """Serialize tree structure (cuts by registry index)."""
        nodes = []
        for node in self._nodes:
            entry: Dict[str, object] = {
                "id": node.node_id,
                "depth": node.depth,
                "parent": node.parent.node_id if node.parent else None,
                "block_id": node.block_id,
            }
            if not node.is_leaf:
                assert node.cut is not None
                assert node.left is not None and node.right is not None
                entry["cut"] = self.registry.index_of(node.cut)
                entry["left"] = node.left.node_id
                entry["right"] = node.right.node_id
            nodes.append(entry)
        return {"num_advanced_cuts": self.registry.num_advanced_cuts, "nodes": nodes}

    @classmethod
    def from_dict(
        cls, data: Mapping[str, object], schema: Schema, registry: CutRegistry
    ) -> "QdTree":
        """Rebuild a tree serialized by :meth:`to_dict`.

        The same ``registry`` (same cut order) must be supplied.
        """
        tree = cls(schema, registry)
        node_entries = list(data["nodes"])  # type: ignore[arg-type]
        # Child ids are allocated in pairs at apply time, so replaying
        # internal cuts sorted by left-child id reproduces the original
        # id assignment regardless of the original construction order.
        internal = sorted(
            (e for e in node_entries if "cut" in e), key=lambda e: int(e["left"])
        )
        for entry in internal:
            node = tree.node(int(entry["id"]))
            cut = registry.cut(int(entry["cut"]))
            left, right = tree.apply_cut(node, cut)
            if left.node_id != int(entry["left"]) or right.node_id != int(
                entry["right"]
            ):
                raise ValueError("node id mismatch when deserializing qd-tree")
        for entry in node_entries:
            if "cut" not in entry and entry.get("block_id") is not None:
                tree.node(int(entry["id"])).block_id = int(entry["block_id"])
        return tree

    def save(self, path: str) -> None:
        """Write :meth:`to_dict` as JSON (temp file + rename, so a
        crash never leaves a torn tree under ``path``)."""
        write_json_atomic(path, self.to_dict())

    @classmethod
    def load(cls, path: str, schema: Schema, registry: CutRegistry) -> "QdTree":
        """Read a tree saved by :meth:`save`."""
        with open(path) as f:
            return cls.from_dict(json.load(f), schema, registry)

    def __repr__(self) -> str:
        return (
            f"QdTree(nodes={self.num_nodes}, leaves={len(self.leaves())}, "
            f"depth={self.depth()})"
        )
