"""The tree-construction MDP shared by Greedy and Woodblock.

Paper Sec. 4 (Algorithm 1) and Sec. 5.2 search the same space: a
*state* is a node's sub-space plus the sample records routed to it, an
*action* is a cut from the registry, an action is *legal* when both
children keep at least ``b`` sample records (Sec. 5.2.1; Sec. 6.2
relaxes this to one child), and the *value* of a subtree is ``S(n)``,
the (record, query) pairs it lets the workload skip (Sec. 5.2.2).

:class:`ConstructionEnv` is built once per ``(schema, registry, sample,
workload, b)`` and holds what every walk reuses — the ``rows x cuts``
outcome matrix, per cut the queries whose hit status the cut can
change, and per cut its two sides as the root's ``split`` states them.
:class:`Episode` is the scratch state of one walk: the tree under
construction, each open leaf's sample rows and each node's query hit
vector.  A construction algorithm is a *chooser* handed to
:meth:`ConstructionEnv.walk`; nothing of the episode is stored on the
:class:`~repro.core.tree.QdTree` it returns.

Two monotonicity facts keep hit vectors incremental: descriptions only
narrow, so a query that misses a node misses its children; and a split
can only change the status of queries that reference the cut's column
(or advanced-cut slot).  The hits of a node's candidate children are
one :class:`~repro.core.router.PruningTable` — the node's description
narrowed by each cut's sides — matched once per query that can change.
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple, Optional, Tuple

import numpy as np

from ..storage.schema import Schema
from ..storage.table import Table
from .cuts import CutRegistry
from .node import NodeDescription, QdNode
from .predicates import AdvancedCut, ColumnPredicate
from .router import PruningTable
from .tree import QdTree
from .workload import Workload

__all__ = ["Chooser", "ConstructionEnv", "CutOptions", "Episode"]


class CutOptions(NamedTuple):
    """What every candidate cut would do to one node's sample rows."""

    legal: np.ndarray  #: bool per cut — the action mask
    left_sizes: np.ndarray  #: rows satisfying each cut
    right_sizes: np.ndarray


#: ``(left, right)`` query hits: one vector per child, or, from
#: :meth:`Episode.child_hits`, a ``len(actions) x |W|`` matrix each.
HitPair = Tuple[np.ndarray, np.ndarray]

#: A construction policy: the registry index of the cut to apply at
#: ``node`` (one of ``options.legal``), or ``None`` to leave it a leaf.
Chooser = Callable[["Episode", QdNode, CutOptions], Optional[int]]


class ConstructionEnv:
    """Legality, transitions and rewards of qd-tree construction.

    ``min_leaf_size`` is ``b`` in *sample* rows;
    ``allow_small_children`` is the Sec. 6.2 relaxation (one child may
    fall below ``b``, neither may be empty).
    """

    def __init__(
        self,
        schema: Schema,
        registry: CutRegistry,
        sample: Table,
        workload: Workload,
        min_leaf_size: int,
        allow_small_children: bool = False,
    ) -> None:
        self.schema = schema
        self.registry = registry
        self.sample = sample
        self.workload = workload
        self.min_leaf_size = min_leaf_size
        self.allow_small_children = allow_small_children
        self.cut_masks = registry.evaluate_all(sample.columns(), sample.num_rows)
        self._root_left = np.count_nonzero(self.cut_masks, axis=0)
        self._affected = _affected_queries(registry, workload)
        root = NodeDescription.root(
            schema, num_advanced_cuts=registry.num_advanced_cuts
        )
        own = PruningTable.from_rows(schema, [(0, root, None)])
        self._root_hits = np.array(
            [own.match(q.predicate)[0] for q in workload], dtype=bool
        )
        # Each cut's two sides, stated once by the scalar split: row k
        # is cut k's left child of the root, row K + k its right.
        splits = [root.split(cut) for cut in registry.cuts]
        sides = [left for left, _ in splits] + [right for _, right in splits]
        self._sides = PruningTable.from_rows(
            schema, [(i, side, None) for i, side in enumerate(sides)]
        )

    def legal_cuts(self, rows: np.ndarray, left: Optional[np.ndarray] = None) -> CutOptions:
        """Child sizes of every cut over ``rows`` (``left``: each cut's
        count going left, when the walk kept it) and which are legal."""
        if left is None:
            left = np.count_nonzero(self.cut_masks[rows], axis=0)
        right = len(rows) - left
        b = self.min_leaf_size
        if self.allow_small_children:
            legal = (left >= 1) & (right >= 1) & (np.maximum(left, right) >= b)
        else:
            legal = (left >= b) & (right >= b)
        return CutOptions(legal, left, right)

    def walk(self, choose: Chooser, max_depth: Optional[int] = None) -> "Episode":
        """Grow one tree breadth-first, asking ``choose`` at every node
        that has a legal cut; returns the finished episode."""
        episode = Episode(self)
        queue = [episode.tree.root]
        while queue:
            node = queue.pop(0)
            if max_depth is not None and node.depth >= max_depth:
                continue
            options = self.legal_cuts(episode.rows[node.node_id], episode.left_counts[node.node_id])
            if not options.legal.any():
                continue
            action = choose(episode, node, options)
            if action is not None:
                queue.extend(episode.split(node, action))
            episode._scored.clear()  # scores of a decided node are dead
        episode.tree.assign_block_ids()
        return episode


class Episode:
    """One tree under construction plus the walk's scratch state."""

    def __init__(self, env: ConstructionEnv) -> None:
        self.env = env
        self.tree = QdTree(env.schema, env.registry)
        #: open leaf id -> sample row indices routed to it
        self.rows: Dict[int, np.ndarray] = {0: np.arange(env.sample.num_rows)}
        #: open leaf id -> per cut, how many of its rows go left
        self.left_counts: Dict[int, np.ndarray] = {0: env._root_left}
        #: node id -> sample row count
        self.sizes: Dict[int, int] = {0: env.sample.num_rows}
        #: node id -> bool per query: may the query touch the node?
        self.hits: Dict[int, np.ndarray] = {0: env._root_hits}
        self._scored: Dict[Tuple[int, int], HitPair] = {}

    def child_hits(self, node: QdNode, actions: np.ndarray) -> HitPair:
        """Hit vectors the children of ``node`` would get from each cut
        in ``actions`` — what a chooser scores; :meth:`split` reuses the
        rows of the cut it applies.

        A query keeps the node's hit unless the node may hold it *and*
        the cut can change it; those queries are matched against the
        node's ``2 x len(actions)`` candidate children at once.
        """
        env = self.env
        parent = self.hits[node.node_id]
        affected = env._affected[actions]
        queries = np.flatnonzero(parent & affected.any(axis=0))
        hits = np.tile(parent, (2 * len(actions), 1))
        if len(queries):
            own = PruningTable.from_rows(
                env.schema, [(node.node_id, node.description, None)]
            )
            children = own.narrowed(
                env._sides, np.concatenate([actions, actions + len(env.registry)])
            )
            matched = np.array(
                [children.match(env.workload[q].predicate) for q in queries]
            ).T
            hits[:, queries] = matched | ~np.tile(affected[:, queries], (2, 1))
        left, right = hits[: len(actions)], hits[len(actions) :]
        for i, action in enumerate(actions.tolist()):
            self._scored[node.node_id, action] = (left[i], right[i])
        return left, right

    def split(self, node: QdNode, action: int) -> Tuple[QdNode, QdNode]:
        """Apply ``T ⊕ (cut, node)``: grow the tree, partition the
        node's sample rows, derive the children's hit vectors and
        per-cut left counts — counted over the smaller child's rows
        only, the larger child's being the node's minus those."""
        cut_masks = self.env.cut_masks
        left, right = self.tree.apply_cut(node, self.env.registry.cut(action))
        if (node.node_id, action) not in self._scored:
            self.child_hits(node, np.array([action]))
        hits = self._scored[node.node_id, action]
        rows = self.rows.pop(node.node_id)
        goes_left = cut_masks[rows, action]
        parts = [rows[goes_left], rows[~goes_left]]
        small = int(len(parts[1]) < len(parts[0]))  # left on a tie
        counted = np.count_nonzero(cut_masks[parts[small]], axis=0)
        rest = self.left_counts.pop(node.node_id) - counted
        counts = (rest, counted) if small else (counted, rest)
        for child, child_rows, child_counts, child_hits in zip(
            (left, right), parts, counts, hits
        ):
            self.rows[child.node_id] = child_rows
            self.left_counts[child.node_id] = child_counts
            self.sizes[child.node_id] = len(child_rows)
            self.hits[child.node_id] = child_hits.copy()
        return left, right

    def subtree_skips(self) -> Dict[int, int]:
        """Per-node ``S(n)`` over the sample (Sec. 5.2.2), from the
        cached hit vectors: ``|leaf| x missed queries``, summed up."""
        num_queries = len(self.env.workload)
        skips: Dict[int, int] = {}
        # Children have larger ids than their parent, so one reverse
        # pass sees both children before every internal node.
        for node in reversed(self.tree.nodes()):
            if node.is_leaf:
                missed = num_queries - int(self.hits[node.node_id].sum())
                skips[node.node_id] = self.sizes[node.node_id] * missed
            else:
                assert node.left is not None and node.right is not None
                skips[node.node_id] = (
                    skips[node.left.node_id] + skips[node.right.node_id]
                )
        return skips

    def scan_ratio(self) -> float:
        """Fraction of (sample row, query) pairs the tree scans."""
        total = self.env.sample.num_rows * len(self.env.workload)
        return 1.0 - (self.subtree_skips()[0] / total if total else 0.0)


def _affected_queries(registry: CutRegistry, workload: Workload) -> np.ndarray:
    """``cuts x queries``: True where a split on the cut can change the
    query's hit status (the query references the cut's column or
    advanced-cut slot)."""
    by_column: Dict[str, set] = {}
    by_adv: Dict[int, set] = {}
    for qi, query in enumerate(workload):
        for leaf in query.predicate.leaves():
            if isinstance(leaf, ColumnPredicate):
                by_column.setdefault(leaf.column, set()).add(qi)
            elif isinstance(leaf, AdvancedCut):
                by_adv.setdefault(leaf.index, set()).add(qi)
    affected = np.zeros((len(registry), len(workload)), dtype=bool)
    for k, cut in enumerate(registry.cuts):
        if isinstance(cut, AdvancedCut):
            ids = by_adv.get(cut.index, set())
        else:
            ids = set().union(
                *(by_column.get(c, set()) for c in cut.referenced_columns())
            )
        affected[k, sorted(ids)] = True
    return affected
