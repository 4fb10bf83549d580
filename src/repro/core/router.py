"""Online data and query routing (paper Sec. 3.1, 3.3, Fig. 6).

:class:`DataRouter` routes batches of incoming records through a
frozen-or-not qd-tree to BIDs, optionally with a thread pool over
batches (the paper's ingestion experiment, Fig. 6a — threads work
because the heavy per-node kernels are vectorized numpy which releases
the GIL).

:class:`QueryRouter` rewrites queries with an explicit ``BID IN (...)``
clause (Sec. 3.3) and records per-query routing latency (Fig. 6b).  It
routes the way the paper says — "by scanning leaf metadata" — over a
:class:`PruningTable`: the leaves' sub-space descriptions as stacked
arrays (:func:`block_descriptions`; with the layout generation's block
store, each block's own stats), built once per router and matched
against a predicate in one numpy pass.

:meth:`PruningTable.match` is the library's one three-valued matcher.
The skipping cost model (:mod:`repro.core.cost`) matches a workload
against the same leaf table, and layout construction scores a node's
candidate cuts over the node's one-row table narrowed by every cut's
two sides (:meth:`PruningTable.narrowed`).  ``tests/scalar_oracle.py``
keeps the scalar recursion, one description at a time, as the
reference the tests hold the table to.

A serving tier memoises one survivor tuple per statement it has seen,
and never-seen statements far outnumber distinct answers (1 600 fresh
benchmark statements produced 335 distinct survivor sets), so
:meth:`PruningTable.matching` interns its answers: equal sets are one
shared tuple.  :data:`MEMO_CAP` bounds that intern table and every
per-statement memo in front of it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import reduce
from itertools import compress
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..obs.clock import now
from ..storage.blocks import BlockStore
from ..storage.minmax import MinMaxIndex
from ..storage.schema import Column, Schema
from ..storage.table import Table
from .node import NodeDescription
from .predicates import (
    AdvancedCut,
    And,
    ColumnPredicate,
    Not,
    Op,
    Or,
    Predicate,
    TruePredicate,
)
from .tree import QdTree
from .workload import Query, Workload

__all__ = [
    "DataRouter",
    "MEMO_CAP",
    "PruningTable",
    "QueryRouter",
    "RoutedQuery",
    "RoutingStats",
    "block_descriptions",
    "subtree_shard_assignment",
]

#: Entries each per-statement memo keeps (least recently used go
#: first): the planner's statements, the route memo's predicates and a
#: pruning table's interned survivor sets.  The largest distinct-
#: statement set a benchmark workload touches is ~1.2–1.6k.
MEMO_CAP = 2048


def subtree_shard_assignment(
    tree: QdTree,
    num_shards: int,
    weights: Optional[Mapping[int, int]] = None,
) -> Dict[int, int]:
    """Assign each leaf BID to a shard by qd-tree subtree locality.

    Leaves are visited in left-to-right (in-order) tree order — the
    order in which sibling subtrees enumerate their leaves — and cut
    into ``num_shards`` contiguous runs of near-equal total weight
    (``weights`` maps BID -> row count; unweighted when omitted).
    Contiguity in leaf order means each shard owns whole subtrees
    wherever the weight balance allows, so a routed query whose
    surviving BIDs cluster under one subtree fans out to few shards.

    Trade-off versus round-robin: round-robin balances block counts
    exactly and spreads every query over all shards (good for
    intra-query parallelism, high fan-out); subtree assignment keeps a
    selective query's scatter narrow (low fan-out, less coordination)
    but a hot subtree concentrates its load on one shard.

    Returns a BID -> shard mapping suitable for
    :meth:`repro.storage.blocks.BlockStore.partition`.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    if any(leaf.block_id is None for leaf in tree.leaves()):
        tree.assign_block_ids()

    ordered: List[int] = []

    def visit(node) -> None:
        if node.is_leaf:
            bid = node.block_id if node.block_id is not None else node.node_id
            ordered.append(bid)
            return
        visit(node.left)
        visit(node.right)

    visit(tree.root)
    weight = [max(int(weights.get(bid, 1)) if weights else 1, 0) for bid in ordered]
    assignment: Dict[int, int] = {}
    idx = 0
    remaining_weight = sum(weight) or len(ordered)
    for shard in range(num_shards):
        if idx >= len(ordered):
            break  # fewer leaves than shards: trailing shards stay empty
        # Greedy contiguous split: each shard takes leaves until it
        # reaches an equal share of the weight still unassigned, but
        # always leaves at least one leaf per remaining shard.
        target = remaining_weight / (num_shards - shard)
        acc = 0
        while idx < len(ordered):
            assignment[ordered[idx]] = shard
            acc += weight[idx]
            idx += 1
            if shard < num_shards - 1:
                if len(ordered) - idx <= num_shards - shard - 1:
                    break
                if acc >= target:
                    break
        remaining_weight -= acc
    return assignment


@dataclass
class RoutingStats:
    """Throughput accounting for one :meth:`DataRouter.route` call."""

    records: int
    seconds: float
    threads: int

    @property
    def records_per_second(self) -> float:
        return self.records / self.seconds if self.seconds > 0 else float("inf")


class DataRouter:
    """Routes record batches to block IDs through a qd-tree."""

    def __init__(self, tree: QdTree, batch_size: int = 65536) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.tree = tree
        self.batch_size = batch_size
        # BIDs must be assigned before ingestion starts.
        if any(leaf.block_id is None for leaf in tree.leaves()):
            tree.assign_block_ids()

    def route(self, table: Table, threads: int = 1) -> Tuple[np.ndarray, RoutingStats]:
        """Route all rows; returns (per-row BIDs, throughput stats).

        With ``threads > 1`` the table is chunked into batches routed
        concurrently (appends at the leaves in a real system would be
        lock-protected; here each batch owns its output slice).
        """
        if threads < 1:
            raise ValueError("threads must be >= 1")
        n = table.num_rows
        out = np.empty(n, dtype=np.int64)
        columns = table.columns()
        starts = list(range(0, n, self.batch_size))
        t0 = now()

        def work(start: int) -> None:
            stop = min(start + self.batch_size, n)
            batch = {name: arr[start:stop] for name, arr in columns.items()}
            out[start:stop] = self.tree.route_columns(batch, stop - start)

        if threads == 1 or len(starts) <= 1:
            for start in starts:
                work(start)
        else:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                list(pool.map(work, starts))
        seconds = now() - t0
        # Map leaf node ids to dense BIDs.
        lut = np.full(self.tree.num_nodes, -1, dtype=np.int64)
        for leaf in self.tree.leaves():
            assert leaf.block_id is not None
            lut[leaf.node_id] = leaf.block_id
        return lut[out], RoutingStats(records=n, seconds=seconds, threads=threads)


@dataclass(frozen=True)
class RoutedQuery:
    """A query augmented with its pruned BID list (``BID IN (...)``)."""

    query: Query
    block_ids: Tuple[int, ...]
    latency_seconds: float


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


#: One block of a generation as the table's constructor reads it: its
#: BID, the owning leaf's description (the root's, for a tree-less
#: layout) and the block's own stats (``None``: a leaf owning no block).
_Row = Tuple[int, NodeDescription, Optional[MinMaxIndex]]

#: NOT over a range comparison is the opposite comparison: the range's
#: complement is one interval.
_NEGATED = {Op.LT: Op.GE, Op.LE: Op.GT, Op.GT: Op.LE, Op.GE: Op.LT}


def _interval(
    column: Column, description: NodeDescription, minmax: Optional[MinMaxIndex]
) -> Tuple[float, float, bool, bool]:
    """``(lo, hi, lo_inclusive, hi_inclusive)`` of one block on one
    column: its own min-max where the store kept one (the tightening
    of paper Sec. 3.2), else what the leaf's path cuts left."""
    if column.is_numeric and minmax is not None:
        bounds = minmax.bounds(column.name)
        if bounds is not None:
            return bounds[0], bounds[1], True, True
    iv = description.hypercube.interval(column.name)
    return iv.lo, iv.hi, iv.lo_inclusive, iv.hi_inclusive


def _code_set(
    column: Column,
    description: NodeDescription,
    minmax: Optional[MinMaxIndex],
    dictionaries: bool,
) -> np.ndarray:
    """The codes one block may hold on a categorical column: its block
    dictionary; without ``dictionaries`` (or where the index kept
    none) the leaf's mask narrowed to the block's code range."""
    mask = description.categorical_masks[column.name]
    stats = minmax.column_stats(column.name) if minmax is not None else None
    if stats is None:
        return mask
    if dictionaries and stats.distinct is not None:
        return stats.distinct
    mask = mask.copy()
    mask[: max(int(stats.minimum), 0)] = False
    mask[int(stats.maximum) + 1 :] = False
    return mask


class PruningTable:
    """Stacked sub-space descriptions, one row each, every array
    read-only: the pruning metadata of one layout generation (a row per
    block, :meth:`from_rows`), or the candidate children of one node
    during layout construction (:meth:`narrowed`).

    ``bids[N]``
        Block ids in the order routing reports them: the tree's leaf
        order (tree-backed) or BID order (tree-less).  A tuple of the
        layout's own ``int`` objects, so the many routed lists a
        serving tier memoises hold each BID once between them.  (A
        narrowed table's ids are the ``by`` rows it was met with.)
    ``lo[c][N]``, ``hi[c][N]``, ``lo_inclusive[c][N]``, ``hi_inclusive[c][N]``
        Per column ``c``, the interval each row's values lie in
        (:func:`_interval`); unbounded where nothing is known.  Views
        of the ``C x N`` matrices the table was built from.
    ``categorical[c][N, W]``
        Per categorical column, row ``i`` is the set of codes row ``i``
        may hold (:func:`_code_set`).  ``W`` is the widest set;
        narrower rows are padded with ``False``: a literal beyond a
        block's dictionary is one the block cannot hold.
    ``adv_true[N, A]``, ``adv_false[N, A]``
        The owning leaf's advanced-cut possibility bits (Sec. 6.1).
    ``alive[N]``
        ``False`` where some interval is empty: such a row matches
        nothing.

    :meth:`match` is the table's one query (:meth:`matching` names its
    answer).  It never writes to an array it did not just allocate, so
    any number of threads may scan the same table.
    """

    def __init__(
        self,
        schema: Schema,
        bids: Sequence[int],
        lo: np.ndarray,
        hi: np.ndarray,
        lo_inclusive: np.ndarray,
        hi_inclusive: np.ndarray,
        categorical: Mapping[str, np.ndarray],
        adv_true: np.ndarray,
        adv_false: np.ndarray,
    ) -> None:
        """Take the stacked arrays by reference and make them
        read-only: the four interval arrays are ``C x N``, one row per
        schema column in schema order."""
        n = len(bids)
        self.schema = schema
        self.bids: Tuple[int, ...] = tuple(bids)
        self._bounds = tuple(
            _frozen(a) for a in (lo, hi, lo_inclusive, hi_inclusive)
        )
        names = schema.column_names
        self.lo: Dict[str, np.ndarray] = dict(zip(names, lo))
        self.hi: Dict[str, np.ndarray] = dict(zip(names, hi))
        self.lo_inclusive: Dict[str, np.ndarray] = dict(zip(names, lo_inclusive))
        self.hi_inclusive: Dict[str, np.ndarray] = dict(zip(names, hi_inclusive))
        self.alive = _frozen(
            ((lo < hi) | ((lo == hi) & lo_inclusive & hi_inclusive)).all(axis=0)
        )
        self.categorical: Dict[str, np.ndarray] = {
            name: _frozen(sets) for name, sets in categorical.items()
        }
        self.adv_true = _frozen(adv_true)
        self.adv_false = _frozen(adv_false)
        self._all = _frozen(np.ones(n, dtype=bool))
        self._none = _frozen(np.zeros(n, dtype=bool))
        #: :meth:`matching`'s answers, one tuple per distinct set,
        #: keyed by the packed match mask.
        self._interned: "OrderedDict[bytes, Tuple[int, ...]]" = OrderedDict()
        self._intern_lock = threading.Lock()

    @classmethod
    def from_rows(
        cls, schema: Schema, rows: Sequence[_Row], dictionaries: bool = True
    ) -> "PruningTable":
        """Stack ``(bid, description, block stats)`` rows: each row's
        block stats where present, else its description."""
        n = len(rows)
        cells = [
            [_interval(column, desc, minmax) for _, desc, minmax in rows]
            for column in schema
        ]
        bounds = np.array(cells, dtype=np.float64).reshape(len(schema), n, 4)
        categorical: Dict[str, np.ndarray] = {}
        for column in schema.categorical_columns:
            sets = [
                _code_set(column, desc, minmax, dictionaries)
                for _, desc, minmax in rows
            ]
            width = max([column.domain_size] + [len(codes) for codes in sets])
            matrix = np.zeros((n, width), dtype=bool)
            for i, codes in enumerate(sets):
                matrix[i, : len(codes)] = codes
            categorical[column.name] = matrix
        tracked = len(rows[0][1].adv_true) if rows else 0

        def stacked(bits: List[np.ndarray]) -> np.ndarray:
            return np.array(bits, dtype=bool).reshape(n, tracked)

        return cls(
            schema,
            [bid for bid, _, _ in rows],
            np.ascontiguousarray(bounds[..., 0]),
            np.ascontiguousarray(bounds[..., 1]),
            np.ascontiguousarray(bounds[..., 2], dtype=bool),
            np.ascontiguousarray(bounds[..., 3], dtype=bool),
            categorical,
            stacked([desc.adv_true for _, desc, _ in rows]),
            stacked([desc.adv_false for _, desc, _ in rows]),
        )

    def narrowed(self, by: "PruningTable", rows: np.ndarray) -> "PruningTable":
        """This one-row table intersected with each of ``by``'s
        ``rows``: row ``i`` of the result is what lies in both — the
        interval meet per column (the tighter bound, exclusive winning a
        tie, as ``Interval.intersect``), code sets and advanced-cut bits
        ANDed.  Layout construction meets a node with every candidate
        cut's two sides this way."""
        lo, hi, lo_inc, hi_inc = self._bounds
        by_lo, by_hi, by_lo_inc, by_hi_inc = (a[:, rows] for a in by._bounds)
        return PruningTable(
            self.schema,
            [by.bids[i] for i in rows.tolist()],
            np.maximum(lo, by_lo),
            np.minimum(hi, by_hi),
            (lo_inc | (by_lo > lo)) & (by_lo_inc | (lo > by_lo)),
            (hi_inc | (by_hi < hi)) & (by_hi_inc | (hi < by_hi)),
            {
                name: sets & by.categorical[name][rows]
                for name, sets in self.categorical.items()
            },
            self.adv_true & by.adv_true[rows],
            self.adv_false & by.adv_false[rows],
        )

    # ------------------------------------------------------------------
    # The conservative intersection of Sec. 3.3, for every block at once
    # ------------------------------------------------------------------

    def match(self, predicate: Predicate) -> np.ndarray:
        """``bool[N]``: could *some* record of each row's sub-space
        satisfy ``predicate``?  The conservative (never false-negative)
        three-valued test of Sec. 3.3: AND intersects iff all conjuncts
        do, OR iff any disjunct does, NOT swaps the two — each leaf test
        a few vector comparisons."""
        return self._may_satisfy(predicate, True) & self.alive

    def matching(self, predicate: Predicate) -> Tuple[int, ...]:
        """The BIDs :meth:`match` keeps, in table order — the same
        tuple object for every predicate with the same answer, while
        that answer is among the :data:`MEMO_CAP` most recent."""
        mask = self.match(predicate)
        key = np.packbits(mask).tobytes()
        interned = self._interned
        with self._intern_lock:
            bids = interned.get(key)
            if bids is not None:
                interned.move_to_end(key)
                return bids
        bids = tuple(compress(self.bids, mask.tolist()))
        with self._intern_lock:
            # a racing thread may have interned the same set meanwhile
            bids = interned.setdefault(key, bids)
            interned.move_to_end(key)
            while len(interned) > MEMO_CAP:
                interned.popitem(last=False)
        return bids

    def _may_satisfy(self, pred: Predicate, positive: bool) -> np.ndarray:
        if isinstance(pred, ColumnPredicate):
            return self._may_column(pred, positive)
        if isinstance(pred, (And, Or)):
            # AND needs every conjunct, OR any disjunct; under NOT the
            # two swap (De Morgan) and the children carry the negation.
            fold = (
                np.logical_and
                if isinstance(pred, And) == positive
                else np.logical_or
            )
            return reduce(fold, [self._may_satisfy(c, positive) for c in pred.children])
        if isinstance(pred, Not):
            return self._may_satisfy(pred.child, not positive)
        if isinstance(pred, AdvancedCut):
            if pred.index >= self.adv_true.shape[1]:
                # Not tracked by this tree: it can never prune.
                return self._all
            holds = positive if pred.positive else not positive
            return (self.adv_true if holds else self.adv_false)[:, pred.index]
        if isinstance(pred, TruePredicate):
            return self._all if positive else self._none
        raise TypeError(f"unsupported predicate {pred!r}")

    def _may_column(self, pred: ColumnPredicate, positive: bool) -> np.ndarray:
        column = self.schema[pred.column]
        if column.is_categorical and pred.op.is_equality:
            sets = self.categorical[pred.column]
            codes = np.asarray(pred.values, dtype=np.int64)
            codes = codes[(codes >= 0) & (codes < sets.shape[1])]
            if positive:
                return sets[:, codes].any(axis=1)
            # May a value OUTSIDE the literal set appear?
            return np.delete(sets, codes, axis=1).any(axis=1)
        # Numeric (or categorical used with a range op over codes).
        name = pred.column
        if pred.op is Op.IN:
            if positive:
                return reduce(
                    np.logical_or, [self._holds(name, v) for v in pred.values]
                )
            return self._all  # an interval can't prove all values are in the set
        op, v = pred.op, pred.value
        if not positive:
            if op is Op.EQ:
                return self._below(name, v, False) | self._above(name, v, False)
            op = _NEGATED[op]
        if op is Op.EQ:
            return self._holds(name, v)
        if op is Op.LT or op is Op.LE:
            return self._below(name, v, op is Op.LE)
        return self._above(name, v, op is Op.GE)

    def _below(self, name: str, v: float, inclusive: bool) -> np.ndarray:
        """Blocks that may hold a value ``< v`` (``<= v`` if inclusive)."""
        lo = self.lo[name]
        if inclusive:
            return (lo < v) | ((lo == v) & self.lo_inclusive[name])
        return lo < v

    def _above(self, name: str, v: float, inclusive: bool) -> np.ndarray:
        """Blocks that may hold a value ``> v`` (``>= v`` if inclusive)."""
        hi = self.hi[name]
        if inclusive:
            return (hi > v) | ((hi == v) & self.hi_inclusive[name])
        return hi > v

    def _holds(self, name: str, v: float) -> np.ndarray:
        """Blocks whose interval contains ``v``."""
        return self._below(name, v, True) & self._above(name, v, True)


def block_descriptions(
    store: Optional[BlockStore],
    tree: Optional[QdTree] = None,
    num_advanced_cuts: int = 0,
    dictionaries: bool = True,
) -> PruningTable:
    """The pruning table of one layout generation: what each block may
    contain.

    Each row is the block's own min-max / distinct stats — the
    tightening of paper Sec. 3.2, read off the stats the store already
    keeps — plus, for a tree-backed layout, the owning leaf's
    advanced-cut bits and path cuts; a leaf that owns no block keeps
    its own description.  Tree-less layouts have stats only, and honour
    a cost profile without block ``dictionaries``.  With no ``store``
    the rows are the ``tree``'s leaf descriptions alone, in leaf order,
    keyed by BID (the node id where none is assigned).  This is the
    only place pruning metadata is stacked, and the result is
    immutable: an ingest builds the next generation's table from the
    next generation's store.
    """
    if tree is None:
        root = NodeDescription.root(store.schema, num_advanced_cuts)
        return PruningTable.from_rows(
            store.schema,
            [(block.block_id, root, block.minmax) for block in store],
            dictionaries,
        )
    return PruningTable.from_rows(
        tree.schema,
        [
            (
                leaf.block_id if leaf.block_id is not None else leaf.node_id,
                leaf.description,
                store.block(leaf.block_id).minmax
                if store is not None and leaf.block_id in store
                else None,
            )
            for leaf in tree.leaves()
        ],
    )


class QueryRouter:
    """Intercepts queries and augments them with BID filters.

    The paper routes queries by scanning leaf metadata; latencies here
    are real wall-clock per-query routing times (Fig. 6b).  The
    metadata scanned is a :func:`block_descriptions` table built once
    here: the layout generation's blocks with a ``store`` (route and
    min-max prune are then one vector pass), the tree's own leaf
    descriptions without one (the paper-figure path).  The tree is
    only read.
    """

    def __init__(
        self,
        tree: QdTree,
        store: Optional[BlockStore] = None,
        max_latency_samples: Optional[int] = None,
    ) -> None:
        self.tree = tree
        if any(leaf.block_id is None for leaf in tree.leaves()):
            tree.assign_block_ids()
        self._table = block_descriptions(store, tree)
        # With a cap, only the most recent samples are retained so a
        # long-lived router cannot grow without bound.  The lock covers
        # the samples only: the table is immutable, so concurrent
        # routes share it freely.
        self._latencies: "deque[float]" = deque(maxlen=max_latency_samples)
        self._lock = threading.Lock()

    def route(self, query: Query) -> RoutedQuery:
        """Prune blocks for one query, recording latency."""
        t0 = now()
        bids = self._table.matching(query.predicate)
        latency = now() - t0
        with self._lock:
            self._latencies.append(latency)
        return RoutedQuery(query=query, block_ids=bids, latency_seconds=latency)

    def route_workload(self, workload: Workload) -> List[RoutedQuery]:
        """Route every query in a workload."""
        return [self.route(q) for q in workload]

    def rewrite_sql(self, routed: RoutedQuery) -> str:
        """The augmented SQL fragment the paper injects (Sec. 3.3)."""
        bids = ",".join(str(b) for b in routed.block_ids)
        return f"({routed.query.predicate!r}) AND BID IN ({bids})"

    @property
    def latencies(self) -> Tuple[float, ...]:
        """All recorded per-query routing latencies, in seconds."""
        with self._lock:
            return tuple(self._latencies)

    def latency_cdf(self) -> Tuple[np.ndarray, np.ndarray]:
        """(sorted latencies, cumulative fraction) — Fig. 6b's CDF."""
        xs = np.sort(np.asarray(self.latencies))
        ys = np.arange(1, len(xs) + 1) / len(xs)
        return xs, ys

    def reset_latencies(self) -> None:
        with self._lock:
            self._latencies.clear()
