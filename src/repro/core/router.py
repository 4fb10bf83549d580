"""Online data and query routing (paper Sec. 3.1, 3.3, Fig. 6).

:class:`DataRouter` routes batches of incoming records through a
frozen-or-not qd-tree to BIDs, optionally with a thread pool over
batches (the paper's ingestion experiment, Fig. 6a — threads work
because the heavy per-node kernels are vectorized numpy which releases
the GIL).

:class:`QueryRouter` rewrites queries with an explicit ``BID IN (...)``
clause (Sec. 3.3) and records per-query routing latency (Fig. 6b).
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..obs.clock import now
from ..storage.blocks import BlockStore
from ..storage.table import Table
from .node import NodeDescription
from .tree import QdTree
from .workload import Query, Workload

__all__ = [
    "DataRouter",
    "QueryRouter",
    "RoutedQuery",
    "RoutingStats",
    "block_descriptions",
    "subtree_shard_assignment",
]


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


def block_descriptions(
    store: BlockStore,
    tree: Optional[QdTree] = None,
    num_advanced_cuts: int = 0,
    dictionaries: bool = True,
) -> Dict[int, NodeDescription]:
    """The pruning table of one layout generation: BID -> what the
    block may contain.

    Each entry is the block's own min-max / distinct stats — the
    tightening of paper Sec. 3.2, read off the stats the store already
    keeps — plus, for a tree-backed layout, the owning leaf's
    advanced-cut bits and path cuts; a leaf that owns no block keeps
    its own description.  Tree-less layouts have stats only, and honour
    a cost profile without block ``dictionaries``.  This is the only
    place the descriptions of a generation's blocks are constructed,
    and the result is never mutated: an ingest builds the next
    generation's table from the next generation's store.
    """
    if tree is None:
        root = NodeDescription.root(store.schema, num_advanced_cuts)
        return {
            block.block_id: root.tighten_to_stats(block.minmax, dictionaries)
            for block in store
        }
    return {
        leaf.block_id: leaf.description.tighten_to_stats(
            store.block(leaf.block_id).minmax
        )
        if leaf.block_id in store
        else leaf.description
        for leaf in tree.leaves()
    }


class QueryRouter:
    """Intercepts queries and augments them with BID filters.

    The paper routes queries by scanning leaf metadata; latencies here
    are real wall-clock per-query routing times (Fig. 6b).  With a
    ``store`` the metadata scanned is the layout generation's
    :func:`block_descriptions` table, built once here — route and
    min-max prune are then one pass, and the tree is only read.
    Without one the tree's own leaf descriptions are scanned (the
    paper-figure path, and the reference the table is tested against).
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
        self._descriptions = (
            block_descriptions(store, tree) if store is not None else None
        )
        # With a cap, only the most recent samples are retained so a
        # long-lived router cannot grow without bound.  The lock keeps
        # concurrent walks from interleaving their samples.
        self._latencies: "deque[float]" = deque(maxlen=max_latency_samples)
        self._lock = threading.Lock()

    def route(self, query: Query) -> RoutedQuery:
        """Prune blocks for one query, recording latency."""
        predicate = query.predicate
        with self._lock:
            t0 = now()
            if self._descriptions is None:
                bids = tuple(self.tree.route_query(predicate))
            else:
                bids = tuple(
                    bid
                    for bid, description in self._descriptions.items()
                    if description.may_match(predicate)
                )
            latency = now() - t0
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
        return tuple(self._latencies)

    def latency_cdf(self) -> Tuple[np.ndarray, np.ndarray]:
        """(sorted latencies, cumulative fraction) — Fig. 6b's CDF."""
        if not self._latencies:
            return np.empty(0), np.empty(0)
        xs = np.sort(np.asarray(self._latencies))
        ys = np.arange(1, len(xs) + 1) / len(xs)
        return xs, ys

    def reset_latencies(self) -> None:
        self._latencies.clear()
