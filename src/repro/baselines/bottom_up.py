"""Bottom-Up row grouping (Sun et al. 2014) — the state-of-the-art
comparison of the paper (Sec. 2.2.2, Sec. 7.3).

Pipeline:

1. **Feature selection.**  Candidate features are the workload's
   candidate cuts.  Features are ranked by *frequency* — the number of
   queries each feature subsumes — after a topological pass over the
   feature subsumption relation; picking a feature discounts the
   frequency of others that subsume common queries; features whose
   frequency falls below a threshold are dropped, and at most
   ``max_features`` survive (the paper configures 15).

   The **BU+** tuning from paper Sec. 7.5 additionally rejects features
   with selectivity above ``selectivity_threshold`` (the untuned
   selector otherwise latches onto frequent-but-unselective predicates
   and skips almost nothing).

2. **Vectorization.**  Every tuple is mapped to its feature bitmap;
   identical bitmaps are grouped with a row weight.

3. **Greedy clustering.**  Each unique vector starts as a block;
   repeatedly merge the pair with the lowest penalty (the increase in
   scanned tuples caused by the union of their query-scan sets) until
   every block holds at least ``min_block_size`` rows.

The resulting blocks have OR-of-bitmaps descriptions but are **not
complete** — which is precisely the property the qd-tree fixes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..core.cuts import CutRegistry
from ..core.workload import Workload
from ..storage.table import Table, group_rows
from .subsumption import implies

__all__ = ["BottomUpConfig", "BottomUpPartitioner", "select_features"]


@dataclass
class BottomUpConfig:
    """Knobs for the Bottom-Up partitioner."""

    min_block_size: int
    max_features: int = 15
    frequency_threshold: int = 1
    #: BU+ tuning: drop features more selective than this fraction
    #: (None reproduces the untuned original algorithm).
    selectivity_threshold: Optional[float] = None
    #: Clustering produces logical row *groups*; groups larger than
    #: this are stored as multiple physical blocks so every layout in
    #: an experiment has a comparable number of blocks (paper Sec. 7.1
    #: "we ensure that all layouts have a comparable number of
    #: blocks").  ``None`` keeps one block per group.
    max_block_size: Optional[int] = None
    name: str = "bottom-up"


def select_features(
    registry: CutRegistry,
    workload: Workload,
    table: Table,
    config: BottomUpConfig,
) -> List[int]:
    """Pick up to ``max_features`` cut indices as skipping features."""
    cuts = list(registry.cuts)
    num_queries = len(workload)

    # BU+ tuning: drop features touching too many rows up front — they
    # cannot skip much, and (being the most general) they would
    # otherwise dominate both the frequency ranking and the
    # topological eligibility rule.  This reproduces the paper's fix
    # for untuned Bottom-Up latching onto frequent-but-unselective
    # predicates (Sec. 7.5).
    candidates = list(range(len(cuts)))
    if config.selectivity_threshold is not None:
        columns = table.columns()
        candidates = [
            fi
            for fi in candidates
            if float(cuts[fi].evaluate(columns).mean())
            <= config.selectivity_threshold
        ]
    if not candidates:
        return []

    # Which queries each surviving feature subsumes.
    subsumed = np.zeros((len(cuts), num_queries), dtype=bool)
    for fi in candidates:
        for qi, query in enumerate(workload):
            subsumed[fi, qi] = implies(query.predicate, cuts[fi])
    frequencies = subsumed.sum(axis=1).astype(np.float64)

    # Feature-vs-feature subsumption for the topological ordering: a
    # feature is only eligible while not implied by... precisely, a
    # feature is eligible when it does not imply any other remaining
    # feature (most-general-first, matching the paper's description).
    feature_subsumes = np.zeros((len(cuts), len(cuts)), dtype=bool)
    for i in candidates:
        for j in candidates:
            if i != j:
                feature_subsumes[i, j] = implies(cuts[j], cuts[i])

    selected: List[int] = []
    remaining = set(candidates)
    covered = np.zeros(num_queries, dtype=bool)
    while remaining and len(selected) < config.max_features:
        eligible = [
            fi
            for fi in remaining
            if not any(
                feature_subsumes[fj, fi] for fj in remaining if fj != fi
            )
        ]
        if not eligible:
            eligible = list(remaining)
        best = max(eligible, key=lambda fi: frequencies[fi])
        if frequencies[best] < config.frequency_threshold:
            break
        selected.append(best)
        remaining.discard(best)
        covered |= subsumed[best]
        # Discount: remaining features lose credit for queries already
        # covered by the chosen feature.
        for fi in remaining:
            frequencies[fi] = float((subsumed[fi] & ~covered).sum())
    return selected


def _split_large_groups(bids: np.ndarray, max_block_size: int) -> np.ndarray:
    """Re-chunk each logical group into the fewest physical blocks of
    at most ``max_block_size`` rows, balanced to within one row so no
    chunk is a runt (dense BIDs, row order preserved)."""
    if max_block_size < 1:
        raise ValueError("max_block_size must be >= 1")
    out = np.empty_like(bids)
    next_bid = 0
    for _, rows in group_rows(bids):
        for chunk in np.array_split(rows, -(-len(rows) // max_block_size)):
            out[chunk] = next_bid
            next_bid += 1
    return out


@dataclass
class BottomUpPartitioner:
    """The Sun et al. clustering partitioner."""

    registry: CutRegistry
    workload: Workload
    config: BottomUpConfig
    #: Populated by :meth:`partition` for introspection.
    selected_features: List[int] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.config.name

    # ------------------------------------------------------------------

    def partition(self, table: Table) -> np.ndarray:
        """Per-row BID assignment."""
        config = self.config
        self.selected_features = select_features(
            self.registry, self.workload, table, config
        )
        if not self.selected_features:
            # No usable features: a single block (matching the paper's
            # observation that untuned BU can degenerate to ~full scan).
            return np.zeros(table.num_rows, dtype=np.int64)
        columns = table.columns()
        feature_bits = np.stack(
            [
                self.registry.cut(fi).evaluate(columns)
                for fi in self.selected_features
            ]
        ).T  # (rows, features)
        vectors, inverse, counts = np.unique(
            feature_bits, axis=0, return_inverse=True, return_counts=True
        )
        scan_sets = self._query_scan_sets(vectors)
        group_of_vector = self._cluster(
            counts.astype(np.int64), scan_sets, config.min_block_size
        )
        bids = group_of_vector[inverse]
        if config.max_block_size is not None:
            bids = _split_large_groups(bids, config.max_block_size)
        return bids

    # ------------------------------------------------------------------

    def _query_scan_sets(self, vectors: np.ndarray) -> np.ndarray:
        """(num_vectors, num_queries) — True where the query must scan.

        Query ``q`` can skip a block iff some selected feature has bit
        0 in the block's bitmap and subsumes ``q``.
        """
        num_vectors = len(vectors)
        num_queries = len(self.workload)
        subsumes = np.zeros((len(self.selected_features), num_queries), dtype=bool)
        for si, fi in enumerate(self.selected_features):
            cut = self.registry.cut(fi)
            for qi, query in enumerate(self.workload):
                subsumes[si, qi] = implies(query.predicate, cut)
        must_scan = np.ones((num_vectors, num_queries), dtype=bool)
        for vi in range(num_vectors):
            zero_features = np.flatnonzero(~vectors[vi])
            if len(zero_features):
                skippable = subsumes[zero_features].any(axis=0)
                must_scan[vi] = ~skippable
        return must_scan

    def _cluster(
        self,
        weights: np.ndarray,
        scan_sets: np.ndarray,
        min_block_size: int,
    ) -> np.ndarray:
        """Greedy lowest-penalty merging until all blocks reach ``b``.

        Returns the block id of each unique feature vector.

        Each iteration takes the smallest under-``b`` block and merges
        it with its lowest-penalty partner; the partner search is one
        vectorized pass over all alive blocks.  (Sun et al. search the
        global minimum pair per iteration, which is quadratic per merge
        and cubic overall; the smallest-block order produces the same
        kind of clustering at O(k^2) total and is the standard
        practical variant.)
        """
        num = len(weights)
        sizes = weights.astype(np.int64).copy()
        sets = scan_sets.copy()
        alive = np.ones(num, dtype=bool)
        parent = np.arange(num)

        while True:
            alive_idx = np.flatnonzero(alive)
            if len(alive_idx) < 2:
                break
            small_mask = sizes[alive_idx] < min_block_size
            if not small_mask.any():
                break
            # Smallest under-b block merges first.
            i = int(alive_idx[small_mask][np.argmin(sizes[alive_idx][small_mask])])
            # "Once the size of a block reaches b, it does not further
            # merge with other blocks" (paper Sec. 2.2.2): prefer
            # partners still under b so finished blocks stay near b and
            # the final block count is comparable to other layouts.
            others = alive_idx[(alive_idx != i) & (sizes[alive_idx] < min_block_size)]
            if len(others) == 0:
                others = alive_idx[alive_idx != i]
            # penalty(i, j) = w_i * |Q_j \ Q_i| + w_j * |Q_i \ Q_j|
            only_j = (sets[others] & ~sets[i]).sum(axis=1)
            only_i = (~sets[others] & sets[i]).sum(axis=1)
            penalties = sizes[i] * only_j + sizes[others] * only_i
            j = int(others[np.argmin(penalties)])
            sizes[j] += sizes[i]
            sets[j] |= sets[i]
            alive[i] = False
            parent[i] = j

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        roots = sorted({find(i) for i in range(num)})
        root_to_bid = {root: bid for bid, root in enumerate(roots)}
        return np.array([root_to_bid[find(i)] for i in range(num)], dtype=np.int64)
