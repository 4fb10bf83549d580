"""Data overlap: trading storage for skipping (paper Sec. 6.2).

Construction with the relaxed cutting condition (one child may be
smaller than ``b``) can produce *small* leaves.  This module implements
the paper's post-pass: partition leaves into small (< b) and large
(>= b) sets, then **replicate** each small leaf's rows into every
neighbouring large leaf.  Two leaves are neighbours when their
hypercubes share boundaries on all but one dimension and are adjacent
on the remaining one; with our description-based routing we use the
equivalent and strictly safe criterion that the small leaf's rows are
copied into large leaves whose parent sub-space adjoins it (we test
hypercube adjacency directly).

Routing afterwards follows Sec. 6.2.1: a row lands in all matching
blocks; a query first collects overlapping blocks and then prunes
blocks that are *redundant* — fully covered by the union of already-
selected complete blocks (here: by a single covering block, the case
the paper illustrates).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from ..storage.blocks import Block, BlockStore, build_blocks
from ..storage.table import Table, group_rows
from .hypercube import Hypercube, Interval
from .router import PruningTable, block_descriptions
from .tree import QdTree
from .workload import Query

__all__ = ["OverlapLayout", "build_overlap_layout", "hypercubes_adjacent"]


def hypercubes_adjacent(
    a: Hypercube, b: Hypercube, columns: Sequence[str]
) -> bool:
    """Neighbour test: equal boundaries on all but one dimension and
    adjacent intervals on the remaining one (paper Sec. 6.2)."""
    differing = []
    for column in columns:
        ia, ib = a.interval(column), b.interval(column)
        if ia == ib:
            continue
        differing.append((ia, ib))
        if len(differing) > 1:
            return False
    if len(differing) != 1:
        return False
    ia, ib = differing[0]
    touches = (
        ia.hi == ib.lo and (ia.hi_inclusive or ib.lo_inclusive)
    ) or (ib.hi == ia.lo and (ib.hi_inclusive or ia.lo_inclusive))
    return touches


def _hypercubes_touch(
    a: Hypercube, b: Hypercube, columns: Sequence[str]
) -> bool:
    """Do the closures of the two hypercubes share any point?"""
    for column in columns:
        ia, ib = a.interval(column), b.interval(column)
        closed_a = Interval(ia.lo, ia.hi, True, True)
        closed_b = Interval(ib.lo, ib.hi, True, True)
        if not closed_a.intersects(closed_b):
            return False
    return True


@dataclass
class OverlapLayout:
    """A physical layout where small leaves were replicated.

    ``assignments`` maps each row index to *all* BIDs storing it (one or
    more).  ``replicated_rows`` counts row copies beyond the logical
    count — the extra storage spent.
    """

    tree: QdTree
    store: BlockStore
    assignments: Dict[int, List[int]]
    replicated_rows: int
    host_blocks: Dict[int, List[int]]  # small BID -> hosting large BIDs
    #: the leaves' descriptions, stacked once for every routed query
    _table: PruningTable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._table = block_descriptions(None, self.tree)

    def blocks_for_query(self, query: Query) -> List[int]:
        """Candidate BIDs with redundancy pruning (Sec. 6.2.1).

        Collects intersecting blocks, then drops any block whose
        intersection with the query is fully served by another selected
        block that *hosts* it (completeness makes this sound).
        """
        candidates = self._table.matching(query.predicate)
        selected = set(candidates)
        for small_bid, hosts in self.host_blocks.items():
            if small_bid in selected:
                hosting = [h for h in hosts if h in selected]
                if hosting:
                    # The small block's rows are replicated inside an
                    # already-selected host block: the standalone small
                    # block is redundant.
                    selected.discard(small_bid)
        return sorted(selected)


def build_overlap_layout(
    tree: QdTree,
    table: Table,
    min_block_size: int,
) -> OverlapLayout:
    """Replicate small leaves into neighbouring large leaves.

    ``tree`` should have been constructed with the relaxed cutting
    condition (``allow_small_children=True``) so that sub-``b`` leaves
    exist; trees without small leaves come back unchanged.
    """
    tree.assign_block_ids()
    bids = tree.route_to_blocks(table)
    leaves = tree.leaves()
    sizes = {leaf.block_id: int((bids == leaf.block_id).sum()) for leaf in leaves}
    numeric_columns = [c.name for c in table.schema.numeric_columns]

    small = [l for l in leaves if sizes[l.block_id] < min_block_size]
    large = [l for l in leaves if sizes[l.block_id] >= min_block_size]

    assignments: Dict[int, List[int]] = {
        int(row): [int(bid)] for row, bid in enumerate(bids)
    }
    host_blocks: Dict[int, List[int]] = {}
    replicated = 0
    for leaf in small:
        hosts = [
            other
            for other in large
            if hypercubes_adjacent(
                leaf.description.hypercube,
                other.description.hypercube,
                numeric_columns,
            )
        ]
        if not hosts:
            # Degenerate small leaves (e.g. the Fig. 4 singleton at the
            # exact intersection of all query rectangles) may differ
            # from every large leaf in more than one dimension; fall
            # back to face-touching blocks.  Completeness is preserved
            # because hosts are tracked explicitly and each host's
            # stored region is the union of the two sub-spaces.
            hosts = [
                other
                for other in large
                if _hypercubes_touch(
                    leaf.description.hypercube,
                    other.description.hypercube,
                    numeric_columns,
                )
            ]
        if not hosts:
            continue
        assert leaf.block_id is not None
        host_blocks[leaf.block_id] = [h.block_id for h in hosts]  # type: ignore[misc]
        rows = np.flatnonzero(bids == leaf.block_id)
        for host in hosts:
            assert host.block_id is not None
            for row in rows:
                assignments[int(row)].append(int(host.block_id))
            replicated += len(rows)

    # Materialize physical blocks (a row may appear in several): one
    # leaf-ordered pass over every (row, block) copy, rows ascending.
    copies = [(row, bid) for row, blist in assignments.items() for bid in blist]
    rows, homes = np.array(copies, dtype=np.int64).reshape(-1, 2).T
    descriptions = tree.leaf_descriptions()
    blocks = build_blocks(
        table.schema, lambda name: table.column(name)[rows], group_rows(homes), descriptions
    )
    filled = {block.block_id for block in blocks}
    blocks += [
        Block(leaf.block_id, table.take(rows[:0]), description=descriptions.get(leaf.block_id))
        for leaf in leaves
        if leaf.block_id not in filled
    ]
    store = BlockStore(table.schema, blocks, logical_rows=table.num_rows)
    return OverlapLayout(
        tree=tree,
        store=store,
        assignments=assignments,
        replicated_rows=replicated,
        host_blocks=host_blocks,
    )
