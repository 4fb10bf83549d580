"""Physical data blocks and the block store.

A :class:`Block` is the unit of I/O in a scan-oriented system: a
horizontal slice of the table with a block ID (BID), an encoded columnar
payload, and a :class:`~repro.storage.minmax.MinMaxIndex`.  A
:class:`BlockStore` is an ordered collection of blocks produced by some
partitioner (a qd-tree, a baseline, ...), the object the execution
engine scans.

The paper's physical experiments convert each qd-tree leaf into one
Parquet file; here each leaf becomes one :class:`Block` (optionally
persisted to disk as ``.npz`` via :mod:`repro.storage.catalog`).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .columnar import EncodedChunk, decode_chunk, encode_segments
from .minmax import ColumnStats, MinMaxIndex, segment_stats
from .schema import Schema, SchemaError
from .table import RowGroups, Table, group_rows

__all__ = ["Block", "BlockStore", "build_blocks", "leaf_pass"]


class Block:
    """One physical block: encoded columns + SMA index + metadata.

    Parameters
    ----------
    block_id:
        Dense integer BID assigned by the partitioner.
    table:
        The rows assigned to this block.
    description:
        Optional human/machine-readable semantic description (a
        predicate string for qd-tree leaves; ``None`` for baselines,
        whose blocks are *not* complete).
    with_dictionaries:
        Whether the min-max index keeps categorical distinct-value bit
        sets (block dictionaries).
    """

    def __init__(
        self,
        block_id: int,
        table: Table,
        description: Optional[str] = None,
        with_dictionaries: bool = True,
        row_ids: Optional[np.ndarray] = None,
    ) -> None:
        self.block_id = block_id
        self.schema = table.schema
        self.num_rows = table.num_rows
        self.description = description
        # Optional provenance: original table row indices of this
        # block's rows, in block row order.  In-memory only (not
        # persisted by the catalog); differential test harnesses use it
        # to compare matched row-id sets across execution topologies.
        # An already-read-only int64 array is taken by reference (a
        # builder can freeze its own fresh array to avoid a copy);
        # anything still writeable is copied so the caller's array is
        # never mutated.
        if row_ids is not None:
            row_ids = np.asarray(row_ids, dtype=np.int64)
            if len(row_ids) != table.num_rows:
                raise ValueError(
                    f"row_ids length {len(row_ids)} != rows {table.num_rows}"
                )
            if row_ids.flags.writeable:
                row_ids = row_ids.copy()
                row_ids.setflags(write=False)
        self.row_ids = row_ids
        [self._chunks], [self.minmax] = leaf_pass(
            table.schema, table.column, None, _ONE, with_dictionaries
        )

    # ------------------------------------------------------------------

    def read_column(self, name: str) -> np.ndarray:
        """Decode and return one column (a columnar engine reads only
        the columns a query references)."""
        try:
            chunk = self._chunks[name]
        except KeyError:
            raise SchemaError(f"unknown column {name!r}") from None
        return decode_chunk(chunk)

    def read_columns(self, names: Sequence[str]) -> Dict[str, np.ndarray]:
        """Decode several columns at once."""
        return {name: self.read_column(name) for name in names}

    def decoded_nbytes(self, names: Sequence[str]) -> int:
        """Bytes the named columns occupy once decoded (buffer-pool
        cost), computed from chunk metadata without decoding."""
        total = 0
        for name in names:
            try:
                chunk = self._chunks[name]
            except KeyError:
                raise SchemaError(f"unknown column {name!r}") from None
            total += chunk.num_values * chunk.dtype.itemsize
        return total

    def to_table(self) -> Table:
        """Decode the full block back into a :class:`Table`."""
        cols = {name: self.read_column(name) for name in self.schema.column_names}
        return Table(self.schema, cols)

    # ------------------------------------------------------------------

    @property
    def encoded_nbytes(self) -> int:
        """Bytes the encoded block occupies on storage."""
        return sum(chunk.nbytes for chunk in self._chunks.values())

    def column_nbytes(self, names: Sequence[str]) -> int:
        """Encoded bytes of just the named columns (columnar reads)."""
        return sum(self._chunks[name].nbytes for name in names)

    def __len__(self) -> int:
        return self.num_rows

    def __repr__(self) -> str:
        return f"Block(id={self.block_id}, rows={self.num_rows})"


#: The one segment of a single block.
_ONE = np.zeros(1, dtype=np.int64)


def leaf_pass(
    schema: Schema,
    column: Callable[[str], np.ndarray],
    order: Optional[np.ndarray],
    starts: np.ndarray,
    with_dictionaries: bool = True,
    encode: bool = True,
) -> Tuple[List[Dict[str, EncodedChunk]], List[MinMaxIndex]]:
    """Every segment's chunks (``encode``) and min-max index, one
    column at a time: ``column(name)[order]`` puts segment ``i``'s rows
    at ``starts[i]`` onwards (``order=None``: they already are)."""
    chunks: List[Dict[str, EncodedChunk]] = [{} for _ in starts]
    stats: List[Dict[str, ColumnStats]] = [{} for _ in starts]
    for name in schema.column_names:
        values = column(name) if order is None else column(name)[order]
        bounds = None
        if len(values):
            bounds = np.minimum.reduceat(values, starts), np.maximum.reduceat(values, starts)
            per_segment = segment_stats(schema[name], values, starts, with_dictionaries, bounds)
            for seg, stat in zip(stats, per_segment):
                seg[name] = stat
        if encode:
            for seg, chunk in zip(chunks, encode_segments(values, starts, bounds)):
                seg[name] = chunk
    return chunks, [MinMaxIndex(seg) for seg in stats]


def build_blocks(
    schema: Schema,
    column: Callable[[str], np.ndarray],
    groups: RowGroups,
    descriptions: Optional[Mapping[int, str]] = None,
    with_dictionaries: bool = True,
    row_ids: Optional[np.ndarray] = None,
) -> List[Block]:
    """One block per group, in one leaf-ordered pass: each column
    (``column(name)``, in row order) is taken into group order once,
    and every block's chunk and stats are cut from that array before
    the next column is read.  ``row_ids``, in group order and
    read-only, are sliced into the blocks' provenance."""
    chunks, stats = leaf_pass(schema, column, groups.order, groups.starts, with_dictionaries)
    blocks = []
    for i, (bid, start, stop) in enumerate(
        zip(groups.ids.tolist(), groups.starts.tolist(), groups.stops.tolist())
    ):
        block = Block.__new__(Block)
        block.block_id, block.schema, block.num_rows = bid, schema, stop - start
        block.description = descriptions.get(bid) if descriptions else None
        block.row_ids = None if row_ids is None else row_ids[start:stop]
        block._chunks, block.minmax = chunks[i], stats[i]
        blocks.append(block)
    return blocks


class BlockStore:
    """An ordered set of blocks making up one physical layout.

    Iteration order is BID order.  The store also remembers the total
    logical row count, which may be *less* than the sum of block sizes
    when the layout replicates rows (Sec. 6.2 data overlap).
    """

    def __init__(
        self,
        schema: Schema,
        blocks: Iterable[Block],
        logical_rows: Optional[int] = None,
    ) -> None:
        self.schema = schema
        self._blocks: List[Block] = sorted(blocks, key=lambda b: b.block_id)
        seen = [b.block_id for b in self._blocks]
        if len(set(seen)) != len(seen):
            raise ValueError(f"duplicate block ids: {seen}")
        self._by_id: Dict[int, Block] = {b.block_id: b for b in self._blocks}
        self._bid_set = frozenset(self._by_id)
        stored = sum(b.num_rows for b in self._blocks)
        self.logical_rows = logical_rows if logical_rows is not None else stored

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_assignment(
        cls,
        table: Table,
        block_ids: np.ndarray,
        descriptions: Optional[Mapping[int, str]] = None,
        with_dictionaries: bool = True,
        with_row_ids: bool = True,
    ) -> "BlockStore":
        """Build a store from a per-row BID assignment.

        This is the "partition the dataset by the BID field" step of
        Sec. 3.1.  ``block_ids`` may contain any non-negative ints; BIDs
        are used as given (no re-densification) so they can match
        qd-tree leaf ids.  ``with_row_ids=False`` skips row-id
        provenance (8 bytes/row) for builds that will never need
        row-level differential checks.
        """
        block_ids = np.asarray(block_ids)
        if len(block_ids) != table.num_rows:
            raise ValueError(
                f"assignment length {len(block_ids)} != rows {table.num_rows}"
            )
        if len(block_ids) and block_ids.min() < 0:
            raise ValueError("negative block id in assignment")
        groups = group_rows(block_ids)
        blocks = build_blocks(
            table.schema, table.column, groups, descriptions, with_dictionaries,
            row_ids=groups.order if with_row_ids else None,
        )
        return cls(table.schema, blocks, logical_rows=table.num_rows)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    @property
    def num_blocks(self) -> int:
        return len(self._blocks)

    @property
    def stored_rows(self) -> int:
        """Physically stored rows (>= logical_rows with overlap)."""
        return sum(b.num_rows for b in self._blocks)

    @property
    def block_ids(self) -> Tuple[int, ...]:
        return tuple(b.block_id for b in self._blocks)

    @property
    def bid_set(self) -> frozenset:
        """Membership set of all BIDs (O(1) lookups)."""
        return self._bid_set

    def __iter__(self) -> Iterator[Block]:
        return iter(self._blocks)

    def __len__(self) -> int:
        return len(self._blocks)

    def __contains__(self, block_id: int) -> bool:
        return block_id in self._by_id

    def block(self, block_id: int) -> Block:
        """Fetch a block by BID."""
        try:
            return self._by_id[block_id]
        except KeyError:
            raise KeyError(f"no block with id {block_id}") from None

    def blocks(self, block_ids: Optional[Iterable[int]] = None) -> List[Block]:
        """Blocks with the given BIDs, in BID order (all when ``None``);
        BIDs absent from the store are ignored."""
        if block_ids is None:
            return list(self._blocks)
        wanted = set(block_ids) & self._bid_set
        return [self._by_id[bid] for bid in sorted(wanted)]

    # ------------------------------------------------------------------
    # Partitioning (sharded serving)
    # ------------------------------------------------------------------

    def partition(
        self,
        num_shards: int,
        strategy: str = "rr",
        assignment: Optional[Mapping[int, int]] = None,
    ) -> List["BlockStore"]:
        """Split into ``num_shards`` disjoint stores sharing the same
        :class:`Block` objects (no data is copied).

        Strategies
        ----------
        ``"rr"``
            Round-robin by BID order: shard ``i`` owns every
            ``num_shards``-th block.  Balances block counts regardless
            of layout shape but scatters neighbouring qd-tree leaves
            across shards.
        ``"assigned"``
            An explicit BID -> shard mapping supplied via
            ``assignment`` (how the qd-tree subtree strategy is
            expressed; see
            :func:`repro.core.router.subtree_shard_assignment`).
            Every BID in the store must be mapped to a shard in
            ``[0, num_shards)``.

        Every shard keeps its own ``bid_set``, so per-shard membership
        checks and SMA pruning see only shard-local blocks.  Shard
        ``logical_rows`` is its stored row count: with replicated
        layouts the parent's logical/stored distinction is a property
        of the whole layout, not of any one shard.
        """
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if assignment is not None:
            strategy = "assigned"
        if strategy == "rr":
            shard_of = {
                bid: i % num_shards for i, bid in enumerate(self.block_ids)
            }
        elif strategy == "assigned":
            if assignment is None:
                raise ValueError("strategy 'assigned' requires an assignment")
            missing = self._bid_set - set(assignment)
            if missing:
                raise ValueError(f"assignment missing BIDs: {sorted(missing)}")
            shard_of = {bid: int(assignment[bid]) for bid in self.block_ids}
            bad = {s for s in shard_of.values() if not 0 <= s < num_shards}
            if bad:
                raise ValueError(
                    f"shard indices {sorted(bad)} out of range [0, {num_shards})"
                )
        else:
            raise ValueError(f"unknown partition strategy {strategy!r}")
        members: List[List[Block]] = [[] for _ in range(num_shards)]
        for block in self._blocks:
            members[shard_of[block.block_id]].append(block)
        return [BlockStore(self.schema, blocks) for blocks in members]

    def min_block_size(self) -> int:
        """Smallest block's row count (to verify the ``b`` constraint)."""
        if not self._blocks:
            return 0
        return min(b.num_rows for b in self._blocks)

    def encoded_nbytes(self) -> int:
        """Total encoded bytes across blocks."""
        return sum(b.encoded_nbytes for b in self._blocks)

    def storage_overhead(self) -> float:
        """stored_rows / logical_rows — 1.0 means no replication."""
        if self.logical_rows == 0:
            return 1.0
        return self.stored_rows / self.logical_rows

    def __repr__(self) -> str:
        return (
            f"BlockStore(blocks={self.num_blocks}, "
            f"rows={self.stored_rows})"
        )
