"""The leaf-ordered build against the per-block oracle.

``BlockStore.from_assignment``, ``Block(bid, table)``, ``QdTree.freeze``
/ ``QdTree.tighten`` and ``Database.ingest`` all materialize blocks
through one leaf-ordered pass; ``build_reference`` keeps the per-block
loop they replaced.  The construction walk's per-node cut counts,
derived from the smaller child, are held to a from-scratch count.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from build_reference import (
    ReferenceBlock,
    assert_block_matches,
    assert_stats_match,
    reference_blocks,
    reference_chunk,
    reference_merge,
    reference_stats,
    reference_tighten,
)
from repro.core import (
    ConstructionEnv,
    CutRegistry,
    QdTree,
    Workload,
    column_in,
    column_lt,
)
from repro.db import Database
from repro.storage import Block, BlockStore, MinMaxIndex, Schema, Table
from repro.storage import categorical, numeric
from repro.storage.columnar import Encoding, encode_column

#: Wide enough that codes above 255 need a 16-bit bitpack.
DOMAIN = 400

SCHEMA = Schema(
    [
        numeric("f", (0.0, 1.0)),
        numeric("i", (-(2**40), 2**40)),
        numeric("k", (0.0, 10.0)),
        categorical("c", [f"v{i}" for i in range(DOMAIN)]),
    ]
)


@st.composite
def assigned_tables(draw):
    """A table and a BID per row: single-row blocks, constant columns,
    float blocks some constant (RLE) and some random (PLAIN), integer
    spans from 8- to 64-bit packs, codes below and above 255."""
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.sampled_from([1, 3]))
    bids = rng.integers(0, draw(st.integers(1, n)), n) * spread
    f = rng.uniform(0, 1, n)
    constant = np.isin(bids, rng.choice(bids, size=max(1, n // 8)))
    f[constant] = 0.5
    span = draw(st.sampled_from([1, 200, 300, 70_000, 2**40]))
    table = Table(
        SCHEMA,
        {
            "f": f,
            "i": rng.integers(-span, span, n),
            "k": np.full(n, 7.0),
            "c": rng.integers(0, draw(st.sampled_from([3, DOMAIN])), n),
        },
    )
    return table, bids


@given(assigned_tables(), st.booleans())
@settings(max_examples=80, deadline=None)
def test_builder_equals_per_block_oracle(assigned, with_dictionaries):
    table, bids = assigned
    store = BlockStore.from_assignment(
        table, bids, with_dictionaries=with_dictionaries
    )
    expected = reference_blocks(table, bids, with_dictionaries)
    assert list(store.block_ids) == sorted(expected)
    for block in store:
        assert_block_matches(block, expected[block.block_id])
    # one segment: a Block of the whole table, and its MinMaxIndex
    whole = ReferenceBlock(
        None,
        {name: reference_chunk(arr) for name, arr in table.columns().items()},
        reference_stats(table, with_dictionaries),
    )
    assert_block_matches(
        Block(0, table, with_dictionaries=with_dictionaries), whole
    )
    assert_stats_match(
        MinMaxIndex.build(table, with_dictionaries=with_dictionaries), whole.stats
    )


def test_oracle_shapes_are_reached():
    """The shapes the property is meant to cover do occur: RLE for a
    constant column, a 16-bit pack for codes above 255, PLAIN beside
    RLE in one column, and the PLAIN/RLE tie on two rows."""
    rng = np.random.default_rng(0)
    assert encode_column(np.full(9, 7.0)).encoding is Encoding.RLE
    wide = encode_column(rng.integers(0, DOMAIN, 50))
    assert wide.encoding is Encoding.BITPACK
    assert wide.payload[1].dtype == np.uint16
    assert encode_column(np.array([1.5, 1.5])).encoding is Encoding.PLAIN
    f = np.concatenate([np.full(10, 0.5), rng.uniform(0, 1, 10)])
    zeros = np.zeros(20, dtype=np.int64)
    table = Table(SCHEMA, {"f": f, "i": zeros, "k": np.ones(20), "c": zeros})
    store = BlockStore.from_assignment(table, np.repeat([0, 1], 10))
    encodings = [block._chunks["f"].encoding for block in store]
    assert encodings == [Encoding.RLE, Encoding.PLAIN]


def _grow(table, cuts, seed):
    """A tree cutting a random leaf with each cut in turn."""
    tree = QdTree(SCHEMA, CutRegistry(SCHEMA, cuts))
    rng = np.random.default_rng(seed)
    for cut in cuts:
        leaves = tree.leaves()
        tree.apply_cut(leaves[rng.integers(len(leaves))], cut)
    return tree


def _assert_same_description(got, want):
    assert got.hypercube == want.hypercube
    assert got.categorical_masks.keys() == want.categorical_masks.keys()
    for name, mask in want.categorical_masks.items():
        assert got.categorical_masks[name].tolist() == mask.tolist()
    np.testing.assert_array_equal(got.adv_true, want.adv_true)
    np.testing.assert_array_equal(got.adv_false, want.adv_false)


@given(
    assigned_tables(),
    st.lists(st.floats(0, 1), min_size=1, max_size=4),
    st.integers(0, 1000),
)
@settings(max_examples=40, deadline=None)
def test_tightened_descriptions_equal_per_leaf_oracle(
    assigned, thresholds, seed
):
    table, _ = assigned
    cuts = [column_lt("f", t) for t in thresholds]
    cuts.append(column_in("c", [0, 1, 300]))
    frozen, built = _grow(table, cuts, seed), _grow(table, cuts, seed)
    bids = frozen.route_to_blocks(table)
    expected = {}
    for leaf in frozen.leaves():
        rows = bids == leaf.block_id
        expected[leaf.block_id] = reference_tighten(
            leaf.description, {n: a[rows] for n, a in table.columns().items()}
        )
    np.testing.assert_array_equal(frozen.freeze(table), bids)
    # the build path: tighten to the stats of the blocks just built
    store = BlockStore.from_assignment(table, built.route_to_blocks(table))
    built.tighten({block.block_id: block.minmax for block in store})
    for tree in (frozen, built):
        assert tree.is_frozen
        for leaf in tree.leaves():
            _assert_same_description(leaf.description, expected[leaf.block_id])


# -- ingest: touched blocks are re-grouped, untouched ones kept ----------

STATEMENTS = [f"SELECT f FROM t WHERE f < {x}" for x in (0.1, 0.2, 0.4, 0.6, 0.8)]
STATEMENTS.append("SELECT f FROM t WHERE c = 'v2'")


def _table(n, seed):
    rng = np.random.default_rng(seed)
    return Table(
        SCHEMA,
        {
            "f": rng.uniform(0, 1, n),
            "i": rng.integers(0, 300, n),
            "k": np.full(n, 3.0),
            "c": rng.integers(0, 5, n),
        },
    )


def _assert_ingest_matches_oracle(db, batch):
    before = db.active_layout.store
    bids = db.active_layout.tree.route_to_blocks(batch)
    expected = reference_merge(before, batch, bids)
    after = db.ingest(batch).store
    assert set(after.block_ids) == set(before.block_ids) | set(expected)
    for block in after:
        if block.block_id in expected:
            assert_block_matches(block, expected[block.block_id])
        else:
            assert block is before.block(block.block_id)
    return expected


def test_ingest_rebuilds_touched_blocks_old_rows_first():
    db = Database.from_table(_table(3000, 0), min_block_size=200)
    db.build_layout("greedy", workload=STATEMENTS)
    batch = _table(400, 1)
    batch = batch.take(np.flatnonzero(batch.column("f") < 0.3))
    touched = _assert_ingest_matches_oracle(db, batch)
    assert 0 < len(touched) < db.active_layout.store.num_blocks
    _assert_ingest_matches_oracle(db, _table(300, 2))  # every block


def test_ingest_into_an_opened_layout_keeps_no_row_ids(tmp_path):
    db = Database.from_table(_table(3000, 0), min_block_size=200)
    db.build_layout("greedy", workload=STATEMENTS)
    db.save(tmp_path / "layout")
    opened = Database.open(tmp_path / "layout")
    assert all(block.row_ids is None for block in opened.active_layout.store)
    _assert_ingest_matches_oracle(opened, _table(300, 3))


# -- the walk's per-node cut counts ---------------------------------------


@given(
    assigned_tables(),
    st.lists(st.floats(0, 1), min_size=1, max_size=6),
    st.integers(1, 6),
    st.booleans(),
    st.integers(0, 1000),
)
@settings(max_examples=40, deadline=None)
def test_walk_counts_equal_a_from_scratch_count(
    assigned, thresholds, b, small, seed
):
    table, _ = assigned
    cuts = [column_lt("f", t) for t in thresholds] + [
        column_lt("i", 0),
        column_in("c", [0, 1, 2]),
    ]
    env = ConstructionEnv(
        SCHEMA, CutRegistry(SCHEMA, cuts), table, Workload([]), b, small
    )
    rng = np.random.default_rng(seed)

    def check(episode, node_id, left):
        rows = episode.rows[node_id]
        np.testing.assert_array_equal(
            left, np.count_nonzero(env.cut_masks[rows], axis=0)
        )

    def choose(episode, node, options):
        check(episode, node.node_id, options.left_sizes)
        size = len(episode.rows[node.node_id])
        np.testing.assert_array_equal(
            options.right_sizes, size - options.left_sizes
        )
        if rng.random() < 0.15:
            return None
        return int(rng.choice(np.flatnonzero(options.legal)))

    episode = env.walk(choose)
    assert episode.left_counts.keys() == episode.rows.keys()
    for node_id, left in episode.left_counts.items():
        check(episode, node_id, left)
