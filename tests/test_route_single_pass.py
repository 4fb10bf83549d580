"""Property test: the single routing pass ≡ the legacy route-then-prune.

A layout generation's pruning table
(:func:`repro.core.router.block_descriptions`, scanned once by
:func:`repro.exec.route_and_count`) must return exactly the survivors
the two-step it replaced returned — the scalar oracle over the leaves
of a tree frozen over the generation's rows, then
``ScanEngine.prune_blocks`` over the routed BIDs — and both must cover every block holding a
matching row.  Checked for random predicates (ranges, ``IN``, ``NOT``,
two-arm ``OR``, advanced cuts) on every way a generation comes to be:
a fresh greedy build, an ingest, ``save`` -> ``Database.open``, a cost
profile without block dictionaries, and a tree-less strategy.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import QdTree
from repro.db import Database
from repro.engine import COMMERCIAL_DBMS, SPARK_PARQUET, ScanEngine
from repro.exec import route_and_count
from repro.storage import Schema, Table, categorical, numeric
from scalar_oracle import may_match

KINDS = ["a", "b", "c", "d", "e"]

TRAIN = [
    "SELECT x FROM t WHERE x < 20",
    "SELECT x FROM t WHERE y >= 60 AND kind IN ('a','c')",
    "SELECT x FROM t WHERE x < y",
    "SELECT x FROM t WHERE z > x AND kind = 'e'",
    "SELECT x FROM t WHERE x >= 40 AND x < 70 AND y < 30",
    "SELECT x FROM t WHERE kind = 'b' OR z < 10",
]


def make_table(n: int, seed: int, y_range=(0.0, 100.0), kinds=4) -> Table:
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 100, n)
    schema = Schema(
        [
            numeric("x", (0.0, 100.0)),
            numeric("y", (0.0, 100.0)),
            numeric("z", (0.0, 100.0)),
            categorical("kind", KINDS),
        ]
    )
    return Table(
        schema,
        {
            "x": x,
            "y": rng.uniform(*y_range, n),
            # z tracks x: leaves cut on x hold a narrow z range only
            # the min-max stats know about
            "z": np.clip(x + rng.normal(0, 5, n), 0, 100),
            "kind": rng.integers(0, kinds, n),
        },
    )


@pytest.fixture(scope="module")
def generations(tmp_path_factory):
    """``(label, db, handle, reference tree)`` per generation under
    test; the reference is a private copy of the handle's tree frozen
    over the generation's rows (``None`` for the tree-less layout)."""
    base = make_table(3000, seed=0, y_range=(20.0, 80.0))  # no kind 'e'
    db = Database.from_table(base, min_block_size=150)
    fresh = db.build_layout("greedy", workload=TRAIN)
    treeless = db.build_layout("range", column="y", activate=False)
    # out of the build's y range, and with a value no block has seen
    ingested = db.ingest(make_table(800, seed=1, kinds=5))
    path = tmp_path_factory.mktemp("layout")
    db.save(path)
    reopened = Database.open(path)

    def frozen(handle, table):
        tree = handle.tree
        copy = QdTree.from_dict(tree.to_dict(), tree.schema, tree.registry)
        copy.freeze(table)
        return copy

    return [
        ("fresh", db, fresh, frozen(fresh, base)),
        ("ingested", db, ingested, frozen(ingested, db.table)),
        ("reopened", reopened, reopened.active_layout,
         frozen(reopened.active_layout, db.table)),
        ("treeless", db, treeless, None),
    ]


# -- random statements ---------------------------------------------------

values = st.integers(0, 100)


@st.composite
def ranges(draw):
    column = draw(st.sampled_from(["x", "y", "z"]))
    op = draw(st.sampled_from(["<", "<=", ">", ">=", "="]))
    return f"{column} {op} {draw(values)}"


@st.composite
def betweens(draw):
    column = draw(st.sampled_from(["x", "y", "z"]))
    lo, hi = sorted((draw(values), draw(values)))
    return f"{column} BETWEEN {lo} AND {hi}"


@st.composite
def memberships(draw):
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=3))
    negated = "NOT " if draw(st.booleans()) else ""
    literals = ",".join(f"'{k}'" for k in sorted(set(kinds)))
    return f"kind {negated}IN ({literals})"


@st.composite
def advanced(draw):
    left, right = draw(st.permutations(["x", "y", "z"]))[:2]
    return f"{left} {draw(st.sampled_from(['<', '>']))} {right}"


atoms = st.one_of(ranges(), betweens(), memberships(), advanced())


@st.composite
def conjuncts(draw):
    parts = draw(st.lists(atoms, min_size=1, max_size=3))
    return " AND ".join(
        f"NOT ({part})" if draw(st.booleans()) else part for part in parts
    )


@st.composite
def statements(draw):
    where = draw(conjuncts())
    if draw(st.booleans()):  # two-arm OR
        where = f"({where}) OR ({draw(conjuncts())})"
    return f"SELECT x FROM t WHERE {where}"


# -- the property --------------------------------------------------------


def legacy_two_step(handle, frozen, query, profile):
    """Route on the frozen reference tree's leaves, one by one with the
    scalar oracle, then min-max prune the routed BIDs."""
    engine = ScanEngine(
        handle.store, profile, num_advanced_cuts=handle.num_advanced_cuts
    )
    if frozen is None:
        return engine.prune_blocks(query)
    routed = [
        leaf.block_id if leaf.block_id is not None else leaf.node_id
        for leaf in frozen.leaves()
        if may_match(leaf.description, query.predicate)
    ]
    return engine.prune_blocks(query, routed)


def blocks_holding_a_match(handle, query):
    columns = sorted(query.predicate.referenced_columns())
    return {
        block.block_id
        for block in handle.store
        if query.predicate.evaluate(block.read_columns(columns)).any()
    }


@settings(max_examples=60, deadline=None, derandomize=True)
@given(sql=statements())
def test_single_pass_equals_route_then_prune(generations, sql):
    for label, db, handle, frozen in generations:
        query = db.planner.plan(sql).query
        needed = blocks_holding_a_match(handle, query)
        for profile in (SPARK_PARQUET, COMMERCIAL_DBMS):
            routed, considered, survivors = route_and_count(
                handle.router(), handle.engine(profile), query
            )
            where = (label, profile.name, sql)
            assert list(survivors) == legacy_two_step(
                handle, frozen, query, profile
            ), where
            assert needed <= set(survivors), where
            if frozen is None:
                assert routed is None, where
                assert considered == handle.store.num_blocks, where
            else:
                assert considered == len(survivors), where
                assert set(survivors) <= set(routed), where


def test_the_generations_differ_where_it_matters(generations):
    """The fixture exercises what it claims: the ingest grew blocks
    past their build-time bounds, and the reopened tree is unfrozen."""
    by_label = {label: handle for label, _, handle, _ in generations}
    fresh, ingested = by_label["fresh"], by_label["ingested"]
    assert ingested.tree is fresh.tree and fresh.tree.is_frozen
    assert not by_label["reopened"].tree.is_frozen
    grown = [
        bid
        for bid in fresh.store.block_ids
        if ingested.store.block(bid).minmax.bounds("y")
        != fresh.store.block(bid).minmax.bounds("y")
    ]
    assert grown
    assert by_label["treeless"].tree is None
