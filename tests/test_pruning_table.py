"""Property test: the stacked pruning table ≡ the scalar ``may_match``.

A layout generation's pruning metadata is a
:class:`repro.core.router.PruningTable` — arrays over the generation's
blocks — and its one query, ``table.match(predicate)``, must answer row
for row what the scalar oracle ``scalar_oracle.may_match`` answers on
the per-block descriptions the table replaced
(``reference_descriptions`` below is that construction, kept here as
the reference), and both must cover every block that holds a matching
row.

Checked on hand-grown random trees (contradictory cuts, leaves without
rows, block dictionaries of different widths, a store without
dictionaries) and on every way a :class:`~repro.db.Database` generation
comes to be (fresh build, ingest, ``save`` -> ``open``, a tree-less
``range`` layout with and without block dictionaries), for random
predicate trees and for an exhaustive sweep of the boundary literals.
"""

import functools
import gc
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AdvancedCut, CutRegistry, QdTree, Query
from repro.core.hypercube import Hypercube, Interval
from repro.core.node import NodeDescription
from repro.core.predicates import (
    And,
    ColumnPredicate,
    Not,
    Op,
    Or,
    Predicate,
    TruePredicate,
    column_eq,
    column_ge,
    column_gt,
    column_in,
    column_le,
    column_lt,
)
from repro.core.router import PruningTable, QueryRouter, block_descriptions
from repro.db import Database
from repro.engine import COMMERCIAL_DBMS, SPARK_PARQUET, ScanEngine
from repro.storage import BlockStore, Schema, Table, categorical, numeric
from scalar_oracle import may_match

KINDS = ["a", "b", "c", "d", "e"]
NUMERIC = ["x", "y", "z"]
RANGE_OPS = [Op.LT, Op.LE, Op.GT, Op.GE]
INFINITIES = [float("-inf"), float("inf")]

#: -1 and "no such value" codes, every in-domain code, 5-6 (beyond the
#: domain, inside the widest block dictionary), 7 and 12 (beyond all).
CODES = [-1.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 12.0]

X_LT_Y = AdvancedCut("x<y", 0, lambda c: c["x"] < c["y"], ("x", "y"))
Z_GT_X = AdvancedCut("z>x", 1, lambda c: c["z"] > c["x"], ("x", "z"))
#: an index no tree here tracks: it must never prune
UNTRACKED = AdvancedCut("y<z", 9, lambda c: c["y"] < c["z"], ("y", "z"))

TRAIN = [
    "SELECT x FROM t WHERE x < 20",
    "SELECT x FROM t WHERE y >= 60 AND kind IN ('a','c')",
    "SELECT x FROM t WHERE x < y",
    "SELECT x FROM t WHERE z > x AND kind = 'e'",
    "SELECT x FROM t WHERE x >= 40 AND x < 70 AND y < 30",
    "SELECT x FROM t WHERE kind = 'b' OR z < 10",
]


def schema() -> Schema:
    return Schema(
        [
            numeric("x", (0.0, 100.0)),
            numeric("y", (0.0, 100.0)),
            numeric("z", (0.0, 100.0)),
            categorical("kind", KINDS),
        ]
    )


def make_table(
    n: int, seed: int, y_range=(0, 100), kinds=4, stray=0, banded=False
) -> Table:
    """Integer-valued columns, so integer literals land exactly on
    block minima and maxima; ``stray`` rows carry kind code 6, beyond
    the dictionary, which widens the dictionaries of their blocks;
    ``banded`` ties kind to y (a/d below 50, b/c above), so a block of
    low-y rows holds a set of codes with a gap its code range hides."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 101, n).astype(float)
    y = rng.integers(y_range[0], y_range[1] + 1, n).astype(float)
    kind = rng.integers(0, kinds, n)
    if banded:
        kind = np.where(y < 50, kind // 2 * 3, kind // 2 + 1)
    kind[rng.choice(n, size=stray, replace=False)] = 6
    return Table(
        schema(),
        {
            "x": x,
            "y": y,
            "z": np.clip(x + rng.integers(-6, 7, n), 0, 100),
            "kind": kind,
        },
    )


# -- the reference: the per-block descriptions the table replaced --------


def tighten_to_stats(
    description: NodeDescription, minmax, dictionaries: bool = True
) -> NodeDescription:
    out = description.copy()
    for col in description.schema.numeric_columns:
        bounds = minmax.bounds(col.name)
        if bounds is not None:
            out.hypercube = out.hypercube.with_interval(
                col.name, Interval(bounds[0], bounds[1], True, True)
            )
    for col in description.schema.categorical_columns:
        stats = minmax.column_stats(col.name)
        if stats is None:
            continue
        if dictionaries and stats.distinct is not None:
            out.categorical_masks[col.name] = stats.distinct.copy()
        else:
            mask = out.categorical_masks[col.name]
            mask[: max(int(stats.minimum), 0)] = False
            mask[int(stats.maximum) + 1 :] = False
    return out


def reference_descriptions(
    store: BlockStore,
    tree: Optional[QdTree] = None,
    num_advanced_cuts: int = 0,
    dictionaries: bool = True,
) -> Dict[int, NodeDescription]:
    if tree is None:
        root = NodeDescription.root(store.schema, num_advanced_cuts)
        return {
            block.block_id: tighten_to_stats(root, block.minmax, dictionaries)
            for block in store
        }
    return {
        leaf.block_id: tighten_to_stats(
            leaf.description, store.block(leaf.block_id).minmax
        )
        if leaf.block_id in store
        else leaf.description
        for leaf in tree.leaves()
    }


# -- the generations under test ------------------------------------------


@dataclass
class Case:
    label: str
    store: BlockStore
    tree: Optional[QdTree]
    table: PruningTable
    reference: Dict[int, NodeDescription]
    #: advanced cuts whose possibility bits the table tracks
    advanced: Tuple[AdvancedCut, ...]
    num_advanced_cuts: int = 0
    profile: object = SPARK_PARQUET

    @functools.cached_property
    def rows(self) -> Dict[int, Dict[str, np.ndarray]]:
        return {block.block_id: block.to_table().columns() for block in self.store}

    @functools.cached_property
    def boundary_literals(self) -> List[float]:
        """Every block's min and max on every numeric column."""
        return sorted(
            {
                bound
                for block in self.store
                for name in NUMERIC
                for bound in block.minmax.bounds(name)
            }
        )

    def scalar(self, predicate: Predicate) -> List[bool]:
        return [may_match(d, predicate) for d in self.reference.values()]

    def holding_a_match(self, predicate: Predicate) -> set:
        return {
            bid for bid, columns in self.rows.items()
            if predicate.evaluate(columns).any()
        }


def grown_case(seed: int, with_dictionaries: bool = True) -> Case:
    """A tree grown by random cuts at random leaves — including cuts
    that contradict the path (empty hypercubes) and cuts no row
    satisfies (leaves that own no block)."""
    rng = np.random.default_rng(seed)
    cuts: List[Predicate] = [X_LT_Y, Z_GT_X]
    for name in NUMERIC:
        for v in (0.0, 20.0, 35.0, 50.0, 80.0, 100.0):
            cuts += [column_lt(name, v), column_le(name, v), column_ge(name, v)]
            cuts.append(column_gt(name, v))
    cuts += [column_eq("x", 50.0), column_in("y", [20.0, 40.0])]
    cuts += [column_eq("kind", c) for c in (0.0, 2.0, 4.0)]
    cuts += [column_in("kind", [0.0, 1.0]), column_in("kind", [3.0, 4.0])]
    tree = QdTree(schema(), CutRegistry(schema(), cuts))
    for _ in range(14):
        leaves = tree.leaves()
        tree.apply_cut(
            leaves[rng.integers(len(leaves))], cuts[rng.integers(len(cuts))]
        )
    # a cut contradicting its own path, whatever the draw above did
    left, _ = tree.apply_cut(tree.leaves()[0], column_lt("y", 30.0))
    tree.apply_cut(left, column_ge("y", 30.0))
    # codes beyond the dictionary are only sound to prune on with block
    # dictionaries (which grow to hold them), so only then do rows stray
    data = make_table(
        1500, seed, y_range=(20, 80), stray=25 if with_dictionaries else 0
    )
    store = BlockStore.from_assignment(
        data, tree.route_to_blocks(data), with_dictionaries=with_dictionaries
    )
    return Case(
        f"grown{seed}{'' if with_dictionaries else '-nodict'}",
        store,
        tree,
        block_descriptions(store, tree),
        reference_descriptions(store, tree),
        tree.registry.advanced_cuts,
    )


def database_cases(path) -> List[Case]:
    base = make_table(3000, seed=0, y_range=(20, 80), banded=True)  # no kind 'e'
    db = Database.from_table(base, min_block_size=150)
    fresh = db.build_layout("greedy", workload=TRAIN)
    treeless = db.build_layout("range", column="y", activate=False)
    # out of the build's y range, with a value no block has seen and
    # codes beyond the dictionary
    ingested = db.ingest(make_table(800, seed=1, kinds=5, stray=10))
    db.save(path)
    reopened = Database.open(path).active_layout
    cases = [
        Case(
            label,
            handle.store,
            handle.tree,
            block_descriptions(handle.store, handle.tree),
            reference_descriptions(handle.store, handle.tree),
            handle.tree.registry.advanced_cuts,
        )
        for label, handle in [
            ("fresh", fresh), ("ingested", ingested), ("reopened", reopened)
        ]
    ]
    for profile in (SPARK_PARQUET, COMMERCIAL_DBMS):
        kwargs = dict(
            num_advanced_cuts=2, dictionaries=profile.block_dictionaries
        )
        cases.append(
            Case(
                f"treeless-{profile.name}",
                treeless.store,
                None,
                block_descriptions(treeless.store, **kwargs),
                reference_descriptions(treeless.store, **kwargs),
                (X_LT_Y, Z_GT_X),  # all-ones root bits: any evaluator is sound
                num_advanced_cuts=2,
                profile=profile,
            )
        )
    return cases


@pytest.fixture(scope="module")
def cases(tmp_path_factory) -> List[Case]:
    return (
        [grown_case(seed) for seed in range(4)]
        + [grown_case(4, with_dictionaries=False)]
        + database_cases(tmp_path_factory.mktemp("layout"))
    )


# -- random predicate trees ----------------------------------------------


def predicates(case: Case):
    literal = st.one_of(
        st.sampled_from(case.boundary_literals),
        st.integers(-5, 105).map(float),
        st.floats(-10, 110, allow_nan=False),
        st.sampled_from(INFINITIES),
    )
    numeric_column = st.sampled_from(NUMERIC)
    code = st.sampled_from(CODES)
    tracked = st.sampled_from(case.advanced + (UNTRACKED,))
    atoms = st.one_of(
        st.builds(
            lambda c, op, v: ColumnPredicate(c, op, [v]),
            numeric_column, st.sampled_from(RANGE_OPS + [Op.EQ]), literal,
        ),
        st.builds(column_in, numeric_column, st.lists(literal, min_size=1, max_size=3)),
        st.builds(column_eq, st.just("kind"), code),
        st.builds(column_in, st.just("kind"), st.lists(code, min_size=1, max_size=4)),
        # a range over dictionary codes reads the leaf's path range
        st.builds(
            lambda op, v: ColumnPredicate("kind", op, [v]),
            st.sampled_from(RANGE_OPS), code,
        ),
        tracked,
        tracked.map(lambda cut: cut.negate()),
        st.just(TruePredicate()),
    )
    return st.recursive(
        atoms,
        lambda children: st.one_of(
            children.map(Not),
            st.lists(children, min_size=1, max_size=3).map(And),
            st.lists(children, min_size=2, max_size=2).map(Or),
        ),
        max_leaves=6,
    )


def check(case: Case, predicate: Predicate) -> None:
    where = (case.label, predicate)
    matched = case.table.match(predicate)
    assert matched.dtype == bool and matched.shape == (len(case.reference),), where
    assert matched.tolist() == case.scalar(predicate), where
    survivors = {bid for bid, m in zip(case.table.bids, matched) if m}
    assert case.holding_a_match(predicate) <= survivors, where


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_match_equals_scalar_may_match(cases, data):
    for case in cases:
        check(case, data.draw(predicates(case), label=case.label))


def test_every_boundary_literal_with_every_comparison(cases):
    """Each block's own min and max, against ``< <= > >= =``, ``IN``
    and their negations — the ties where inclusive and exclusive
    bounds part ways."""
    for case in cases:
        for name in NUMERIC:
            for v in case.boundary_literals + INFINITIES:
                for op in RANGE_OPS + [Op.EQ, Op.IN]:
                    atom = ColumnPredicate(name, op, [v])
                    check(case, atom)
                    check(case, Not(atom))
                    check(case, Or([atom, Not(column_le("z", v))]))


def test_every_code_in_and_out_of_the_dictionaries(cases):
    for case in cases:
        for code in CODES:
            for atom in (
                column_eq("kind", code),
                column_in("kind", [code, 1.0]),
                column_in("kind", [code, code, 12.0]),
            ):
                check(case, atom)
                check(case, Not(atom))
                check(case, And([Not(atom), column_ge("x", 50.0)]))


def test_tracked_and_untracked_advanced_cuts(cases):
    for case in cases:
        for cut in case.advanced + (UNTRACKED,):
            for atom in (cut, cut.negate(), Not(cut), Not(cut.negate())):
                check(case, atom)
        assert case.table.match(UNTRACKED).tolist() == case.table.alive.tolist()
        assert case.table.match(Not(UNTRACKED)).tolist() == case.table.alive.tolist()


def test_routing_reports_the_tables_rows_in_order(cases):
    """``QueryRouter.route`` / ``ScanEngine.prune_blocks`` are the
    table's two readers: same BIDs, same order as the scalar scan."""
    probes = [
        column_lt("x", 35.0),
        And([column_ge("y", 50.0), column_in("kind", [0.0, 2.0])]),
        Or([X_LT_Y, Not(column_eq("kind", 1.0))]),
        TruePredicate(),
    ]
    for case in cases:
        for predicate in probes:
            query = Query(predicate)
            expected = [
                bid for bid, d in case.reference.items() if may_match(d, predicate)
            ]
            if case.tree is not None:
                routed = QueryRouter(case.tree, case.store).route(query).block_ids
                assert routed == tuple(expected), (case.label, predicate)
            else:
                engine = ScanEngine(
                    case.store, case.profile, case.num_advanced_cuts
                )
                assert engine.prune_blocks(query) == expected
                some = expected[::2] + [10**6]
                assert engine.prune_blocks(query, some) == expected[::2]


def test_the_cases_hold_what_they_claim(cases):
    by_label = {case.label: case for case in cases}
    grown = [case for case in cases if case.label.startswith("grown")]
    for case in grown:
        dead = [d for d in case.reference.values() if d.hypercube.is_empty]
        assert dead, case.label  # a leaf with an empty hypercube
        assert not case.table.alive.all() and case.table.alive.any()
        # leaves owning no block — some of them with a live hypercube
        unowned = [bid for bid in case.table.bids if bid not in case.store]
        assert unowned, case.label
    assert any(
        bid not in case.store and alive
        for case in grown
        for bid, alive in zip(case.table.bids, case.table.alive)
    )
    # block dictionaries of different widths, padded to the widest
    widths = {
        len(block.minmax.column_stats("kind").distinct)
        for block in by_label["grown0"].store
    }
    assert widths == {5, 7}
    assert by_label["grown0"].table.categorical["kind"].shape[1] == 7
    # no block dictionaries: on the store, and on the profile
    assert all(
        block.minmax.column_stats("kind").distinct is None
        for block in by_label["grown4-nodict"].store
    )
    assert not COMMERCIAL_DBMS.block_dictionaries
    lean = by_label[f"treeless-{COMMERCIAL_DBMS.name}"].table.categorical["kind"]
    full = by_label[f"treeless-{SPARK_PARQUET.name}"].table.categorical["kind"]
    assert lean.sum() > full.sum()
    # the ingest grew blocks past their build-time bounds
    fresh, ingested = by_label["fresh"], by_label["ingested"]
    assert ingested.tree is fresh.tree
    assert (ingested.table.hi["y"] > fresh.table.hi["y"]).any()
    assert not by_label["reopened"].tree.is_frozen


def test_the_table_is_immutable(cases):
    """Every array is read-only, and an answer is the caller's own:
    scribbling on one changes no later answer (the all-true / all-false
    vectors and the advanced-cut columns are shared between calls)."""
    table = cases[0].table
    arrays = [table.alive, table.adv_true, table.adv_false]
    for per_column in (
        table.lo, table.hi, table.lo_inclusive, table.hi_inclusive,
        table.categorical,
    ):
        arrays += list(per_column.values())
    for array in arrays:
        with pytest.raises(ValueError):
            array[...] = False
    for predicate in (TruePredicate(), Not(TruePredicate()), UNTRACKED, X_LT_Y):
        answer = table.match(predicate)
        expected = answer.tolist()
        answer[...] = ~answer
        assert table.match(predicate).tolist() == expected


# -- the query path never falls back to the scalar test -------------------


FRESH = [
    "SELECT x FROM t WHERE x < 33",
    "SELECT x FROM t WHERE y >= 41 AND kind IN ('a','d')",
    "SELECT x FROM t WHERE NOT (z <= 57) OR (x < y AND kind = 'b')",
    "SELECT x FROM t WHERE x BETWEEN 12 AND 58 AND z > x",
]


def test_serving_never_calls_the_scalar_may_match(monkeypatch):
    """Deterministic stand-in for a timing assertion: across every
    serving topology, on never-seen statements, no block is tested on
    its own.  The library keeps no scalar matcher, and every match the
    query path makes is over a whole generation's table, never a
    one-row one (the counter starts after the builds)."""
    db = Database.from_table(make_table(3000, seed=0), min_block_size=150)
    tree_backed = db.build_layout("greedy", workload=TRAIN)
    second = db.build_layout("greedy", workload=TRAIN[:3], activate=False)
    treeless = db.build_layout("range", column="y", activate=False)
    assert not hasattr(NodeDescription, "may_match")
    rows_matched = []
    vector = PruningTable.match
    monkeypatch.setattr(
        PruningTable,
        "match",
        lambda self, query: rows_matched.append(len(self.bids)) or vector(self, query),
    )
    root = NodeDescription.root(schema())
    one_row = PruningTable.from_rows(schema(), [(0, root, None)])
    assert one_row.matching(TruePredicate()) == (0,) and rows_matched == [1]  # it counts
    rows_matched.clear()

    answers = {sql: db.execute(sql).stats.result_key() for sql in FRESH}
    for layout in (treeless, second):
        for sql in FRESH:
            db.execute(sql, layout=layout)
    services = [
        db.serve(result_cache=False),
        db.serve(shards=2, partition="subtree", result_cache=False),
        db.serve_multi([tree_backed, second, treeless], result_cache=False),
        db.serve(layout=treeless, result_cache=False),
    ]
    try:
        for service in services[:2]:
            for sql in FRESH:
                assert service.execute_sql(sql).stats.result_key() == answers[sql]
        for service in services[2:]:
            for sql in FRESH:
                assert (
                    service.execute_sql(sql).stats.rows_returned
                    == answers[sql][5]
                )
    finally:
        for service in services:
            service.close()
    assert rows_matched and min(rows_matched) > 1


def test_a_store_router_holds_no_per_block_objects():
    """Walk everything reachable from ``QueryRouter(tree, store)``
    without entering the tree or the store: the table is arrays, so no
    ``NodeDescription`` / ``Hypercube`` / ``Interval`` turns up."""
    case = grown_case(0)
    router = QueryRouter(case.tree, case.store)
    router.route(Query(column_lt("x", 35.0)))
    fenced = {id(case.tree), id(case.store), id(case.tree.schema)}
    seen, stack, found = set(), [router], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or id(obj) in fenced or isinstance(obj, type):
            continue
        seen.add(id(obj))
        if isinstance(obj, (NodeDescription, Hypercube, Interval)):
            found.append(obj)
        if hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
        stack.extend(gc.get_referents(obj))
    assert found == []
    assert len(seen) > 20  # the walk did reach the table's arrays
