"""Property-based tests (hypothesis) for core invariants.

These cover the load-bearing invariants of the system:

* interval algebra (intersection soundness, complements),
* columnar encodings (lossless roundtrips),
* predicate algebra (negation is complement, De Morgan),
* qd-tree routing (partition + completeness under random cut sequences),
* query routing (never misses a matching block),
* masked softmax (valid distribution over legal actions).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CutRegistry,
    Interval,
    QdTree,
    column_ge,
    column_gt,
    column_in,
    column_le,
    column_lt,
    conjunction,
    disjunction,
)
from repro.core.router import block_descriptions
from repro.rl import masked_log_softmax
from repro.storage import Schema, Table, categorical, numeric
from repro.storage.columnar import decode_chunk, encode_column

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def intervals(draw):
    a = draw(finite_floats)
    b = draw(finite_floats)
    lo, hi = min(a, b), max(a, b)
    return Interval(lo, hi, draw(st.booleans()), draw(st.booleans()))


@st.composite
def unary_predicates(draw):
    column = draw(st.sampled_from(["x", "y"]))
    kind = draw(st.sampled_from(["lt", "le", "gt", "ge"]))
    value = draw(st.floats(min_value=0, max_value=100, allow_nan=False))
    builder = {
        "lt": column_lt,
        "le": column_le,
        "gt": column_gt,
        "ge": column_ge,
    }[kind]
    return builder(column, value)


@st.composite
def cat_predicates(draw):
    values = draw(st.lists(st.integers(0, 4), min_size=1, max_size=3))
    return column_in("c", sorted(set(values)))


@st.composite
def boolean_predicates(draw, depth=2):
    if depth == 0:
        return draw(st.one_of(unary_predicates(), cat_predicates()))
    kind = draw(st.sampled_from(["leaf", "and", "or", "not"]))
    if kind == "leaf":
        return draw(st.one_of(unary_predicates(), cat_predicates()))
    if kind == "not":
        return draw(boolean_predicates(depth=depth - 1)).negate()
    children = draw(
        st.lists(boolean_predicates(depth=depth - 1), min_size=2, max_size=3)
    )
    return conjunction(children) if kind == "and" else disjunction(children)


def make_schema() -> Schema:
    return Schema(
        [
            numeric("x", (0.0, 100.0)),
            numeric("y", (0.0, 100.0)),
            categorical("c", [0, 1, 2, 3, 4]),
        ]
    )


def make_table(seed: int, n: int = 400) -> Table:
    rng = np.random.default_rng(seed)
    return Table(
        make_schema(),
        {
            "x": rng.uniform(0, 100, n),
            "y": rng.uniform(0, 100, n),
            "c": rng.integers(0, 5, n),
        },
    )


# ----------------------------------------------------------------------
# Interval algebra
# ----------------------------------------------------------------------


class TestIntervalProperties:
    @given(intervals(), intervals(), finite_floats)
    def test_intersection_membership(self, a, b, point):
        both = a.intersect(b)
        assert both.contains(point) == (a.contains(point) and b.contains(point))

    @given(intervals(), intervals())
    def test_intersection_commutative(self, a, b):
        ab = a.intersect(b)
        ba = b.intersect(a)
        assert ab.is_empty == ba.is_empty
        if not ab.is_empty:
            assert (ab.lo, ab.hi, ab.lo_inclusive, ab.hi_inclusive) == (
                ba.lo,
                ba.hi,
                ba.lo_inclusive,
                ba.hi_inclusive,
            )

    @given(intervals(), finite_floats)
    def test_contains_interval_implies_membership(self, a, point):
        everything = Interval.everything()
        assert everything.contains_interval(a)
        if a.contains(point):
            assert everything.contains(point)

    @given(unary_predicates(), st.floats(0, 100, allow_nan=False))
    def test_from_predicate_matches_evaluation(self, pred, value):
        iv = Interval.from_predicate(pred)
        mask = pred.evaluate({pred.column: np.array([value])})
        assert iv.contains(value) == bool(mask[0])


# ----------------------------------------------------------------------
# Columnar encodings
# ----------------------------------------------------------------------


class TestEncodingProperties:
    @given(
        st.lists(st.integers(-(2**40), 2**40), min_size=0, max_size=300)
    )
    def test_int_roundtrip(self, values):
        arr = np.array(values, dtype=np.int64)
        np.testing.assert_array_equal(decode_chunk(encode_column(arr)), arr)

    @given(st.lists(finite_floats, min_size=0, max_size=300))
    def test_float_roundtrip(self, values):
        arr = np.array(values, dtype=np.float64)
        np.testing.assert_array_equal(decode_chunk(encode_column(arr)), arr)

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=500))
    def test_encoding_never_larger_than_plain(self, values):
        arr = np.array(values, dtype=np.int64)
        assert encode_column(arr).nbytes <= arr.nbytes


# ----------------------------------------------------------------------
# Predicate algebra
# ----------------------------------------------------------------------


class TestPredicateProperties:
    @given(boolean_predicates(), st.integers(0, 2**31 - 1))
    @settings(max_examples=60)
    def test_negation_is_complement(self, pred, seed):
        table = make_table(seed % 100, n=150)
        mask = pred.evaluate(table.columns())
        neg = pred.negate().evaluate(table.columns())
        assert (mask ^ neg).all()

    @given(boolean_predicates())
    @settings(max_examples=60)
    def test_double_negation_semantics(self, pred):
        table = make_table(1, n=150)
        once = pred.evaluate(table.columns())
        twice = pred.negate().negate().evaluate(table.columns())
        np.testing.assert_array_equal(once, twice)


# ----------------------------------------------------------------------
# Qd-tree routing invariants
# ----------------------------------------------------------------------


def grow_random_tree(table, cuts, seed):
    """Apply a random sequence of legal cuts to build a tree."""
    registry = CutRegistry(table.schema)
    for cut in cuts:
        registry.add(cut)
    tree = QdTree(table.schema, registry)
    rng = np.random.default_rng(seed)
    frontier = [(tree.root, np.arange(table.num_rows))]
    for _ in range(6):
        if not frontier:
            break
        node, idx = frontier.pop(int(rng.integers(0, len(frontier))))
        candidates = list(registry.cuts)
        rng.shuffle(candidates)
        for cut in candidates:
            sub = {k: v[idx] for k, v in table.columns().items()}
            mask = cut.evaluate(sub)
            if 0 < mask.sum() < len(mask):
                left, right = tree.apply_cut(node, cut)
                frontier.extend([(left, idx[mask]), (right, idx[~mask])])
                break
    tree.assign_block_ids()
    return tree


class TestRoutingProperties:
    @given(
        st.lists(
            st.one_of(unary_predicates(), cat_predicates()),
            min_size=1,
            max_size=6,
        ),
        st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_routing_is_a_partition(self, cuts, seed):
        table = make_table(seed % 7)
        tree = grow_random_tree(table, cuts, seed)
        assignment = tree.route_table(table)
        leaf_ids = {l.node_id for l in tree.leaves()}
        assert set(np.unique(assignment)) <= leaf_ids

    @given(
        st.lists(
            st.one_of(unary_predicates(), cat_predicates()),
            min_size=1,
            max_size=6,
        ),
        st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_completeness(self, cuts, seed):
        """Routed rows == rows matching the leaf description, exactly."""
        table = make_table(seed % 7)
        tree = grow_random_tree(table, cuts, seed)
        assignment = tree.route_table(table)
        columns = table.columns()
        for leaf in tree.leaves():
            desc_mask = leaf.description.matches_rows(columns)
            np.testing.assert_array_equal(
                desc_mask, assignment == leaf.node_id
            )

    @given(
        st.lists(
            st.one_of(unary_predicates(), cat_predicates()),
            min_size=1,
            max_size=5,
        ),
        boolean_predicates(),
        st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_query_routing_never_misses(self, cuts, query, seed):
        """Every row matching the query lives in a routed block."""
        table = make_table(seed % 7)
        tree = grow_random_tree(table, cuts, seed)
        bids = tree.route_to_blocks(table)
        routed = set(block_descriptions(None, tree).matching(query))
        matches = query.evaluate(table.columns())
        needed = set(np.unique(bids[matches]))
        assert needed <= routed

    @given(
        st.lists(
            st.one_of(unary_predicates(), cat_predicates()),
            min_size=1,
            max_size=5,
        ),
        boolean_predicates(),
        st.integers(0, 1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_freeze_preserves_soundness(self, cuts, query, seed):
        table = make_table(seed % 7)
        tree = grow_random_tree(table, cuts, seed)
        bids = tree.freeze(table)
        routed = set(block_descriptions(None, tree).matching(query))
        matches = query.evaluate(table.columns())
        needed = set(np.unique(bids[matches]))
        assert needed <= routed


# ----------------------------------------------------------------------
# Masked softmax
# ----------------------------------------------------------------------


class TestMaskedSoftmaxProperties:
    @given(
        st.lists(
            st.floats(-50, 50, allow_nan=False), min_size=2, max_size=10
        ),
        st.integers(0, 2**20),
    )
    def test_distribution_over_legal_actions(self, logits, mask_bits):
        logits_arr = np.array([logits])
        mask = np.array(
            [[(mask_bits >> i) & 1 == 1 for i in range(len(logits))]]
        )
        if not mask.any():
            mask[0, 0] = True
        lp = masked_log_softmax(logits_arr, mask)
        probs = np.exp(lp[0][mask[0]])
        np.testing.assert_allclose(probs.sum(), 1.0, rtol=1e-9)
        assert np.isfinite(lp[0][mask[0]]).all()
        assert (np.exp(lp[0][~mask[0]]) < 1e-30).all()
