"""Differential suite: sharded ≡ unsharded ≡ serial execution.

Property-style: randomized SQL workloads are replayed through every
serving topology — ``ShardedLayoutService`` at N ∈ {1, 2, 4} shards
under both partition strategies, the single ``LayoutService``, and the
serial uncached baseline — and every pair must agree bit-for-bit on
``QueryStats.result_key()``, on row counts against ground truth
computed straight off the table, and on the exact matched row-id sets.

This is the partitioned-correctness bar: a scatter-gather plan is only
admissible if it is provably equivalent to the unpartitioned plan.
"""

import numpy as np
import pytest

from repro.db import Database
from repro.core.router import subtree_shard_assignment
from repro.serve import LayoutService, ShardedLayoutService, run_serial_baseline
from repro.sql import SqlPlanner
from repro.storage import Schema, Table, categorical, numeric
from repro.workloads import Dataset

KINDS = ["alpha", "beta", "gamma", "delta"]

BUILD_STATEMENTS = [
    "SELECT * FROM t WHERE cpu < 25",
    "SELECT * FROM t WHERE cpu >= 25 AND cpu < 60",
    "SELECT * FROM t WHERE disk < 0.2",
    "SELECT * FROM t WHERE kind IN ('alpha','beta')",
    "SELECT * FROM t WHERE cpu >= 60 AND disk >= 0.5",
]


@pytest.fixture(scope="module")
def layout():
    rng = np.random.default_rng(42)
    n = 12_000
    schema = Schema(
        [
            numeric("cpu", (0.0, 100.0)),
            numeric("disk", (0.0, 1.0)),
            categorical("kind", KINDS),
        ]
    )
    table = Table(
        schema,
        {
            "cpu": rng.uniform(0.0, 100.0, n),
            "disk": rng.uniform(0.0, 1.0, n),
            "kind": rng.integers(0, len(KINDS), n),
        },
    )
    planner = SqlPlanner(schema)
    workload = planner.plan_workload(BUILD_STATEMENTS)
    dataset = Dataset(
        name="shard-diff",
        schema=schema,
        table=table,
        workload=workload,
        min_block_size=300,
    )
    return Database.from_table(
        dataset.table, min_block_size=dataset.min_block_size
    ).build_layout("greedy", workload=dataset.workload)


def random_statements(seed: int, count: int = 24):
    """Randomized workload: ranges, INs, conjunctions, disjunctions,
    with varying projections — same shapes the planner serves live."""
    rng = np.random.default_rng(seed)
    stmts = []
    for _ in range(count):
        kind = int(rng.integers(0, 5))
        if kind == 0:
            lo = rng.uniform(0.0, 80.0)
            hi = lo + rng.uniform(2.0, 30.0)
            stmts.append(
                f"SELECT * FROM t WHERE cpu >= {lo:.3f} AND cpu <= {hi:.3f}"
            )
        elif kind == 1:
            hi = rng.uniform(0.02, 0.9)
            stmts.append(f"SELECT disk FROM t WHERE disk < {hi:.4f}")
        elif kind == 2:
            a, b = rng.choice(KINDS, size=2, replace=False)
            stmts.append(f"SELECT cpu FROM t WHERE kind IN ('{a}','{b}')")
        elif kind == 3:
            lo = rng.uniform(50.0, 95.0)
            hi = rng.uniform(0.02, 0.3)
            stmts.append(
                f"SELECT * FROM t WHERE cpu > {lo:.3f} OR disk < {hi:.4f}"
            )
        else:
            a = rng.choice(KINDS)
            lo = rng.uniform(0.0, 70.0)
            stmts.append(
                f"SELECT disk FROM t WHERE kind = '{a}' AND cpu >= {lo:.3f}"
            )
    return stmts


def ground_truth(layout, sql):
    """(row count, sorted row ids) computed directly off the table —
    no blocks, no routing, no serving stack."""
    planner = SqlPlanner(layout.store.schema)
    query = planner.plan(sql).query
    ids = []
    for block in layout.store:
        data = block.read_columns(sorted(query.predicate.referenced_columns()))
        mask = query.predicate.evaluate(data)
        ids.append(block.row_ids[mask])
    ids = np.unique(np.concatenate(ids)) if ids else np.empty(0, dtype=np.int64)
    return len(ids), ids


TOPOLOGIES = [(1, "rr"), (2, "rr"), (4, "rr"), (1, "subtree"), (2, "subtree"), (4, "subtree")]


@pytest.mark.slow
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_differential_sharded_vs_unsharded_vs_serial(layout, seed):
    statements = random_statements(seed)

    base_qps, base_stats = run_serial_baseline(
        layout.store, layout.tree, statements
    )
    base_keys = sorted(s.result_key() for s in base_stats)

    with LayoutService(layout.store, layout.tree) as svc:
        unsharded = [svc.execute_sql(sql) for sql in statements]
        unsharded_ids = {sql: svc.collect_row_ids(sql) for sql in statements}
    assert sorted(r.stats.result_key() for r in unsharded) == base_keys

    truths = {sql: ground_truth(layout, sql) for sql in set(statements)}
    for result in unsharded:
        count, ids = truths[result.sql]
        assert result.stats.rows_returned == count
        np.testing.assert_array_equal(unsharded_ids[result.sql], ids)

    for num_shards, strategy in TOPOLOGIES:
        with ShardedLayoutService(
            layout.store,
            layout.tree,
            num_shards=num_shards,
            partition=strategy,
        ) as sharded:
            served = [sharded.execute_sql(sql) for sql in statements]
            assert sorted(r.stats.result_key() for r in served) == base_keys, (
                f"{num_shards} shards / {strategy} diverged from serial"
            )
            for sql in set(statements):
                count, ids = truths[sql]
                np.testing.assert_array_equal(
                    sharded.collect_row_ids(sql), ids,
                    err_msg=f"{num_shards}/{strategy}: row ids diverged",
                )


@pytest.mark.slow
@pytest.mark.parametrize("strategy", ["rr", "subtree"])
def test_differential_through_scheduler(layout, strategy):
    """The concurrent path (closed-loop replay through both scheduler
    layers) returns the same multiset of results as serial execution."""
    statements = random_statements(7, count=12)
    repeat = 4
    _, base_stats = run_serial_baseline(
        layout.store, layout.tree, statements, repeat=repeat
    )
    with ShardedLayoutService(
        layout.store, layout.tree, num_shards=4, partition=strategy
    ) as sharded:
        replay = sharded.run_closed_loop(statements, repeat=repeat)
    assert replay.completed == len(statements) * repeat
    assert sorted(s.result_key() for s in base_stats) == sorted(
        r.stats.result_key() for r in replay.results
    )


def test_differential_smoke(layout):
    """Fast unmarked slice of the suite so marker-filtered CI still
    exercises scatter-gather equivalence."""
    statements = random_statements(11, count=6)
    _, base_stats = run_serial_baseline(layout.store, layout.tree, statements)
    base_keys = sorted(s.result_key() for s in base_stats)
    with ShardedLayoutService(
        layout.store, layout.tree, num_shards=2, partition="subtree"
    ) as sharded:
        served = [sharded.execute_sql(sql) for sql in statements]
    assert sorted(r.stats.result_key() for r in served) == base_keys


# ----------------------------------------------------------------------
# Partitioning units (fast)
# ----------------------------------------------------------------------


def test_partition_disjoint_cover(layout):
    store = layout.store
    for strategy in ("rr",):
        shards = store.partition(4, strategy=strategy)
        seen = []
        for sub in shards:
            seen.extend(sub.block_ids)
        assert sorted(seen) == sorted(store.block_ids)
        assert sum(len(s) for s in shards) == store.num_blocks
        # Shards share the block objects, never copies.
        for sub in shards:
            for block in sub:
                assert block is store.block(block.block_id)


def test_partition_rr_balanced(layout):
    shards = layout.store.partition(3, strategy="rr")
    sizes = [len(s) for s in shards]
    assert max(sizes) - min(sizes) <= 1


def test_partition_rejects_bad_input(layout):
    store = layout.store
    with pytest.raises(ValueError):
        store.partition(0)
    with pytest.raises(ValueError):
        store.partition(2, strategy="nope")
    with pytest.raises(ValueError):
        store.partition(2, assignment={})  # missing BIDs
    full = {bid: 5 for bid in store.block_ids}
    with pytest.raises(ValueError):
        store.partition(2, assignment=full)  # shard index out of range


def test_subtree_assignment_contiguous_and_balanced(layout):
    weights = {b.block_id: b.num_rows for b in layout.store}
    assignment = subtree_shard_assignment(layout.tree, 4, weights=weights)
    assert set(assignment) == set(layout.store.block_ids)
    # Contiguity: walking leaves left-to-right, the shard index never
    # decreases (each shard owns one contiguous run of subtree leaves).
    order = []

    def visit(node):
        if node.is_leaf:
            order.append(assignment[node.block_id])
            return
        visit(node.left)
        visit(node.right)

    visit(layout.tree.root)
    assert order == sorted(order)
    assert set(order) == {0, 1, 2, 3}
    # Balance: no shard exceeds twice its fair row share.
    per_shard = [0, 0, 0, 0]
    for bid, shard in assignment.items():
        per_shard[shard] += weights[bid]
    fair = sum(weights.values()) / 4
    assert max(per_shard) <= 2 * fair


def test_subtree_assignment_skewed_weights_leave_no_empty_shard(layout):
    bids = list(layout.store.block_ids)
    weights = {bid: 1 for bid in bids}
    weights[bids[0]] = 10_000  # first leaf dwarfs everything
    assignment = subtree_shard_assignment(layout.tree, 4, weights=weights)
    assert set(assignment.values()) == {0, 1, 2, 3}


def test_subtree_partition_shrinks_fanout_for_selective_queries(layout):
    """The point of subtree locality, demonstrated non-vacuously:
    narrow range queries touch neighbouring qd-tree leaves, which the
    subtree partition co-locates — so they scatter to strictly fewer
    shards than under round-robin, and to fewer than all shards."""
    selective = [
        f"SELECT * FROM t WHERE cpu >= {lo} AND cpu <= {lo + 4}"
        for lo in (3, 11, 31, 47, 63, 82, 91)
    ]
    fanout = {}
    for strategy in ("rr", "subtree"):
        with ShardedLayoutService(
            layout.store, layout.tree, num_shards=4, partition=strategy
        ) as service:
            for sql in selective:
                service.execute_sql(sql)
            fanout[strategy] = service.mean_fanout
    assert fanout["subtree"] < fanout["rr"]
    assert fanout["subtree"] < 4.0


def test_mean_fanout_resets_with_replay_window(layout):
    """report()'s fan-out line must describe the current window, like
    every other number in the report."""
    with ShardedLayoutService(
        layout.store, layout.tree, num_shards=2, partition="rr"
    ) as service:
        service.run_closed_loop(random_statements(5, count=4), repeat=2)
        assert service.mean_fanout > 0.0
        service._reset_window()
        assert service.mean_fanout == 0.0


def test_row_id_provenance(layout):
    total = 0
    for block in layout.store:
        assert block.row_ids is not None
        assert len(block.row_ids) == block.num_rows
        assert not block.row_ids.flags.writeable
        total += len(block.row_ids)
    assert total == layout.store.logical_rows
