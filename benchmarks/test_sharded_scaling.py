"""Sharded scatter-gather scaling benchmark.

Replays the repeated TPC-H-style workload through the
:class:`~repro.serve.shard.ShardedLayoutService` at 1 and 4 shards
(the same scheduler workers in front of both; a shard models a
machine, so adding shards adds capacity) and measures scaling two
ways:

* **wall-clock QPS** — the real sustained throughput ratio, printed
  for context only.  All shards here are thread pools inside one
  GIL-bound CPython process, and the ratio moves with the host's
  scheduling from run to run, so it is not asserted.
* **critical-path speedup, counted in tuples** — per-shard tuples
  scanned (read off each query trace's ``scatter_scan.shard<i>``
  spans) are summed (the work a 1-shard service executes serially)
  and divided by the busiest shard's tuples (the scatter-gather
  critical path once each shard owns its machine, which is what a
  shard models).  This is the partition balance the topology
  achieves; it is deterministic and must be >= 1.3x at 4 shards.

Correctness rides along: every topology must return bit-identical
result keys to the 1-shard service.
"""

import os

import pytest

from repro.obs import Tracer
from repro.serve import LayoutService, ShardedLayoutService

WORKERS = 2
REPEAT = 20
SHARDS = 4

STATEMENTS = [
    "SELECT * FROM lineitem WHERE l_shipdate >= 30 AND l_shipdate < 60",
    "SELECT l_extendedprice FROM lineitem "
    "WHERE l_shipmode IN ('MAIL','SHIP') AND l_commitdate < 100",
    "SELECT * FROM lineitem "
    "WHERE p_brand = 'Brand#12' AND p_container IN ('SM CASE','SM BOX')",
    "SELECT l_quantity FROM lineitem "
    "WHERE l_returnflag = 'R' AND c_nationkey < 10",
    "SELECT * FROM lineitem "
    "WHERE o_orderpriority = '1-URGENT' AND l_shipdate < 40",
    "SELECT * FROM lineitem "
    "WHERE cn_name IN ('FRANCE','GERMANY') AND l_discount >= 0.05",
]


def shard_tuples_scanned(tracer: Tracer) -> list:
    """Per-shard tuples scanned over every traced query."""
    tuples = [0] * SHARDS
    for trace in tracer.query_traces():
        for span in trace.child_spans("scatter_scan"):
            tuples[span.attrs["shard"]] += span.attrs["tuples_scanned"]
    return tuples


def run_single(layout, repeat=REPEAT):
    with LayoutService(
        layout.store,
        layout.tree,
        max_workers=WORKERS,
    ) as service:
        return service.run_closed_loop(STATEMENTS, repeat=repeat)


def run_sharded(layout, partition, repeat=REPEAT):
    tracer = Tracer()
    with ShardedLayoutService(
        layout.store,
        layout.tree,
        num_shards=SHARDS,
        partition=partition,
        max_workers=WORKERS,
        tracer=tracer,
    ) as service:
        replay = service.run_closed_loop(STATEMENTS, repeat=repeat)
        return replay, shard_tuples_scanned(tracer), service.mean_fanout


@pytest.mark.parametrize("partition", ["rr", "subtree"])
def test_sharded_scaling_over_one_shard(tpch_greedy, partition, capsys):
    layout = tpch_greedy
    # Warm both paths so one-time costs (planner, routing memo fill,
    # first decode) hit neither measured run.
    run_single(layout, repeat=2)
    run_sharded(layout, partition, repeat=2)

    single = run_single(layout)
    sharded, tuples, fanout = run_sharded(layout, partition)

    assert sorted(r.stats.result_key() for r in single.results) == sorted(
        r.stats.result_key() for r in sharded.results
    ), "sharded results must be bit-identical to the 1-shard service"

    critical_path = max(tuples)
    assert critical_path > 0
    projected = sum(tuples) / critical_path
    wall_ratio = sharded.qps / single.qps if single.qps > 0 else 0.0
    cores = len(os.sched_getaffinity(0))

    with capsys.disabled():
        print(
            f"\n[sharded-scaling/{partition}] 1 shard: {single.qps:7.1f} qps | "
            f"{SHARDS} shards: {sharded.qps:7.1f} qps "
            f"(wall ratio {wall_ratio:.2f}x on {cores} core(s)) | "
            f"critical-path speedup {projected:.2f}x (tuples) | "
            f"mean fan-out {fanout:.2f}/{SHARDS}"
        )

    # Partition balance must deliver the scaling headroom regardless of
    # the runner's core count.
    assert projected >= 1.3, (
        f"{SHARDS}-shard {partition} partition only reaches "
        f"{projected:.2f}x critical-path speedup over 1 shard"
    )


def test_subtree_fanout_no_worse_than_rr(tpch_greedy, capsys):
    """The locality strategy exists to shrink scatter width: on the
    same workload its mean fan-out must not exceed round-robin's."""
    _, _, fanout_rr = run_sharded(tpch_greedy, "rr", repeat=2)
    _, _, fanout_subtree = run_sharded(tpch_greedy, "subtree", repeat=2)
    with capsys.disabled():
        print(
            f"\n[sharded-scaling] mean fan-out rr {fanout_rr:.2f} vs "
            f"subtree {fanout_subtree:.2f} (of {SHARDS} shards)"
        )
    assert fanout_subtree <= fanout_rr + 1e-9
