"""Serving-tier throughput smoke benchmark.

Replays a repeated TPC-H-style SQL workload against one greedy qd-tree
layout two ways and compares sustained QPS:

* **serial uncached** — the repo's pre-serving execution path: every
  arrival is routed through the tree, SMA-pruned against every
  candidate block, and scanned with columns re-decoded from the
  encoded chunks (exactly what the paper's one-query-at-a-time
  evaluation does).
* **served** — the full :mod:`repro.serve` tier: thread-pool
  scheduler, routing/prune memo keyed by predicate fingerprint, and
  the shared LRU buffer pool of decoded columns.

The acceptance bar is bit-identical per-query results and a buffer
pool that absorbs the repeats (hit rate > 50%).  The QPS ratio is
printed (~2-3x here, all of it avoided work — memoized routing/pruning
and cache hits — since CI machines may expose a single core) but not
asserted: a wall-clock ratio fails on scheduling noise.
"""

import pytest

from repro.db import Database
from repro.serve import LayoutService, run_serial_baseline
from repro.workloads import tpch_dataset

ROWS = 50_000
REPEAT = 20
THREADS = 4

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


@pytest.fixture(scope="module")
def layout():
    # Paper-scaled b gives a many-small-blocks layout (the shape real
    # qd-trees produce), which is what per-query routing/pruning costs
    # scale with.
    ds = tpch_dataset(num_rows=ROWS, seeds_per_template=2, seed=0)
    db = Database.from_table(ds.table, min_block_size=ds.min_block_size)
    return db.build_layout("greedy", workload=ds.workload)


def run_baseline(layout, repeat=REPEAT):
    """Serial uncached execution: route + prune + decode per arrival."""
    return run_serial_baseline(
        layout.store, layout.tree, STATEMENTS, repeat=repeat
    )


def run_served(layout, repeat=REPEAT):
    with LayoutService(
        layout.store,
        layout.tree,
        cache_budget_bytes=64 * 1024 * 1024,
        max_workers=THREADS,
    ) as service:
        return service.run_closed_loop(STATEMENTS, repeat=repeat)


def test_served_vs_serial_uncached(layout, capsys):
    # Warm-up both paths so one-time costs hit neither measured run.
    run_baseline(layout, repeat=2)
    run_served(layout, repeat=2)

    base_qps, base_stats = run_baseline(layout)
    served = run_served(layout)

    assert sorted(s.result_key() for s in base_stats) == sorted(
        r.stats.result_key() for r in served.results
    ), "served results must be bit-identical to serial execution"

    speedup = served.qps / base_qps
    snap = served.snapshot
    with capsys.disabled():
        print(
            f"\n[serving-throughput] serial uncached: {base_qps:7.1f} qps | "
            f"served x{THREADS} threads: {served.qps:7.1f} qps | "
            f"speedup {speedup:.2f}x | "
            f"cache hit rate {100 * snap.cache_hit_rate:.1f}%"
        )
    assert snap.cache is not None and snap.cache_hit_rate > 0.5


def test_cache_cuts_decode_bytes(layout):
    def served_with_cache(cache_bytes):
        with LayoutService(
            layout.store,
            layout.tree,
            cache_budget_bytes=cache_bytes,
            max_workers=1,
        ) as service:
            return service.run_closed_loop(STATEMENTS, repeat=5)

    uncached = served_with_cache(None)
    cached = served_with_cache(64 * 1024 * 1024)
    assert cached.snapshot.bytes_read == uncached.snapshot.bytes_read
    assert cached.snapshot.bytes_decoded < uncached.snapshot.bytes_decoded / 2
