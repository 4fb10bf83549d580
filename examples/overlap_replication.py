"""Data overlap and two-tree replication (paper Sec. 6.2 / 6.3).

Part 1 reproduces the Figure 4 scenario: four query rectangles share a
single record; binary cuts strand that record with one lucky block, so
three of the four queries read N extra tuples each.  Constructing with
the relaxed cutting condition and replicating the resulting small leaf
into its neighbours removes the extra reads at negligible storage cost.

Part 2 demonstrates the two-tree approach on the Fig.-3 disjunctive
workload: a second full-copy tree tuned to the queries the first tree
serves worst.

Run:  python examples/overlap_replication.py
"""

import numpy as np

from repro.core import (
    CutRegistry,
    GreedyConfig,
    build_greedy_tree,
    build_overlap_layout,
    build_two_tree_layout,
    leaf_sizes,
    per_query_accessed,
)
from repro.workloads import overlap_dataset


def part1_overlap() -> None:
    print("=== Part 1: data overlap (Fig. 4) ===")
    dataset = overlap_dataset(cluster_size=1000, seed=0)
    registry = dataset.registry()

    # Plain construction: the binary-cut layout.
    plain = build_greedy_tree(
        dataset.schema,
        registry,
        dataset.table,
        dataset.workload,
        GreedyConfig(min_leaf_size=dataset.min_block_size),
    )
    sizes = leaf_sizes(plain, dataset.table)
    accessed = per_query_accessed(plain, dataset.workload, sizes)
    ideal = dataset.workload.selected_counts(dataset.table)
    print(f"binary cuts: {len(plain.leaves())} blocks; per-query tuples "
          f"accessed {accessed.tolist()} (ideal {ideal.tolist()})")
    print(f"  extra tuples read: {int(accessed.sum() - ideal.sum())}")

    # Relaxed construction + replication of the small center leaf.
    relaxed = build_greedy_tree(
        dataset.schema,
        registry,
        dataset.table,
        dataset.workload,
        GreedyConfig(min_leaf_size=dataset.min_block_size,
                     allow_small_children=True),
    )
    layout = build_overlap_layout(relaxed, dataset.table,
                                  dataset.min_block_size)
    per_query = []
    for query in dataset.workload:
        bids = layout.blocks_for_query(query)
        per_query.append(
            sum(layout.store.block(b).num_rows for b in bids)
        )
    print(f"with overlap: {layout.store.num_blocks} blocks, "
          f"{layout.replicated_rows} replicated rows "
          f"({100 * (layout.store.storage_overhead() - 1):.2f}% extra storage)")
    print(f"  per-query tuples accessed {per_query} (ideal {ideal.tolist()})")


def part2_two_trees() -> None:
    print("\n=== Part 2: two-tree replication (Sec. 6.3) ===")
    # Two query families contend for a limited block budget: one
    # filters on x, the other on y.  With a large minimum block size a
    # single tree can only serve one family well; a second full-copy
    # tree specializes in the other.
    from repro.core import Query, Workload, column_ge, column_lt, conjunction
    from repro.storage import Schema, Table, numeric

    rng = np.random.default_rng(1)
    num_rows = 40_000
    schema = Schema([numeric("x", (0.0, 100.0)), numeric("y", (0.0, 100.0))])
    table = Table(
        schema,
        {"x": rng.uniform(0, 100, num_rows), "y": rng.uniform(0, 100, num_rows)},
    )
    queries = []
    for i in range(4):
        lo = 12.0 * i
        queries.append(
            Query(
                conjunction([column_ge("x", lo), column_lt("x", lo + 6.0)]),
                name=f"x{i}", template="x-family",
            )
        )
        queries.append(
            Query(
                conjunction([column_ge("y", lo), column_lt("y", lo + 6.0)]),
                name=f"y{i}", template="y-family",
            )
        )
    workload = Workload(queries)
    registry = CutRegistry.from_workload(schema, workload)
    b = num_rows // 6  # only ~6 blocks: not enough for both families

    def builder(wl):
        return build_greedy_tree(
            schema, registry, table, wl, GreedyConfig(min_leaf_size=b)
        )

    single = builder(workload)
    sizes = leaf_sizes(single, table)
    single_accessed = int(per_query_accessed(single, workload, sizes).sum())
    layout = build_two_tree_layout(builder, workload, table)
    print(f"single greedy tree: {single_accessed} tuples accessed")
    print(f"two-tree layout   : {layout.total_accessed} tuples accessed "
          f"({single_accessed / max(layout.total_accessed, 1):.2f}x better, "
          f"2x storage)")
    print(f"per-query tree choice: {layout.choice.tolist()}")


if __name__ == "__main__":
    part1_overlap()
    part2_two_trees()
