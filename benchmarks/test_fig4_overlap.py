"""Figure 4 — data overlap: replicating one record removes extra reads.

Paper: four queries each select N+1 records overlapping in one center
tuple; naive binary cuts force 3 of 4 queries to read N extra tuples
(3N extra total).  With the relaxed cutting condition + replication of
the small leaf into neighbouring blocks, extra reads shrink to ~0 at
virtually no storage cost.
"""

from repro.bench import format_table
from repro.core import (
    GreedyConfig,
    build_greedy_tree,
    build_overlap_layout,
    leaf_sizes,
    per_query_accessed,
)
from repro.workloads import overlap_dataset


def test_fig4_overlap_replication():
    dataset = overlap_dataset(cluster_size=1000, seed=0)
    registry = dataset.registry()
    ideal = int(dataset.workload.selected_counts(dataset.table).sum())

    def run():
        plain = build_greedy_tree(
            dataset.schema, registry, dataset.table, dataset.workload,
            GreedyConfig(dataset.min_block_size),
        )
        plain_total = int(
            per_query_accessed(
                plain, dataset.workload, leaf_sizes(plain, dataset.table)
            ).sum()
        )
        relaxed = build_greedy_tree(
            dataset.schema, registry, dataset.table, dataset.workload,
            GreedyConfig(dataset.min_block_size, allow_small_children=True),
        )
        layout = build_overlap_layout(
            relaxed, dataset.table, dataset.min_block_size
        )
        overlap_total = 0
        for query in dataset.workload:
            for bid in layout.blocks_for_query(query):
                overlap_total += layout.store.block(bid).num_rows
        return plain_total, overlap_total, layout

    plain_total, overlap_total, layout = run()
    extra_plain = plain_total - ideal
    extra_overlap = overlap_total - ideal
    print()
    print(
        format_table(
            ["layout", "tuples accessed", "extra vs ideal", "storage overhead"],
            [
                ["binary cuts", plain_total, extra_plain, "1.00x"],
                [
                    "with overlap",
                    overlap_total,
                    extra_overlap,
                    f"{layout.store.storage_overhead():.4f}x",
                ],
                ["ideal", ideal, 0, "1.00x"],
            ],
            title="Figure 4 — overlap scenario (paper: 3N extra -> ~0)",
        )
    )
    assert layout.replicated_rows > 0
    assert extra_overlap < extra_plain  # replication strictly helps
    assert layout.store.storage_overhead() < 1.01  # "virtually no cost"
