"""ErrorLog: aggressive skipping on a highly selective log workload.

The paper's Sec. 7.5 scenario: crash-dump logs queried by tiny
needle-in-haystack lookups (selectivity well below 1%).  The deployed
range-on-ingest-time baseline cannot skip anything because queries
never filter on ingest time; a learned qd-tree skips almost
everything.  This example builds Range, BU+ (tuned Bottom-Up), Greedy
and Woodblock layouts over the synthetic ErrorLog-Int dataset and
reports access percentages and modeled runtimes.

Run:  python examples/errorlog_skipping.py [--rows 60000] [--queries 300]
"""

import argparse

from repro.bench import format_table, run_physical
from repro.db import Database
from repro.engine import SPARK_PARQUET
from repro.workloads import errorlog_int_dataset


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=60_000)
    parser.add_argument("--queries", type=int, default=300)
    parser.add_argument("--episodes", type=int, default=40)
    args = parser.parse_args()

    dataset = errorlog_int_dataset(num_rows=args.rows, num_queries=args.queries)
    registry = dataset.registry()
    sel = 100 * dataset.workload.selectivity(dataset.table)
    print(f"{dataset}; b = {dataset.min_block_size}; "
          f"workload selectivity {sel:.4f}%")

    block = max(dataset.min_block_size, 64)
    # Range blocks sized so block dictionaries saturate (as at the
    # paper's 100M-row scale); see benchmarks/conftest.py.
    range_block = max(block * 8, dataset.num_rows // 12)
    db = Database.from_table(
        dataset.table, min_block_size=dataset.min_block_size
    )
    layouts = [
        db.build_layout(
            "range", column="ingest_date", min_block_size=range_block,
            activate=False,
        ),
        db.build_layout(
            "bottom_up", workload=dataset.workload, registry=registry,
            min_block_size=block, selectivity_threshold=0.1,
            max_block_size=None, label="bottom-up+", activate=False,
        ),
        db.build_layout("greedy", workload=dataset.workload, registry=registry),
        db.build_layout(
            "woodblock", workload=dataset.workload, registry=registry,
            episodes=args.episodes,
        ),
    ]

    rows = []
    for layout in layouts:
        report = run_physical(layout, dataset.workload, SPARK_PARQUET)
        pct = report.access_percentage(layout.store.logical_rows)
        rows.append(
            [
                layout.label,
                layout.num_blocks,
                f"{pct:.3f}%",
                f"{report.total_modeled_ms / 1000:.2f}s",
            ]
        )
    print()
    print(
        format_table(
            ["layout", "blocks", "access %", "workload runtime"],
            rows,
            title="ErrorLog-Int layouts",
        )
    )


if __name__ == "__main__":
    main()
