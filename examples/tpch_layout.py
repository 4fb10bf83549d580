"""TPC-H: learn a layout for the denormalized month partition.

A compact version of the paper's Sec. 7.4 experiment: generate the
denormalized TPC-H-like table and its 15 query templates, lay the data
out with the Random baseline, Greedy and Woodblock, then execute the
workload on the scan engine under the Spark/Parquet cost profile and
report per-template runtimes (the Fig. 5 view) plus the learned tree's
cut distribution (the Fig. 9 view).

Run:  python examples/tpch_layout.py [--rows 60000] [--episodes 60]
"""

import argparse

from repro.bench import format_table, run_physical
from repro.db import Database
from repro.engine import SPARK_PARQUET
from repro.workloads import tpch_dataset


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=60_000)
    parser.add_argument("--episodes", type=int, default=60)
    parser.add_argument("--seeds-per-template", type=int, default=5)
    args = parser.parse_args()

    dataset = tpch_dataset(
        num_rows=args.rows, seeds_per_template=args.seeds_per_template
    )
    registry = dataset.registry()
    print(f"{dataset}; b = {dataset.min_block_size}; "
          f"{len(registry)} candidate cuts "
          f"({registry.num_advanced_cuts} advanced)")

    db = Database.from_table(
        dataset.table, min_block_size=dataset.min_block_size
    )
    layouts = [
        db.build_layout(
            "random", min_block_size=dataset.min_block_size * 4,
            activate=False,
        ),
        db.build_layout("greedy", workload=dataset.workload, registry=registry),
        db.build_layout(
            "woodblock", workload=dataset.workload, registry=registry,
            episodes=args.episodes, seed=0,
        ),
    ]

    rows = []
    reports = {}
    for layout in layouts:
        report = run_physical(
            layout,
            dataset.workload,
            SPARK_PARQUET,
            num_advanced_cuts=registry.num_advanced_cuts,
        )
        pct = report.access_percentage(layout.store.logical_rows)
        reports[layout.label] = report
        rows.append(
            [
                layout.label,
                layout.num_blocks,
                f"{pct:.1f}%",
                f"{report.total_modeled_ms / 1000:.2f}s",
                f"{layout.build_seconds:.1f}s",
            ]
        )
    print()
    print(
        format_table(
            ["layout", "blocks", "access %", "workload runtime", "build time"],
            rows,
            title="TPC-H layouts (modeled Spark/Parquet runtime)",
        )
    )

    # Per-template runtimes (Fig. 5 shape).
    greedy_t = reports["greedy"].per_template_modeled_ms()
    rl_t = reports["woodblock"].per_template_modeled_ms()
    print()
    print(
        format_table(
            ["template", "greedy (ms)", "woodblock (ms)"],
            [
                [t, f"{greedy_t[t]:.0f}", f"{rl_t[t]:.0f}"]
                for t in sorted(greedy_t, key=lambda s: int(s[1:]))
            ],
            title="Mean per-template runtime",
        )
    )

    # Cut interpretation (Fig. 9 shape).
    rl_layout = layouts[2]
    assert rl_layout.tree is not None
    print("\nColumns cut by the learned qd-tree (count):")
    hist = rl_layout.tree.cut_histogram()
    for column, count in sorted(hist.items(), key=lambda kv: -kv[1]):
        print(f"  {column:<16} {count}")


if __name__ == "__main__":
    main()
