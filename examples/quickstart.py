"""Quickstart: the unified Database facade end to end.

Reproduces the paper's Figure 3 motivating scenario through
:class:`repro.db.Database` — one object owning the table, its
versioned layouts, and the serving tier:

1. generate a dataset and a two-query workload (one disjunctive),
2. build TWO layouts through the pluggable strategy registry
   (greedy qd-tree and the Woodblock deep-RL agent),
3. compare the fraction of data each layout forces the workload to
   scan, and print the learned block descriptions,
4. serve the better layout through the concurrent serving tier and
   show the generation-keyed result cache at work.

Run:  python examples/quickstart.py [--rows 50000] [--episodes 60]
"""

import argparse

from repro.bench import run_physical
from repro.db import Database, strategy_names
from repro.workloads import disjunctive_dataset


def access_pct(dataset, handle) -> float:
    """Table-2-style % of tuples the workload accesses under a layout."""
    report = run_physical(handle, dataset.workload)
    return report.access_percentage(handle.store.logical_rows)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=50_000)
    parser.add_argument("--episodes", type=int, default=60,
                        help="woodblock training episodes")
    parser.add_argument("--repeat", type=int, default=10,
                        help="times the workload is replayed when serving")
    args = parser.parse_args()

    dataset = disjunctive_dataset(num_rows=args.rows, seed=0)
    print(f"dataset: {dataset}")
    print(f"workload selectivity: "
          f"{100 * dataset.workload.selectivity(dataset.table):.1f}%")
    print(f"registered strategies: {', '.join(strategy_names())}\n")

    db = Database.from_table(
        dataset.table, min_block_size=dataset.min_block_size
    )

    # Two strategies, one entry point.  Each build gets the next
    # layout generation; activate=False keeps greedy the serving
    # layout until we decide otherwise.
    greedy = db.build_layout("greedy", workload=dataset.workload)
    greedy_pct = access_pct(dataset, greedy)
    print(f"Greedy   (gen {greedy.generation}): {greedy.num_blocks} blocks, "
          f"{greedy_pct:.1f}% of tuples accessed")

    woodblock = db.build_layout(
        "woodblock",
        workload=dataset.workload,
        episodes=args.episodes,
        hidden_dim=64,
        seed=3,
        activate=False,
    )
    rl_pct = access_pct(dataset, woodblock)
    print(f"Woodblock (gen {woodblock.generation}): "
          f"{woodblock.num_blocks} blocks, "
          f"{rl_pct:.1f}% of tuples accessed")
    print(f"\nRL improvement over Greedy: {greedy_pct / rl_pct:.1f}x "
          f"(paper Fig. 3 reports 4.8x)\n")

    print("Woodblock block semantic descriptions:")
    assert woodblock.tree is not None
    for bid, description in sorted(woodblock.tree.leaf_descriptions().items()):
        print(f"  block {bid}: {description}")

    # Serve the better layout.  The result cache is keyed by (query,
    # layout generation): the first pass over the workload scans, every
    # repeat is answered from the cache.
    db.swap_layout(woodblock)
    statements = [
        "SELECT * FROM t WHERE cpu < 10 OR cpu > 90",
        "SELECT cpu FROM t WHERE disk < 0.01",
    ]
    with db.serve(max_workers=2) as service:
        replay = service.run_closed_loop(statements, repeat=args.repeat)
        print(f"\nserved gen {woodblock.generation} at {replay.qps:.0f} qps")
        print(service.report())


if __name__ == "__main__":
    main()
