"""Figure 3 — the disjunctive microbenchmark.

Paper: candidate cuts {cpu<10, cpu>90, disk<0.01}; the two cpu cuts
individually skip nothing, so Greedy only takes the disk cut and scans
50.5%; Woodblock produces the 4-block layout scanning 10.4% — a 4.8x
improvement.
"""

from repro.bench import format_table
from repro.core import GreedyConfig, build_greedy_tree, leaf_sizes, scan_ratio
from repro.rl import Woodblock, WoodblockConfig
from repro.workloads import disjunctive_dataset


def test_fig3_greedy_vs_woodblock():
    dataset = disjunctive_dataset(num_rows=50_000, seed=0)
    registry = dataset.registry()

    def run():
        greedy = build_greedy_tree(
            dataset.schema,
            registry,
            dataset.table,
            dataset.workload,
            GreedyConfig(dataset.min_block_size),
        )
        g_ratio = scan_ratio(
            greedy, dataset.workload, leaf_sizes(greedy, dataset.table)
        )
        agent = Woodblock(
            dataset.schema,
            registry,
            dataset.table,
            dataset.workload,
            WoodblockConfig(
                min_leaf_size=dataset.min_block_size,
                episodes=60,
                hidden_dim=64,
                seed=3,
            ),
        )
        result = agent.train()
        rl_ratio = scan_ratio(
            result.best_tree,
            dataset.workload,
            leaf_sizes(result.best_tree, dataset.table),
        )
        return g_ratio, rl_ratio

    g_ratio, rl_ratio = run()
    print()
    print(
        format_table(
            ["approach", "scan ratio", "paper"],
            [
                ["greedy", f"{100 * g_ratio:.1f}%", "50.5%"],
                ["woodblock", f"{100 * rl_ratio:.1f}%", "10.4%"],
                ["improvement", f"{g_ratio / rl_ratio:.1f}x", "4.8x"],
            ],
            title="Figure 3 — disjunctive microbenchmark",
        )
    )
    assert 0.45 < g_ratio < 0.55  # paper: 50.5%
    assert rl_ratio < 0.15  # paper: 10.4%
    assert g_ratio / rl_ratio > 3.0  # paper: 4.8x
