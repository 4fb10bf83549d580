"""Sec. 7.4.1 robustness — unseen query literals.

Paper: a qd-tree built from 150 "train" queries serves 1500 "test"
queries (fresh random seeds, so mostly unseen literals) at essentially
the same mean runtime (7776 ms vs 7752 ms, a 0.3% gap), showing the
layout generalizes across literals of the same templates.
"""

from repro.bench import format_table, run_physical
from repro.engine import SPARK_PARQUET


def test_sec74_train_vs_test_queries(tpch, tpch_registry, tpch_rl):
    assert tpch.test_workload is not None
    nac = tpch_registry.num_advanced_cuts

    def run():
        train = run_physical(
            tpch_rl, tpch.workload, SPARK_PARQUET, num_advanced_cuts=nac
        )
        test = run_physical(
            tpch_rl, tpch.test_workload, SPARK_PARQUET, num_advanced_cuts=nac
        )
        return train, test

    train, test = run()
    train_mean = train.total_modeled_ms / len(tpch.workload)
    test_mean = test.total_modeled_ms / len(tpch.test_workload)
    print()
    print(
        format_table(
            ["query set", "queries", "mean runtime (ms)"],
            [
                ["train (seen literals)", len(tpch.workload), f"{train_mean:.0f}"],
                ["test (unseen literals)", len(tpch.test_workload), f"{test_mean:.0f}"],
            ],
            title="Sec 7.4.1 robustness — paper: 7752ms train vs 7776ms test",
        )
    )
    # Shape: unseen literals cost at most ~40% extra on average (the
    # paper sees ~0.3%; template instances vary more at our tiny scale).
    assert test_mean < 1.4 * train_mean
