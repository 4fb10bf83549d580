"""Extra baselines beyond Table 2: hash and k-d tree partitioning.

Paper Sec. 1 and Sec. 7.7 argue that industry-standard hash/range
partitioning and classical workload-oblivious multi-dimensional indexes
(k-d trees) cannot match a workload-learned qd-tree.  This bench
quantifies that on the TPC-H workload.
"""

from repro.bench import format_table, run_physical
from repro.db import Database


def test_hash_and_kdtree_vs_qdtree(tpch, tpch_registry, tpch_greedy):
    nac = tpch_registry.num_advanced_cuts

    def access_pct(layout):
        report = run_physical(layout, tpch.workload, num_advanced_cuts=nac)
        return report.access_percentage(layout.store.logical_rows)

    def run():
        db = Database.from_table(tpch.table, min_block_size=tpch.min_block_size)
        hash_layout = db.build_layout(
            "hash",
            columns=["l_shipdate", "p_brand"],
            num_blocks=max(tpch_greedy.num_blocks, 4),
            activate=False,
        )
        kd_layout = db.build_layout(
            "kdtree",
            columns=["l_shipdate", "o_orderdate", "l_quantity", "p_size"],
            label="kd-tree",
            activate=False,
        )
        return {
            "hash": access_pct(hash_layout),
            "kd-tree": access_pct(kd_layout),
            "qd-tree (greedy)": access_pct(tpch_greedy),
        }

    pcts = run()
    print()
    print(
        format_table(
            ["partitioner", "access %"],
            [[k, f"{v:.2f}%"] for k, v in pcts.items()],
            title="Extra baselines on TPC-H (paper Sec. 7.7: hash/range "
            "cannot match learned cuts)",
        )
    )
    assert pcts["qd-tree (greedy)"] < pcts["hash"]
    assert pcts["qd-tree (greedy)"] < pcts["kd-tree"]
