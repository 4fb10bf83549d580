"""Figure 9 — interpreting a learned TPC-H qd-tree.

Paper: a top-performing Woodblock tree cuts a *variety* of columns (8
columns cut >= 20 times), mixes categorical and numerical cuts, and
leverages advanced cuts (AC0-AC2) — sophistication no hash/range
partitioner expresses.
"""

from repro.bench import format_table


def test_fig9_cut_distribution(tpch_rl):
    tree = tpch_rl.tree
    assert tree is not None

    def analyze():
        return tree.cut_histogram(), tree.cuts_by_depth()

    hist, by_depth = analyze()
    rows = [
        [name, count]
        for name, count in sorted(hist.items(), key=lambda kv: -kv[1])
    ]
    print()
    print(
        format_table(
            ["cut column / AC", "total cuts"],
            rows,
            title="Figure 9 — cuts per column in the learned tree "
            "(paper: 8 columns cut >= 20x; ACs leveraged)",
        )
    )
    print("\ncuts by depth (first 6 levels):")
    for depth in sorted(by_depth)[:6]:
        print(f"  depth {depth}: {by_depth[depth]}")

    # Shape assertions: diverse cutting, both kinds of columns, ACs used.
    from repro.workloads.tpch import build_schema

    schema = build_schema()
    assert len(hist) >= 5  # variety of columns
    categorical = {c.name for c in schema.categorical_columns}
    numeric = {c.name for c in schema.numeric_columns}
    assert any(name in categorical for name in hist)
    assert any(name in numeric for name in hist)
    total_cuts = sum(hist.values())
    assert total_cuts >= 20
