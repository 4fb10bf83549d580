"""Ablations called out in DESIGN.md (A1-A5).

A1 — greedy strict-gain criterion vs zero-gain splitting.
A2 — construction sample ratio s (paper Sec. 5.2.1 uses 0.1%-1%).
A3 — minimum block size b: skipping vs block-count tradeoff.
A4 — advanced cuts on/off for TPC-H.
A5 — explicit BID routing vs `no route` min-max pruning only.
"""

from repro.bench import format_table, run_physical
from repro.core import (
    ConstructionEnv,
    CutRegistry,
    GreedyConfig,
    build_greedy_tree,
    leaf_sizes,
    scan_ratio,
)
from repro.core.greedy import cut_gains
from repro.db import Database
from repro.engine import SPARK_PARQUET


def choose_zero_gain(episode, node, options):
    """Algorithm 1 with the bar lowered: take the best legal cut even
    when it skips nothing yet (a third policy over the shared walk)."""
    gains = cut_gains(episode, node, options)
    best = int(gains.argmax())
    return best if gains[best] >= 0 else None


def test_a1_zero_gain_splitting(tpch, tpch_registry):
    """Zero-gain splits add blocks; skipping should not degrade."""

    def run():
        strict = build_greedy_tree(
            tpch.schema, tpch_registry, tpch.table, tpch.workload,
            GreedyConfig(tpch.min_block_size),
        )
        eager = ConstructionEnv(
            tpch.schema, tpch_registry, tpch.table, tpch.workload,
            tpch.min_block_size,
        ).walk(choose_zero_gain).tree
        s_ratio = scan_ratio(
            strict, tpch.workload, leaf_sizes(strict, tpch.table)
        )
        e_ratio = scan_ratio(
            eager, tpch.workload, leaf_sizes(eager, tpch.table)
        )
        return strict, eager, s_ratio, e_ratio

    strict, eager, s_ratio, e_ratio = run()
    print()
    print(
        format_table(
            ["criterion", "blocks", "scan ratio"],
            [
                ["strict gain (paper)", len(strict.leaves()), f"{s_ratio:.3f}"],
                ["allow zero gain", len(eager.leaves()), f"{e_ratio:.3f}"],
            ],
            title="A1 — greedy split criterion",
        )
    )
    assert e_ratio <= s_ratio * 1.05


def test_a2_sample_ratio(tpch):
    """Small construction samples barely hurt layout quality."""

    def run():
        rows = []
        db = Database.from_table(tpch.table, min_block_size=tpch.min_block_size)
        for ratio in (None, 0.25, 0.05):
            layout = db.build_layout(
                "greedy", workload=tpch.workload, sample_ratio=ratio
            )
            pct = run_physical(
                layout, tpch.workload,
                num_advanced_cuts=tpch.registry().num_advanced_cuts,
            ).access_percentage(layout.store.logical_rows)
            rows.append((ratio, layout.num_blocks, pct))
        return rows

    rows = run()
    print()
    print(
        format_table(
            ["sample ratio", "blocks", "access %"],
            [
                ["full" if r is None else f"{r:.0%}", b, f"{p:.2f}%"]
                for r, b, p in rows
            ],
            title="A2 — construction sample ratio (paper uses 0.1%-1% "
            "of 77M rows)",
        )
    )
    full_pct = rows[0][2]
    sampled_pct = rows[-1][2]
    # Sampled construction stays within 2.5x of full-data quality.
    assert sampled_pct < max(2.5 * full_pct, full_pct + 10)


def test_a3_min_block_size_sweep(tpch, tpch_registry):
    """Smaller b -> finer blocks -> better skipping, more blocks."""

    def run():
        out = []
        for factor in (1, 4, 16):
            b = tpch.min_block_size * factor
            tree = build_greedy_tree(
                tpch.schema, tpch_registry, tpch.table, tpch.workload,
                GreedyConfig(b),
            )
            ratio = scan_ratio(
                tree, tpch.workload, leaf_sizes(tree, tpch.table)
            )
            out.append((b, len(tree.leaves()), ratio))
        return out

    sweep = run()
    print()
    print(
        format_table(
            ["b (rows)", "blocks", "scan ratio"],
            [[b, n, f"{r:.3f}"] for b, n, r in sweep],
            title="A3 — minimum block size sweep",
        )
    )
    ratios = [r for _, _, r in sweep]
    blocks = [n for _, n, _ in sweep]
    assert blocks[0] >= blocks[-1]  # finer b -> at least as many blocks
    assert ratios[0] <= ratios[-1] + 0.02  # and at least as much skipping


def test_a4_advanced_cuts_on_off(tpch):
    """Without AC0-AC2 the q4/q12/q21 family loses its skipping."""

    def run():
        with_ac = tpch.registry()
        without_ac = CutRegistry(tpch.schema)
        for cut in with_ac.cuts:
            from repro.core import AdvancedCut

            if not isinstance(cut, AdvancedCut):
                without_ac.add(cut)
        results = {}
        for label, registry in (("with ACs", with_ac), ("without ACs", without_ac)):
            tree = build_greedy_tree(
                tpch.schema, registry, tpch.table, tpch.workload,
                GreedyConfig(tpch.min_block_size),
            )
            results[label] = scan_ratio(
                tree, tpch.workload, leaf_sizes(tree, tpch.table)
            )
        return results

    results = run()
    print()
    print(
        format_table(
            ["configuration", "scan ratio"],
            [[k, f"{v:.3f}"] for k, v in results.items()],
            title="A4 — advanced cuts ablation (paper: ACs drive q21/q4/q12)",
        )
    )
    assert results["with ACs"] <= results["without ACs"] + 1e-9


def test_a5_routing_vs_no_route(tpch, tpch_registry, tpch_rl):
    """BID routing beats pure min-max pruning (paper: 6-16% on Parquet,
    much larger on the DBMS without block dictionaries)."""
    nac = tpch_registry.num_advanced_cuts

    def run():
        routed = run_physical(
            tpch_rl, tpch.workload, SPARK_PARQUET, num_advanced_cuts=nac
        )
        no_route = run_physical(
            tpch_rl, tpch.workload, SPARK_PARQUET, use_routing=False,
            num_advanced_cuts=nac,
        )
        return routed, no_route

    routed, no_route = run()
    print()
    print(
        format_table(
            ["mode", "tuples scanned", "modeled runtime (s)"],
            [
                [
                    "BID routing",
                    routed.total_tuples_scanned,
                    f"{routed.total_modeled_ms / 1000:.2f}",
                ],
                [
                    "no route (SMA only)",
                    no_route.total_tuples_scanned,
                    f"{no_route.total_modeled_ms / 1000:.2f}",
                ],
            ],
            title="A5 — explicit BID routing vs no-route",
        )
    )
    assert routed.total_tuples_scanned <= no_route.total_tuples_scanned
