"""Table 2 — logical I/O: % of tuples accessed per layout scheme.

Paper values (for shape comparison):

    Workload     Baseline  Bottom-Up/BU+  Greedy  RL
    TPC-H        56%       46.1%          26.3%   25.8%
    ErrLog-Int   100%      5.6%           3.1%    0.4%
    ErrLog-Ext   100%      12.2%          1.7%    0.2%

The shape to reproduce: Baseline >> BU+ > Greedy >= RL, with qd-trees
within a small factor of the workload's true selectivity.
"""

from repro.bench import format_table, run_physical


def logical_access_pct(layout, workload, num_advanced_cuts=0):
    """% of (tuple, query) pairs the layout scans for the workload."""
    report = run_physical(layout, workload, num_advanced_cuts=num_advanced_cuts)
    return report.access_percentage(layout.store.logical_rows)


def _row(label, layouts, dataset, num_advanced):
    return [
        label,
        *[
            f"{logical_access_pct(l, dataset.workload, num_advanced_cuts=num_advanced):.2f}%"
            for l in layouts
        ],
        f"{100 * dataset.workload.selectivity(dataset.table):.3f}%",
    ]


def test_table2_tpch(
    tpch, tpch_registry, tpch_random, tpch_bottom_up, tpch_greedy,
    tpch_rl,
):
    nac = tpch_registry.num_advanced_cuts
    layouts = [tpch_random, tpch_bottom_up, tpch_greedy, tpch_rl]

    def run():
        return [
            logical_access_pct(l, tpch.workload, num_advanced_cuts=nac)
            for l in layouts
        ]

    pcts = run()
    random_pct, bu_pct, greedy_pct, rl_pct = pcts
    print()
    print(
        format_table(
            ["workload", "baseline", "bottom-up+", "greedy", "woodblock",
             "selectivity"],
            [_row("tpch", layouts, tpch, nac)],
            title="Table 2 (TPC-H) — paper: 56 / 46.1 / 26.3 / 25.8",
        )
    )
    # Shape assertions.
    assert greedy_pct < bu_pct < random_pct
    assert rl_pct < bu_pct
    sel = 100 * tpch.workload.selectivity(tpch.table)
    assert min(greedy_pct, rl_pct) < 4 * sel  # within small factor of bound


def test_table2_errorlog_int(errlog_int, errlog_int_layouts):
    rng_l, bu_l, greedy_l, rl_l = errlog_int_layouts
    layouts = [rng_l, bu_l, greedy_l, rl_l]

    def run():
        return [logical_access_pct(l, errlog_int.workload) for l in layouts]

    pcts = run()
    range_pct, bu_pct, greedy_pct, rl_pct = pcts
    print()
    print(
        format_table(
            ["workload", "baseline", "bottom-up+", "greedy", "woodblock",
             "selectivity"],
            [_row("errorlog-int", layouts, errlog_int, 0)],
            title="Table 2 (ErrLog-Int) — paper: 100 / 5.6 / 3.1 / 0.4",
        )
    )
    # Baseline accesses ~everything (paper: 100%); small residual
    # dictionary pruning at 40K-row scale is tolerated.
    assert range_pct > 85.0
    assert greedy_pct < bu_pct
    assert greedy_pct < 10.0
    assert rl_pct < 10.0


def test_table2_errorlog_ext(errlog_ext, errlog_ext_layouts):
    rng_l, bu_l, greedy_l, rl_l = errlog_ext_layouts
    layouts = [rng_l, bu_l, greedy_l, rl_l]

    def run():
        return [logical_access_pct(l, errlog_ext.workload) for l in layouts]

    pcts = run()
    range_pct, bu_pct, greedy_pct, rl_pct = pcts
    print()
    print(
        format_table(
            ["workload", "baseline", "bottom-up+", "greedy", "woodblock",
             "selectivity"],
            [_row("errorlog-ext", layouts, errlog_ext, 0)],
            title="Table 2 (ErrLog-Ext) — paper: 100 / 12.2 / 1.7 / 0.2",
        )
    )
    assert range_pct > 85.0
    assert greedy_pct < bu_pct
    assert greedy_pct < 15.0
