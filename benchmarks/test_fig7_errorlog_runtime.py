"""Figure 7 — ErrorLog physical runtimes and per-query speedup CDFs.

Paper: (a) ErrorLog-Int total runtime 8890s (BU+) vs 627s (qd-tree) vs
753s (no route) — a 14x speedup with routing ~16% better than no-route;
(b) ErrorLog-Ext 19325s vs 3859s vs 4126s — 5x, no-route gap 6.4%;
(c) 50% of queries speed up by at least 25x (Int) / 20x (Ext).
"""

import numpy as np

from repro.bench import cdf_chart, format_cdf, format_table, run_physical
from repro.engine import SPARK_PARQUET, speedup_cdf


def _experiment(dataset, layouts, title, paper_note):
    _, bu_layout, _, rl_layout = layouts
    bu = run_physical(bu_layout, dataset.workload, SPARK_PARQUET)
    qd = run_physical(rl_layout, dataset.workload, SPARK_PARQUET)
    no_route = run_physical(
        rl_layout, dataset.workload, SPARK_PARQUET, use_routing=False
    )
    print()
    print(
        format_table(
            ["layout", "workload runtime (modeled s)"],
            [
                ["bottom-up+", f"{bu.total_modeled_ms / 1000:.2f}"],
                ["qd-tree (routed)", f"{qd.total_modeled_ms / 1000:.2f}"],
                ["qd-tree (no route)", f"{no_route.total_modeled_ms / 1000:.2f}"],
            ],
            title=f"{title} — {paper_note}",
        )
    )
    return bu, qd, no_route


def test_fig7a_errorlog_int(errlog_int, errlog_int_layouts):
    def run():
        return _experiment(
            errlog_int, errlog_int_layouts,
            "Figure 7a (ErrorLog-Int)",
            "paper: 8890 / 627 / 753 (14x)",
        )

    bu, qd, no_route = run()
    assert qd.speedup_over(bu) > 3.0  # paper: 14x
    assert qd.total_modeled_ms <= no_route.total_modeled_ms


def test_fig7b_errorlog_ext(errlog_ext, errlog_ext_layouts):
    def run():
        return _experiment(
            errlog_ext, errlog_ext_layouts,
            "Figure 7b (ErrorLog-Ext)",
            "paper: 19325 / 3859 / 4126 (5x)",
        )

    bu, qd, no_route = run()
    assert qd.speedup_over(bu) > 2.0  # paper: 5x
    assert qd.total_modeled_ms <= no_route.total_modeled_ms


def test_fig7c_speedup_cdf(
    errlog_int, errlog_int_layouts, errlog_ext, errlog_ext_layouts
):
    def run():
        out = {}
        for name, dataset, layouts in (
            ("ErrorLog-Int", errlog_int, errlog_int_layouts),
            ("ErrorLog-Ext", errlog_ext, errlog_ext_layouts),
        ):
            _, bu_layout, _, rl_layout = layouts
            bu = run_physical(bu_layout, dataset.workload, SPARK_PARQUET)
            qd = run_physical(rl_layout, dataset.workload, SPARK_PARQUET)
            out[name] = speedup_cdf(bu, qd)
        return out

    cdfs = run()
    print()
    for name, (xs, ys) in cdfs.items():
        finite = xs[np.isfinite(xs)]
        print(
            cdf_chart(
                finite,
                ys[: len(finite)],
                x_label="speedup",
                log_x=True,
                title=f"Figure 7c ({name}) — per-query speedup over BU+",
            )
        )
        print(
            format_cdf(
                finite,
                ys[: len(finite)],
                label=f"{name} per-query speedup over BU+ "
                "(paper: median >= 25x Int / 20x Ext)",
            )
        )
        median = float(np.median(finite))
        # Shape: at least half the queries see a real speedup.
        assert median > 1.5, name
