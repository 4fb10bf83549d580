"""Figure 8 — Woodblock's learning curve (anytime behaviour).

Paper: on TPC-H the scan ratio starts near 39% at random initialization
(already far better than the workload-oblivious 56% baseline, because
random trees still use workload-extracted cuts) and most improvement is
learned within the first ~10 minutes; on ErrorLog-Ext a high-quality
tree appears within ~30 seconds thanks to the data's correlations, and
quality keeps improving with more budget.
"""

from repro.bench import format_series, line_chart


def test_fig8_tpch_learning_curve(tpch, tpch_rl):
    result = tpch_rl.diagnostics
    assert result is not None

    def series():
        return [
            (p.elapsed_seconds, p.best_scan_ratio) for p in result.curve
        ]

    points = series()
    print()
    print(
        line_chart(
            [p[0] for p in points],
            [p[1] for p in points],
            x_label="elapsed (s)",
            y_label="best scan ratio",
            title="Figure 8 (TPC-H) — learning curve",
        )
    )
    print(
        format_series(
            points,
            x_label="elapsed (s)",
            y_label="best scan ratio",
            max_points=15,
        )
    )
    first = result.curve[0]
    best = result.best_scan_ratio
    print(f"initial episode ratio: {first.episode_scan_ratio:.3f}; "
          f"final best: {best:.3f} "
          f"(paper: ~0.39 initial -> ~0.25 converged)")
    # Shape: training improves on the first random tree.
    assert best < first.episode_scan_ratio
    # And the first random tree is itself far better than scanning all.
    assert first.episode_scan_ratio < 0.9


def test_fig8_errorlog_ext_learning_curve(
    errlog_ext, errlog_ext_layouts
):
    *_, rl_layout = errlog_ext_layouts
    result = rl_layout.diagnostics
    assert result is not None

    def series():
        return [
            (p.elapsed_seconds, p.best_scan_ratio) for p in result.curve
        ]

    points = series()
    print()
    print(
        format_series(
            points,
            x_label="elapsed (s)",
            y_label="best scan ratio",
            max_points=15,
        )
    )
    # Paper: high quality immediately (~0.3% scan ratio on Ext).  Our
    # synthetic Ext shares the trait: the very first trees are already
    # aggressive skippers because correlations make most cuts useful.
    early_best = result.curve[min(5, len(result.curve) - 1)].best_scan_ratio
    print(f"best after 5 episodes: {early_best:.4f} "
          f"(paper: ~0.003 immediately)")
    assert early_best < 0.2
    assert result.best_scan_ratio <= early_best
