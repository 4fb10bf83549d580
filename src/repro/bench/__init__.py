"""Benchmark harness and reporting utilities."""

from .ascii_plot import bar_chart, cdf_chart, line_chart
from .harness import (
    LayoutResult,
    build_baseline_layout,
    logical_access_pct,
    materialize_tree,
    run_physical,
)
from .report import format_cdf, format_series, format_table

__all__ = [
    "LayoutResult",
    "bar_chart",
    "cdf_chart",
    "line_chart",
    "build_baseline_layout",
    "format_cdf",
    "format_series",
    "format_table",
    "logical_access_pct",
    "materialize_tree",
    "run_physical",
]
