"""Benchmark harness and reporting utilities."""

from .ascii_plot import bar_chart, cdf_chart, line_chart
from .harness import run_physical
from .report import format_cdf, format_series, format_table

__all__ = [
    "bar_chart",
    "cdf_chart",
    "line_chart",
    "format_cdf",
    "format_series",
    "format_table",
    "run_physical",
]
