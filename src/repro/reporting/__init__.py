"""Reporting: tables, terminal plots and serialization.

The paper's figures live in :mod:`repro.reporting.experiments`, which this
package does not import: searches load only the serialization half.
"""

from repro.reporting.ascii_plots import bar_chart, line_plot, sparkline
from repro.reporting.serialization import (
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
    save_search_result,
    search_result_to_dict,
    trial_metrics_to_dict,
)
from repro.reporting.tables import format_kv, format_table, to_csv, to_markdown

__all__ = [
    "bar_chart",
    "config_from_dict",
    "config_to_dict",
    "format_kv",
    "format_table",
    "line_plot",
    "load_config",
    "save_config",
    "save_search_result",
    "search_result_to_dict",
    "sparkline",
    "to_csv",
    "to_markdown",
    "trial_metrics_to_dict",
]
