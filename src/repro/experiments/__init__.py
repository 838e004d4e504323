"""Experiment harness: regenerate every table and figure of the evaluation.

The figure and table functions accept an optional ``runner`` argument (an
:class:`repro.runner.ExperimentRunner`); without one they build a runner
from the configuration's ``workers`` / ``use_cache`` / ``cache_dir`` fields,
which default to the serial, uncached seed behaviour.
"""

from .config import SYNTHETIC_FLOW_DEMAND, ExperimentConfig
from .figures import (
    FIGURE_WORKLOADS,
    PAPER_FIGURE_CLAIMS,
    FigureResult,
    VCSweepResult,
    figure_by_number,
    figure_throughput_latency,
    figure_variation_sweep,
    figure_vc_sweep,
)
from .report import (
    format_value,
    improvement_summary,
    render_comparison,
    render_series,
    render_table,
    runner_summary,
)
from .tables import (
    CDG_COLUMNS,
    PAPER_TABLE_6_1,
    PAPER_TABLE_6_2,
    PAPER_TABLE_6_3,
    TABLE_6_3_COLUMNS,
    TableResult,
    table_6_1,
    table_6_2,
    table_6_3,
)
from .workloads import (
    APPLICATION_WORKLOADS,
    SYNTHETIC_WORKLOADS,
    WORKLOAD_NAMES,
    extended_workload_names,
    all_workloads,
    build_mesh,
    workload_flow_set,
)

__all__ = [
    "APPLICATION_WORKLOADS",
    "CDG_COLUMNS",
    "ExperimentConfig",
    "FIGURE_WORKLOADS",
    "FigureResult",
    "PAPER_FIGURE_CLAIMS",
    "PAPER_TABLE_6_1",
    "PAPER_TABLE_6_2",
    "PAPER_TABLE_6_3",
    "SYNTHETIC_FLOW_DEMAND",
    "SYNTHETIC_WORKLOADS",
    "TABLE_6_3_COLUMNS",
    "TableResult",
    "VCSweepResult",
    "WORKLOAD_NAMES",
    "extended_workload_names",
    "all_workloads",
    "build_mesh",
    "figure_by_number",
    "figure_throughput_latency",
    "figure_variation_sweep",
    "figure_vc_sweep",
    "format_value",
    "improvement_summary",
    "render_comparison",
    "render_series",
    "render_table",
    "runner_summary",
    "table_6_1",
    "table_6_2",
    "table_6_3",
    "workload_flow_set",
]
