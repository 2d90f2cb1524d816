"""Experiment harnesses: table runners, figure scenarios, reporting."""

from .scenarios import (
    fig1_chain,
    fig1_mig,
    fig2_ladder,
    fig2_mig,
    storage_pressure,
)
from .tables import (
    BenchmarkEvaluation,
    TABLE1_CONFIGS,
    TABLE3_CAPS,
    average_row,
    headline_metrics,
)
from .report import (
    render_headline,
    render_table1,
    render_table2,
    render_table3,
)
from .sweeps import (
    SweepPoint,
    by_config,
    render_sweep,
    scaling_exponent,
    sweep_widths,
)

__all__ = [
    "BenchmarkEvaluation",
    "TABLE1_CONFIGS",
    "TABLE3_CAPS",
    "average_row",
    "fig1_chain",
    "fig1_mig",
    "fig2_ladder",
    "fig2_mig",
    "headline_metrics",
    "render_headline",
    "render_table1",
    "render_table2",
    "render_table3",
    "render_sweep",
    "scaling_exponent",
    "storage_pressure",
    "sweep_widths",
    "by_config",
    "SweepPoint",
]
