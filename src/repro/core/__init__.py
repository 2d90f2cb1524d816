"""Endurance management for PLiM — the paper's primary contribution.

Four techniques, applied jointly:

1. minimum write count strategy (:mod:`repro.core.policies`),
2. maximum write count strategy (:mod:`repro.core.policies`),
3. endurance-aware MIG rewriting, Algorithm 2 (part of the
   cost-guided optimizer layer, :mod:`repro.opt`),
4. endurance-aware node selection, Algorithm 3
   (:mod:`repro.core.selection`),

wired together by :mod:`repro.core.manager` and measured by
:mod:`repro.core.stats`.
"""

from .manager import (
    CompilationResult,
    EnduranceConfig,
    PRESETS,
    full_management,
)
from .policies import (
    AllocationPolicy,
    MIN_WRITE_ALLOCATION,
    NAIVE_ALLOCATION,
    capped_allocation,
)
# Re-exported from their home in the optimizer layer.
from ..opt.scripts import (
    ALGORITHM1_STEPS,
    ALGORITHM2_STEPS,
    DEFAULT_EFFORT,
    SCRIPTS,
    rewrite,
    rewrite_dac16,
    rewrite_endurance_aware,
)
from .selection import (
    Dac16Selection,
    EnduranceAwareSelection,
    SELECTIONS,
    SelectionStrategy,
    TopoSelection,
    make_selection,
)
from .stats import (
    WriteTrafficStats,
    average_improvement,
    gini_coefficient,
    improvement_percent,
    normalized_stdev,
    write_histogram,
)

__all__ = [
    "ALGORITHM1_STEPS",
    "ALGORITHM2_STEPS",
    "AllocationPolicy",
    "CompilationResult",
    "DEFAULT_EFFORT",
    "Dac16Selection",
    "EnduranceAwareSelection",
    "EnduranceConfig",
    "MIN_WRITE_ALLOCATION",
    "NAIVE_ALLOCATION",
    "PRESETS",
    "SCRIPTS",
    "SELECTIONS",
    "SelectionStrategy",
    "TopoSelection",
    "WriteTrafficStats",
    "average_improvement",
    "capped_allocation",
    "full_management",
    "gini_coefficient",
    "improvement_percent",
    "make_selection",
    "normalized_stdev",
    "rewrite",
    "rewrite_dac16",
    "rewrite_endurance_aware",
    "write_histogram",
]
