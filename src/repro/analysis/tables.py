"""Experiment runners regenerating the paper's Tables I, II, and III.

The heavy lifting — building, rewriting, compiling, verifying — lives in
:mod:`repro.analysis.runner` behind the :mod:`repro.flow` Session/Flow
API, which memoizes each stage per session so every (benchmark,
configuration) pair compiles exactly once no matter how many tables ask
for it; a table's rows come from :meth:`repro.flow.Session.run_matrix`
or :meth:`~repro.flow.Session.evaluate_suite`.  This module keeps the
table vocabulary (column orders, write caps) and the per-table aggregate
views.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..core.stats import average_improvement
from .runner import BenchmarkEvaluation, TABLE1_PRESETS

#: Table I column order (left to right in the paper).
TABLE1_CONFIGS: List[str] = list(TABLE1_PRESETS)

#: Table III write caps.
TABLE3_CAPS: List[int] = [10, 20, 50, 100]

__all__ = [
    "BenchmarkEvaluation",
    "TABLE1_CONFIGS",
    "TABLE3_CAPS",
    "average_row",
    "headline_metrics",
]


# ----------------------------------------------------------------------
# Aggregates (the AVG rows of the paper's tables)
# ----------------------------------------------------------------------

def average_row(
    evaluations: Sequence[BenchmarkEvaluation], config: str
) -> Dict[str, float]:
    """Suite averages for one configuration column."""
    stats = [e.stats(config) for e in evaluations]
    results = [e.results[config] for e in evaluations]
    return {
        "min": sum(s.min_writes for s in stats) / len(stats),
        "max": sum(s.max_writes for s in stats) / len(stats),
        "stdev": sum(s.stdev for s in stats) / len(stats),
        "instructions": sum(r.num_instructions for r in results) / len(results),
        "rrams": sum(r.num_rrams for r in results) / len(results),
        "improvement": average_improvement(
            [e.stats("naive").stdev for e in evaluations],
            [s.stdev for s in stats],
        )
        if all("naive" in e.results for e in evaluations)
        else float("nan"),
    }


def headline_metrics(
    evaluations: Sequence[BenchmarkEvaluation], cap_key: str = "wmax100"
) -> Dict[str, float]:
    """The abstract's three headline numbers.

    At ``W_max = 100`` the paper reports −86.65% average write-stdev,
    −36.45% average instructions, and −13.67% average RRAM devices, all
    relative to the naive compiler.
    """
    usable = [e for e in evaluations if cap_key in e.results]
    stdev_impr = average_improvement(
        [e.stats("naive").stdev for e in usable],
        [e.stats(cap_key).stdev for e in usable],
    )
    instr_impr = 100.0 * (
        1.0
        - sum(e.results[cap_key].num_instructions for e in usable)
        / sum(e.results["naive"].num_instructions for e in usable)
    )
    rram_impr = 100.0 * (
        1.0
        - sum(e.results[cap_key].num_rrams for e in usable)
        / sum(e.results["naive"].num_rrams for e in usable)
    )
    return {
        "stdev_improvement_pct": stdev_impr,
        "instruction_reduction_pct": instr_impr,
        "rram_reduction_pct": rram_impr,
    }
