"""Experiment runners regenerating the paper's Tables I, II, and III.

The heavy lifting — building, rewriting, compiling, verifying — lives in
:mod:`repro.analysis.runner` behind the :mod:`repro.flow` Session/Flow
API, which memoizes each stage per session so every (benchmark,
configuration) pair compiles exactly once no matter how many tables ask
for it.  This module keeps the table vocabulary (column orders, write
caps) and the per-table aggregate views.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..core.stats import average_improvement
from ..mig.graph import Mig
from .runner import (
    BenchmarkEvaluation,
    ExperimentCache,
    TABLE1_PRESETS,
    evaluate_mig_cached,
    resolve_configs,
)

#: Table I column order (left to right in the paper).
TABLE1_CONFIGS: List[str] = list(TABLE1_PRESETS)

#: Table III write caps.
TABLE3_CAPS: List[int] = [10, 20, 50, 100]

__all__ = [
    "BenchmarkEvaluation",
    "TABLE1_CONFIGS",
    "TABLE3_CAPS",
    "average_row",
    "evaluate_benchmark",
    "evaluate_mig",
    "headline_metrics",
]


def evaluate_mig(
    mig: Mig,
    *,
    configs: Optional[Sequence[str]] = None,
    caps: Optional[Sequence[int]] = None,
    effort: int = 5,
    verify: bool = True,
    verify_patterns: int = 64,
    cache: Optional[ExperimentCache] = None,
    session=None,
) -> BenchmarkEvaluation:
    """Compile *mig* under every requested configuration.

    ``configs`` are preset names (default: the Table I columns);
    ``caps`` adds full-management runs keyed ``"wmax{cap}"`` (Table III).
    With ``verify=True`` every compiled program is co-simulated against
    the MIG — a failed check raises, keeping bogus statistics out of the
    tables.  Passing a shared *cache* (or a :class:`repro.flow.Session`,
    whose cache and machine model are adopted) deduplicates work across calls.
    """
    jobs = resolve_configs(
        configs if configs is not None else TABLE1_CONFIGS, caps, effort
    )
    if session is not None and cache is None:
        cache = session.cache
    return evaluate_mig_cached(
        mig,
        jobs,
        cache=cache,
        verify=verify,
        verify_patterns=verify_patterns,
        arch=session.architecture if session is not None else None,
    )


def evaluate_benchmark(
    name: str,
    preset: str = "default",
    *,
    cache: Optional[ExperimentCache] = None,
    session=None,
    **kwargs,
) -> BenchmarkEvaluation:
    """Build a registry benchmark and evaluate it."""
    if cache is None:
        cache = session.cache if session is not None else ExperimentCache()
    return evaluate_mig(
        cache.benchmark_mig(name, preset), cache=cache, session=session,
        **kwargs,
    )


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
