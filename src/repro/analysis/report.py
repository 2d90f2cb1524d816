"""Plain-text rendering of the reproduced tables.

Formats :class:`~repro.analysis.tables.BenchmarkEvaluation` collections
into fixed-width tables laid out like Tables I-III of the paper, with the
same AVG row semantics (column means; the improvement column averages the
per-benchmark percentages).  :meth:`repro.flow.Session.full_report`
renders every table from one evaluation pass.
"""

from __future__ import annotations

from typing import List, Sequence

from .tables import (
    BenchmarkEvaluation,
    TABLE1_CONFIGS,
    TABLE3_CAPS,
    average_row,
    headline_metrics,
)


def _fmt_minmax(stats) -> str:
    return f"{stats.min_writes}/{stats.max_writes}"


def render_table1(evaluations: Sequence[BenchmarkEvaluation]) -> str:
    """Table I: write statistics of the five incremental configurations."""
    header_cfgs = TABLE1_CONFIGS
    lines: List[str] = []
    title = (
        "TABLE I - WRITE TRAFFIC OF THE PROPOSED ENDURANCE MANAGEMENT "
        "TECHNIQUES"
    )
    lines.append(title)
    cols = ["benchmark", "PI/PO"]
    for cfg in header_cfgs:
        cols.append(f"{cfg}:min/max")
        cols.append("STDEV")
        if cfg != "naive":
            cols.append("impr.")
    lines.append(" | ".join(f"{c:>16s}" for c in cols))
    lines.append("-" * len(lines[-1]))
    for ev in evaluations:
        row = [ev.name, f"{ev.num_pis}/{ev.num_pos}"]
        for cfg in header_cfgs:
            stats = ev.stats(cfg)
            row.append(_fmt_minmax(stats))
            row.append(f"{stats.stdev:.2f}")
            if cfg != "naive":
                row.append(f"{ev.improvement(cfg):.2f}%")
        lines.append(" | ".join(f"{c:>16s}" for c in row))
    avg_cells = ["AVG", ""]
    for cfg in header_cfgs:
        avg = average_row(evaluations, cfg)
        avg_cells.append(f"{avg['min']:.2f}/{avg['max']:.2f}")
        avg_cells.append(f"{avg['stdev']:.2f}")
        if cfg != "naive":
            avg_cells.append(f"{avg['improvement']:.2f}%")
    lines.append("-" * len(lines[1]))
    lines.append(" | ".join(f"{c:>16s}" for c in avg_cells))
    return "\n".join(lines)


def render_table2(evaluations: Sequence[BenchmarkEvaluation]) -> str:
    """Table II: #I and #R for naive vs endurance-aware rewriting vs
    endurance-aware rewriting + compilation."""
    lines: List[str] = []
    lines.append(
        "TABLE II - INSTRUCTIONS AND RRAMS OF ENDURANCE-AWARE COMPILATION"
    )
    cfgs = [("naive", "naive"), ("ea-rewrite", "EA rewriting"),
            ("ea-full", "EA rewriting+compilation")]
    header = ["benchmark", "PI/PO"]
    for _, label in cfgs:
        header += [f"{label}:#I", "#R"]
    lines.append(" | ".join(f"{c:>26s}" for c in header[:2]) + " | " +
                 " | ".join(f"{c:>26s}" for c in header[2:]))
    lines.append("-" * 140)
    for ev in evaluations:
        row = [ev.name, f"{ev.num_pis}/{ev.num_pos}"]
        for key, _ in cfgs:
            res = ev.results[key]
            row += [str(res.num_instructions), str(res.num_rrams)]
        lines.append(" | ".join(f"{c:>26s}" for c in row[:2]) + " | " +
                     " | ".join(f"{c:>26s}" for c in row[2:]))
    avg_cells = ["AVG", ""]
    for key, _ in cfgs:
        avg = average_row(evaluations, key)
        avg_cells += [f"{avg['instructions']:.2f}", f"{avg['rrams']:.2f}"]
    lines.append("-" * 140)
    lines.append(" | ".join(f"{c:>26s}" for c in avg_cells[:2]) + " | " +
                 " | ".join(f"{c:>26s}" for c in avg_cells[2:]))
    return "\n".join(lines)


def render_table3(
    evaluations: Sequence[BenchmarkEvaluation],
    caps: Sequence[int] = tuple(TABLE3_CAPS),
) -> str:
    """Table III: full endurance management under write caps."""
    lines: List[str] = []
    lines.append(
        "TABLE III - FULL ENDURANCE MANAGEMENT WITH MAXIMUM WRITE STRATEGY"
    )
    header = ["benchmark", "PI/PO"]
    for cap in caps:
        header += [f"W={cap}:#I", "#R", "STDEV"]
    lines.append(" | ".join(f"{c:>12s}" for c in header))
    lines.append("-" * len(lines[-1]))
    for ev in evaluations:
        row = [ev.name, f"{ev.num_pis}/{ev.num_pos}"]
        for cap in caps:
            key = f"wmax{cap}"
            if key in ev.results:
                res = ev.results[key]
                row += [
                    str(res.num_instructions),
                    str(res.num_rrams),
                    f"{res.stats.stdev:.2f}",
                ]
            else:
                row += ["-", "-", "-"]
        lines.append(" | ".join(f"{c:>12s}" for c in row))
    avg_cells = ["AVG", ""]
    for cap in caps:
        key = f"wmax{cap}"
        usable = [e for e in evaluations if key in e.results]
        if usable:
            avg = average_row(usable, key)
            avg_cells += [
                f"{avg['instructions']:.2f}",
                f"{avg['rrams']:.2f}",
                f"{avg['stdev']:.2f}",
            ]
        else:
            avg_cells += ["-", "-", "-"]
    lines.append("-" * len(lines[1]))
    lines.append(" | ".join(f"{c:>12s}" for c in avg_cells))
    return "\n".join(lines)


def render_architecture_sweep(points, title: str = "") -> str:
    """Fixed-width table of an architecture sweep.

    *points* are :class:`~repro.analysis.scenarios.ArchSweepPoint`
    instances; unsupported (architecture, configuration) pairs render as
    dashes with the refusal reason in a footnote, so e.g. the ``dac16``
    machine's missing wear counters show up as a capability gap rather
    than an error.  Lifetime uses each machine's own endurance budget.
    """
    lines: List[str] = []
    lines.append(
        title
        or "ARCHITECTURE SWEEP - ONE SOURCE ACROSS PLIM MACHINE MODELS"
    )
    header = ["arch", "config", "#I", "#R", "min/max", "STDEV", "lifetime"]
    widths = [10, 12, 8, 8, 9, 8, 14]
    lines.append(
        " | ".join(f"{c:>{w}s}" for c, w in zip(header, widths))
    )
    lines.append("-" * len(lines[-1]))
    notes: List[str] = []
    for p in points:
        if not p.supported:
            row = [p.arch, p.config, "-", "-", "-", "-", "-"]
            notes.append(f"  [{len(notes) + 1}] {p.arch}/{p.config}: {p.reason}")
            row[1] += f"[{len(notes)}]"
        else:
            result = p.result.compilation
            stats = result.stats
            counts = result.program.write_counts()
            life = p.result.architecture.estimate_lifetime(counts)
            row = [
                p.arch,
                p.config,
                str(result.num_instructions),
                str(result.num_rrams),
                f"{stats.min_writes}/{stats.max_writes}",
                f"{stats.stdev:.2f}",
                f"{life.executions:,d}",
            ]
        lines.append(
            " | ".join(f"{c:>{w}s}" for c, w in zip(row, widths))
        )
    if notes:
        lines.append("")
        lines.append("unsupported pairs:")
        lines.extend(notes)
    return "\n".join(lines)


def render_optimizer_sweep(points, title: str = "") -> str:
    """Fixed-width table of an optimizer sweep.

    *points* are :class:`~repro.analysis.scenarios.OptSweepPoint`
    instances: per (optimizer, configuration) pair the *measured*
    compilation (#I, #R, write statistics) next to the optimizer's
    compile-free objective estimate of its rewritten graph, so the
    estimate's fidelity is visible in the artefact itself.
    """
    lines: List[str] = []
    lines.append(
        title or "OPTIMIZER SWEEP - ONE SOURCE ACROSS REWRITE STRATEGIES"
    )
    header = [
        "optimizer", "config", "gates", "objective", "#I", "#R",
        "min/max", "STDEV",
    ]
    widths = [22, 12, 7, 9, 8, 7, 9, 8]
    lines.append(" | ".join(f"{c:>{w}s}" for c, w in zip(header, widths)))
    lines.append("-" * len(lines[-1]))
    for p in points:
        result = p.result.compilation
        stats = result.stats
        row = [
            p.opt,
            p.config,
            str(p.result.rewritten.num_live_gates()),
            str(p.objective),
            str(result.num_instructions),
            str(result.num_rrams),
            f"{stats.min_writes}/{stats.max_writes}",
            f"{stats.stdev:.2f}",
        ]
        lines.append(" | ".join(f"{c:>{w}s}" for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_source_sweep(points, title: str = "") -> str:
    """Fixed-width table of a source sweep.

    *points* are :class:`~repro.analysis.scenarios.SourceSweepPoint`
    instances: per (source, configuration) pair the circuit's shape
    (PIs/POs/gates) next to the measured compilation, so registry
    benchmarks, imported netlists, and frontend circuits line up in one
    table.
    """
    lines: List[str] = []
    lines.append(
        title or "SOURCE SWEEP - ONE PIPELINE ACROSS CIRCUIT ORIGINS"
    )
    header = [
        "source", "kind", "config", "PI/PO", "gates", "#I", "#R",
        "min/max", "STDEV",
    ]
    widths = [16, 9, 12, 8, 7, 8, 7, 9, 8]
    lines.append(" | ".join(f"{c:>{w}s}" for c, w in zip(header, widths)))
    lines.append("-" * len(lines[-1]))
    for p in points:
        result = p.result.compilation
        stats = result.stats
        mig = p.result.mig
        row = [
            p.source,
            p.kind,
            p.config,
            f"{mig.num_pis}/{mig.num_pos}",
            str(mig.num_live_gates()),
            str(result.num_instructions),
            str(result.num_rrams),
            f"{stats.min_writes}/{stats.max_writes}",
            f"{stats.stdev:.2f}",
        ]
        lines.append(" | ".join(f"{c:>{w}s}" for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_objective_study(rows, title: str = "") -> str:
    """Fixed-width table of a suite-wide objective study.

    *rows* are :class:`~repro.analysis.scenarios.ObjectiveStudyRow`
    instances; the summary line counts the benchmarks on which the
    cost-guided optimizer strictly beat the fixed script.
    """
    lines: List[str] = []
    lines.append(
        title or "OBJECTIVE STUDY - COST-GUIDED OPTIMIZER VS FIXED SCRIPT"
    )
    header = ["benchmark", "raw", "script", "optimized", "delta", ""]
    widths = [12, 8, 8, 9, 7, 4]
    lines.append(" | ".join(f"{c:>{w}s}" for c, w in zip(header, widths)))
    lines.append("-" * len(lines[-1]))
    improved = 0
    for row in rows:
        improved += 1 if row.improved else 0
        cells = [
            row.benchmark,
            str(row.raw),
            str(row.script),
            str(row.optimized),
            str(row.optimized - row.script),
            "WIN" if row.improved else "",
        ]
        lines.append(" | ".join(f"{c:>{w}s}" for c, w in zip(cells, widths)))
    lines.append("-" * len(lines[1]))
    lines.append(
        f"strictly improved on {improved}/{len(rows)} benchmarks"
    )
    return "\n".join(lines)


def render_headline(evaluations: Sequence[BenchmarkEvaluation]) -> str:
    """The abstract's headline numbers, paper vs measured."""
    metrics = headline_metrics(evaluations)
    lines = [
        "HEADLINE (full management, W_max = 100, vs naive)",
        f"  write-stdev improvement : {metrics['stdev_improvement_pct']:7.2f}%"
        "   (paper: 86.65% avg per-benchmark)",
        f"  instruction reduction   : {metrics['instruction_reduction_pct']:7.2f}%"
        "   (paper: 36.45%)",
        f"  RRAM device reduction   : {metrics['rram_reduction_pct']:7.2f}%"
        "   (paper: 13.67%)",
    ]
    return "\n".join(lines)
