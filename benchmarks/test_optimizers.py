"""Optimizer sweep — cost-guided rewriting vs the paper's fixed scripts.

The rewrite stage is a pluggable :mod:`repro.opt` optimizer; this module
regenerates the optimizer-sweep artefact (``OPT_sweep.txt``):

* a focus sweep — one benchmark compiled under the legacy ``script``
  strategy, the cost-guided ``greedy`` strategy, and the bounded
  look-ahead ``budget`` strategy, with the measured #I/#R next to the
  compile-free objective estimates, through the shared session (the
  script rows are pure cache hits against the table suite);
* a suite-wide objective study — the architecture-aware ``greedy``
  strategy scored against the fixed ``endurance`` script on every
  registry benchmark, asserting the cost-guided search strictly reduces
  the estimated write cost on at least half the suite (the
  paper-level claim that target-cost-driven rewriting beats generic
  fixed pipelines).
"""

from repro.analysis.report import (
    render_objective_study,
    render_optimizer_sweep,
)
from repro.analysis.scenarios import optimizer_objective_study
from repro.opt import Optimizer

from .conftest import PRESET, SESSION, write_artifact

#: The focus benchmark: small enough to keep the lane fast, rich enough
#: (multi-output decoder) for the strategies to differ.
SWEEP_BENCHMARK = "dec"

#: Suite-wide study widths: tiny keeps the default lane within its
#: budget; the paper-preset nightly lane studies the default widths.
STUDY_PRESET = "default" if PRESET == "paper" else "tiny"


def test_optimizer_sweep_artifact(benchmark):
    def run():
        points = SESSION.grid(
            [SWEEP_BENCHMARK],
            ("ea-full",),
            opts=("script", "greedy", "budget"),
            verify=True,
        )
        rows = optimizer_objective_study(
            opt="greedy",
            baseline="endurance",
            preset=STUDY_PRESET,
            session=SESSION,
        )
        return points, rows

    points, rows = benchmark.pedantic(run, rounds=1, iterations=1)
    text = render_optimizer_sweep(
        points,
        title=(
            f"OPTIMIZER SWEEP - {SWEEP_BENCHMARK} ({PRESET} preset, "
            f"{SESSION.architecture.name} machine)"
        ),
    )
    text += "\n\n" + render_objective_study(
        rows,
        title=(
            "OBJECTIVE STUDY - greedy:write_cost vs the endurance script "
            f"({STUDY_PRESET} preset, {SESSION.architecture.name} machine)"
        ),
    )
    write_artifact("OPT_sweep.txt", text)
    print("\n" + text)

    objective = {
        p.optimizer.label(): Optimizer(p.optimizer, p.arch).score(
            p.result.rewritten
        )
        for p in points
    }
    # Every strategy produced a verified, compilable result…
    assert set(objective) == {
        "script", "greedy:write_cost", "budget:write_cost@2"
    }
    # …and the cost-guided strategies never do worse than the fixed
    # script under their own objective.
    assert objective["greedy:write_cost"] <= objective["script"]
    assert objective["budget:write_cost@2"] <= objective["script"]

    # The acceptance bar of the optimizer layer: the architecture-aware
    # greedy search strictly reduces the estimated write cost vs the
    # paper's fixed endurance script on at least half the suite.
    improved = sum(1 for row in rows if row.improved)
    assert improved >= len(rows) // 2, (
        f"greedy strictly improved only {improved}/{len(rows)} benchmarks"
    )
    # and never regresses anywhere
    assert all(row.optimized <= row.script for row in rows)


def test_script_rows_match_table_suite():
    """The sweep's script rows equal the Table I suite results — the
    optimizer layer shares (not forks) the session cache."""
    from .conftest import suite_plain

    evaluation = next(
        e for e in suite_plain() if e.name == SWEEP_BENCHMARK
    )
    points = SESSION.grid(
        [SWEEP_BENCHMARK], ("naive", "ea-full"), opts=("script",)
    )
    for point in points:
        suite_result = evaluation.results[point.config.name]
        assert point.result.program.instructions == (
            suite_result.program.instructions
        )
        assert point.result.program.write_counts() == (
            suite_result.program.write_counts()
        )
