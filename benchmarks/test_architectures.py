"""Architecture sweep — one benchmark across PLiM machine models.

The machine the compiler targets is a pluggable :mod:`repro.arch` value;
this module regenerates the architecture-sweep artefact
(``ARCH_sweep.txt``): one registry benchmark compiled for the DAC'16
endurance-oblivious crossbar, the paper's wear-tracked crossbar (the
default machine the rest of the harness reproduces), and the
word-addressed ``blocked`` machine — through the shared session, so
the default-machine rows are pure cache hits against the table suite.
"""

from repro.analysis.report import render_architecture_sweep
from repro.arch import (
    DEFAULT_ARCHITECTURE,
    available_architectures,
    get_architecture,
)

from .conftest import PRESET, SESSION, write_artifact

#: The sweep source: small enough to keep the nightly lane fast, rich
#: enough (multi-output decoder) for allocation behaviour to differ.
SWEEP_BENCHMARK = "dec"


def test_architecture_sweep_artifact(benchmark):
    def run():
        return SESSION.grid(
            [SWEEP_BENCHMARK],
            ("naive", "ea-full"),
            archs=available_architectures(),
            verify=True,
        )

    points = benchmark.pedantic(run, rounds=1, iterations=1)
    text = render_architecture_sweep(
        points,
        title=f"ARCHITECTURE SWEEP - {SWEEP_BENCHMARK} ({PRESET} preset)",
    )
    write_artifact("ARCH_sweep.txt", text)
    print("\n" + text)

    by_pair = {(p.arch.name, p.config.name): p for p in points}

    # The endurance-oblivious machine cannot run min-write configs…
    assert by_pair[("dac16", "ea-full")].result is None
    # …but reproduces the naive program of the default machine exactly.
    dac16 = by_pair[("dac16", "naive")].result.program
    default = by_pair[(DEFAULT_ARCHITECTURE, "naive")].result.program
    assert dac16.instructions == default.instructions
    assert dac16.num_cells == default.num_cells

    # The word-addressed machine provisions whole lines.
    block = get_architecture("blocked").geometry.block_size
    for config in ("naive", "ea-full"):
        point = by_pair[("blocked", config)]
        assert point.result is not None
        assert point.result.program.num_cells % block == 0


def test_default_architecture_rows_match_table_suite():
    """The sweep's default-machine rows equal the Table I suite results —
    the architecture layer shares (not forks) the session cache."""
    from .conftest import suite_plain

    evaluation = next(
        e for e in suite_plain() if e.name == SWEEP_BENCHMARK
    )
    points = SESSION.grid(
        [SWEEP_BENCHMARK], ("naive", "ea-full"), archs=(DEFAULT_ARCHITECTURE,)
    )
    for point in points:
        suite_result = evaluation.results[point.config.name]
        assert point.result.program.instructions == (
            suite_result.program.instructions
        )
        assert point.result.program.write_counts() == (
            suite_result.program.write_counts()
        )
