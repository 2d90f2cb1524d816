"""Simulation-engine micro-benchmark at 2^18 patterns.

Runs the exhaustive hot paths of the harness — full truth tables and an
exhaustive equivalence check — on the ``multiplier`` benchmark sized to
18 primary inputs (262 144 patterns) under the bigint reference kernel
and the numpy kernel, once per module (the bigint run hides numpy from
:mod:`repro.mig.kernel`, which then picks bigint as it would without
numpy installed).
``test_kernel_matrix_at_2e18_patterns`` asserts bit-identical results
and records the measured wall-clock and speedups into
``BENCH_kernel.json`` (see ``conftest.BENCH_REPORT``);
``test_numpy_backend_speedup_at_2e18_patterns`` asserts the speedup
floor on the same numbers.

The speedup floor asserted here is deliberately conservative (shared CI
runners jitter); the JSON artefact carries the exact numbers so the
trajectory is tracked per run.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.mig import kernel
from repro.mig.simulate import equivalent, truth_tables
from repro.synth.arithmetic import build_multiplier

from .conftest import BENCH_REPORT

#: 2 * 9 input bits -> 2^18 exhaustive patterns.
MULT_WIDTH = 9

#: Conservative floor for the numpy speedup assertions; the measured
#: values land in BENCH_kernel.json.
MIN_SPEEDUP = 1.5


def _best_of(fn, repeats: int = 3, setup=lambda: None) -> float:
    best = float("inf")
    for _ in range(repeats):
        setup()
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


needs_numpy = pytest.mark.skipif(
    not kernel.numpy_available(), reason="numpy not installed"
)


@pytest.fixture(scope="module")
def measured():
    """One bigint-vs-numpy run, shared by both tests below."""
    mig = build_multiplier(MULT_WIDTH)
    assert mig.num_pis == 2 * MULT_WIDTH
    other = mig.clone()
    tables = {}
    seconds = {}
    numpy_engine = kernel._NUMPY
    with pytest.MonkeyPatch.context() as patch:
        for name in ("bigint", "numpy"):
            # Hiding numpy leaves the kernel module on bigint, as on a
            # CPython-only platform.
            patch.setattr(
                kernel, "_NUMPY", numpy_engine if name == "numpy" else None
            )
            assert kernel.get_kernel().name == name
            tables[name] = truth_tables(mig)
            assert equivalent(mig, other), name

            def forget(slot=("exhaustive", name)):
                # Time the engine's sweep, not a lookup of the tables
                # that exhaustive equivalence remembers per graph.
                mig._derived.pop(slot, None)
                other._derived.pop(slot, None)

            seconds[name] = {
                "truth_tables_seconds": _best_of(lambda: truth_tables(mig)),
                "equivalence_seconds": _best_of(
                    lambda: equivalent(mig, other), setup=forget
                ),
            }
    return mig, tables, seconds


def _speedups(seconds):
    big, np_ = seconds["bigint"], seconds["numpy"]
    return (
        big["truth_tables_seconds"] / np_["truth_tables_seconds"],
        big["equivalence_seconds"] / np_["equivalence_seconds"],
    )


@needs_numpy
def test_kernel_matrix_at_2e18_patterns(measured):
    """Bit-identical tables; the engine timings feed BENCH_kernel.json."""
    mig, tables, seconds = measured
    assert tables["numpy"] == tables["bigint"]
    tt_speedup, eq_speedup = _speedups(seconds)
    BENCH_REPORT["kernel"] = {
        "benchmark": f"multiplier(width={MULT_WIDTH})",
        "patterns": 1 << mig.num_pis,
        "gates": mig.num_live_gates(),
        "cpu_count": os.cpu_count() or 1,
        "seconds": seconds,
        "truth_tables_speedup": tt_speedup,
        "equivalence_speedup": eq_speedup,
    }


@needs_numpy
def test_numpy_backend_speedup_at_2e18_patterns(measured):
    tt_speedup, eq_speedup = _speedups(measured[2])
    assert tt_speedup >= MIN_SPEEDUP
    assert eq_speedup >= MIN_SPEEDUP
