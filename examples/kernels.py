#!/usr/bin/env python3
"""Simulation kernels: the automatic choice and the parity guarantee.

Bit-parallel MIG simulation runs on one of two interchangeable kernels
(``repro.mig.kernel``): **bigint** — Python integers as simulation
words, always available, the reference engine; and **numpy** — the
level-batched ``uint64`` lane engine, which gathers each MIG level's
operand rows into contiguous 2-D arrays (a handful of large ufunc calls
per level instead of per-gate dispatch) on the calling thread.

The engine is not a setting: ``get_kernel()`` returns the numpy kernel
when numpy is importable and the bigint kernel otherwise.  Both are
bit-identical on every routed operation, so this script sweeps the same
truth tables through each installed kernel and diffs them, then runs an
exhaustive equivalence check the way every pipeline does — through the
automatic choice.

Per-kernel timings go to stderr, so stdout is the same on every run.

Run:  python examples/kernels.py
"""

import os
import sys
import time

from repro.mig import kernel
from repro.mig.simulate import equivalent, truth_tables
from repro.synth.arithmetic import build_multiplier

PRESET = os.environ.get("REPRO_EXAMPLE_PRESET", "tiny")

#: Multiplier operand width per preset: 2*W primary inputs, 2^(2W)
#: exhaustive patterns — big enough to time, small enough for CI.
WIDTH = {"tiny": 5, "paper": 8}.get(PRESET, 7)


def _timed_tables(mig, engine):
    start = time.perf_counter()
    tables = truth_tables(mig, kernel=engine)
    return tables, time.perf_counter() - start


def main() -> None:
    mig = build_multiplier(WIDTH)
    print(
        f"multiplier(width={WIDTH}): {mig.num_pis} inputs, "
        f"{mig.num_live_gates()} gates, "
        f"2^{mig.num_pis} exhaustive patterns\n"
    )

    active = kernel.get_kernel()
    print(f"get_kernel() picks {active.name!r}: numpy when importable,")
    print("bigint otherwise.\n")

    # -- 1. the parity guarantee: same tables from every kernel --------
    # Passing kernel= explicitly is how a caller compares engines; the
    # pipelines never do, they take the automatic choice.
    print("Exhaustive truth tables under each installed kernel:")
    engines = [kernel.BigintKernel()]
    if kernel.numpy_available():
        engines.append(active)
    reference = None
    for engine in engines:
        tables, seconds = _timed_tables(mig, engine)
        if reference is None:
            reference, verdict = tables, "reference"
        else:
            verdict = (
                "bit-identical" if tables == reference else "MISMATCH"
            )
        print(f"  {engine.name:<12} {verdict}")
        print(f"  {engine.name:<12} {seconds * 1e3:8.2f} ms", file=sys.stderr)
    if not kernel.numpy_available():
        print("numpy not importable: only the bigint kernel is loaded")
    print()

    # -- 2. the automatic choice, as every flow and matrix uses it -----
    assert equivalent(mig, mig.clone())
    print(f"exhaustive equivalence vs a clone on {active.name!r}: OK\n")

    print("A numpy kernel failure at runtime demotes the rest of the")
    print("affected job to the bigint kernel, with identical results.")


if __name__ == "__main__":
    main()
