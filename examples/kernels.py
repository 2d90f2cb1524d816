#!/usr/bin/env python3
"""Simulation kernels: selection and the parity guarantee.

Bit-parallel MIG simulation runs on one of two interchangeable kernels
(``repro.mig.kernel``): **bigint** — Python integers as simulation
words, always available, the reference engine; and **numpy** — the
level-batched ``uint64`` lane engine, which gathers each MIG level's
operand rows into contiguous 2-D arrays (a handful of large ufunc calls
per level instead of per-gate dispatch) on the calling thread.  Both
are bit-identical on every routed operation, so this script sweeps the
same truth tables across the inventory and diffs them, then shows the
backend knob at every layer it surfaces: kernel scopes, ``Session``
arguments, and the ``--backend`` flag whose precedence mirrors
``$REPRO_SIM_BACKEND``.

Run:  python examples/kernels.py
"""

import os
import time

from repro.flow import Session
from repro.mig import kernel
from repro.mig.simulate import equivalent, truth_tables
from repro.synth.arithmetic import build_multiplier

PRESET = os.environ.get("REPRO_EXAMPLE_PRESET", "tiny")

#: Multiplier operand width per preset: 2*W primary inputs, 2^(2W)
#: exhaustive patterns — big enough to time, small enough for CI.
WIDTH = {"tiny": 5, "paper": 8}.get(PRESET, 7)


def _timed_tables(mig):
    start = time.perf_counter()
    tables = truth_tables(mig)
    return tables, time.perf_counter() - start


def main() -> None:
    mig = build_multiplier(WIDTH)
    print(
        f"multiplier(width={WIDTH}): {mig.num_pis} inputs, "
        f"{mig.num_live_gates()} gates, "
        f"2^{mig.num_pis} exhaustive patterns\n"
    )

    print("Kernel inventory (auto prefers the last importable one):")
    auto = kernel.resolve_backend("auto")
    for name in kernel.available_backends():
        marker = "  <- auto" if name == auto.name else ""
        print(f"  {name}{marker}")
    print()

    # -- 1. the parity guarantee: same tables from every kernel --------
    print("Exhaustive truth tables under each kernel:")
    reference = None
    for name in kernel.available_backends():
        with kernel.backend_scope(name):
            tables, seconds = _timed_tables(mig)
        if reference is None:
            reference, verdict = tables, "reference"
        else:
            verdict = (
                "bit-identical" if tables == reference else "MISMATCH"
            )
        print(f"  {name:<12} {seconds * 1e3:8.2f} ms   {verdict}")
    if not kernel.numpy_available():
        print("numpy not importable: only the bigint kernel is loaded")
    print()

    # -- 2. the same knob through a Session ----------------------------
    # Flow runs and matrix evaluations enter activated() on their own;
    # entering it by hand scopes hand-driven kernel APIs the same way.
    # On the command line the equivalent wiring is
    #   python -m repro table1 --backend numpy
    session = Session(preset=PRESET, backend="auto")
    with session.activated() as active:
        print(f"Session(backend='auto') activates {active.name!r}")
        assert equivalent(mig, mig.clone())
    print("exhaustive equivalence vs a clone inside the session: OK\n")

    print("A numpy kernel failure at runtime demotes the rest of the")
    print("affected job to the bigint kernel, with identical results.")


if __name__ == "__main__":
    main()
