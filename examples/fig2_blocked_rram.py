#!/usr/bin/env python3
"""Fig. 2 of the paper: blocked RRAMs and endurance-aware node selection.

A value produced early but consumed late pins its device for most of the
program ("blocked RRAM"); its neighbours absorb the recycled traffic.
Algorithm 3 reverses the compiler's selection priority — candidates with
the *shortest storage duration* first — so producers of long-lived values
are scheduled as late as possible.

This script rebuilds the paper's 7-node Fig. 2 MIG, reports per-device
value lifetimes under both selection orders, then sweeps a parametric
"ladder" of blocked producers.  Compilations run as verified flows over
one shared session.

Run:  python examples/fig2_blocked_rram.py
"""

from repro import Session
from repro.analysis.scenarios import fig2_ladder, fig2_mig, storage_pressure


def report(session, mig) -> None:
    print(f"--- {mig.name}: {mig.num_live_gates()} nodes ---")
    for point in session.grid([mig], ("dac16", "ea-full"), verify=True):
        result = point.result.compilation
        longest, mean = storage_pressure(result.program)
        print(
            f"{point.config.name:8s} #I={result.num_instructions:4d} "
            f"max-writes={result.stats.max_writes:3d} "
            f"stdev={result.stats.stdev:5.2f} "
            f"longest-lifetime={longest:3d} mean={mean:5.1f}"
        )
    print()


def main() -> None:
    print("The exact MIG of Fig. 2 (A waits for the root G; B, C are")
    print("consumed immediately by D and E):")
    print(fig2_mig().dump())
    print()

    session = Session()
    report(session, fig2_mig())

    print("Ladders of blocked producers (each consumed only at the root):")
    print("the DAC'16 order computes them early and recycles around them;")
    print("Algorithm 3 defers them, spreading the writes.\n")
    for rungs in (4, 8, 16, 24):
        report(session, fig2_ladder(rungs))

    print("observations (the paper's Section III-B.4):")
    print(" * Algorithm 3 consistently lowers the write stdev and the")
    print("   hottest cell on blocked-producer structures;")
    print(" * blocking itself cannot be eliminated — the sequential PLiM")
    print("   execution always pins some values (the paper's closing")
    print("   remark on generic MIG-based in-memory architectures).")


if __name__ == "__main__":
    main()
