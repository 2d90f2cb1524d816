#!/usr/bin/env python3
"""Section II of the paper: IMPLY-based logic-in-memory vs managed RM3.

Material implication (IMP) was the first stateful logic primitive for
memristive computing.  Its NAND gate [Borghetti et al., Nature 2010]
executes in three operations that all write the same *work* device, and
minimal schemes compute entire functions with just two work devices
[Lehtonen et al., 2010] — concentrating every write of the computation on
a couple of cells.  The paper uses this to motivate endurance management
for the majority-based PLiM computer.

This example synthesises the same function three ways and compares write
traffic:

1. IMP with an unbounded work pool (one device per live NAND value);
2. IMP with a bounded work pool (rematerialising scheduler);
3. RM3/PLiM with the paper's full endurance management, run as a
   ``repro.flow`` pipeline.

Run:  python examples/imp_vs_rm3.py
"""

from repro import Flow, Session
from repro.core.stats import WriteTrafficStats, gini_coefficient
from repro.imp import mig_to_nand, synthesize_imp, verify_imp_program
from repro.imp.synthesize import required_pool_estimate


def describe(label: str, instructions: int, counts) -> None:
    stats = WriteTrafficStats.from_counts(counts)
    hot = sorted(counts, reverse=True)[:5]
    print(
        f"{label:28s} ops={instructions:6d}  devices={len(counts):4d}  "
        f"max={stats.max_writes:4d}  stdev={stats.stdev:7.2f}  "
        f"gini={gini_coefficient(counts):.3f}  hottest={hot}"
    )


def main() -> None:
    bench = "cavlc"
    # from_env: honours $REPRO_CACHE_DIR if set
    session = Session.from_env(preset="tiny")
    mig = session.cache.benchmark_mig(bench, session.preset)
    print(
        f"function: {bench} ({mig.num_pis} inputs, "
        f"{mig.num_live_gates()} majority nodes)\n"
    )

    net = mig_to_nand(mig)
    print(
        f"NAND decomposition: {len(net.gates)} gates, depth {net.depth()}\n"
    )

    imp = synthesize_imp(net)
    assert verify_imp_program(imp, net)
    describe("IMP, unbounded pool", imp.num_instructions, imp.write_counts())

    pool = required_pool_estimate(net)
    bounded = synthesize_imp(net, work_devices=pool)
    assert verify_imp_program(bounded, net)
    describe(
        f"IMP, {pool}-device pool", bounded.num_instructions,
        bounded.write_counts(),
    )

    plim = Flow.for_config("ea-full", session=session).source(bench).run()
    describe(
        "RM3 + endurance management",
        plim.compilation.num_instructions,
        plim.program.write_counts(),
    )

    print()
    print("observations (the paper's Section II):")
    print(" * IMP needs several operations per gate and concentrates all")
    print("   of them on work devices (inputs are never written);")
    print(" * bounding the work pool trades instructions for even harder")
    print("   concentration — the 'two memristors suffice' regime is an")
    print("   endurance worst case;")
    print(" * the majority-native RM3 flow with endurance management")
    print("   spreads writes across the array at a fraction of the")
    print("   operation count.")


if __name__ == "__main__":
    main()
