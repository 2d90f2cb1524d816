#!/usr/bin/env python3
"""Quickstart: compile a function for the PLiM computer with endurance
management and inspect the write traffic.

This walks the full pipeline of the reproduced paper on a small adder,
driven through the ``repro.flow`` API:

1. describe a Boolean function as a Majority-Inverter Graph (MIG);
2. declare a ``Flow`` per configuration — the incremental technique
   stack of the paper's Table I — over one shared ``Session``;
3. let the flow's verify stage check the compiled program against MIG
   simulation on the behavioural RRAM array;
4. compare the per-device write distributions and the implied array
   lifetime.

Run:  python examples/quickstart.py
"""

from repro import Flow, Session, PRESETS, full_management
from repro.plim.memory import estimate_lifetime
from repro.synth.arithmetic import build_adder


def main() -> None:
    # An 8-bit ripple-carry adder, built the way a naive tool flow would
    # translate it (AND/inverter style, no sharing recovery).
    mig = build_adder(width=8)
    print(f"function: {mig.name}  ({mig.num_pis} inputs, "
          f"{mig.num_pos} outputs, {mig.num_live_gates()} majority nodes)")
    print()

    # One session owns the experiment cache (and the persistence
    # knobs); every flow below routes through it, so configurations with
    # a common rewriting script share one rewriting run.
    session = Session()

    configs = list(PRESETS.values()) + [full_management(10)]
    print(f"{'configuration':18s} {'#I':>6s} {'#R':>5s} "
          f"{'min/max':>9s} {'stdev':>7s} {'lifetime':>9s}")
    baseline_life = None
    for config in configs:
        # source -> rewrite -> compile -> verify, with per-stage caching;
        # the verify stage co-simulates program vs MIG on the array model.
        result = (
            Flow.for_config(config, session=session)
            .source(mig)
            .verify()
            .run()
        )

        stats = result.stats
        life = estimate_lifetime(result.program.write_counts())
        if baseline_life is None:
            baseline_life = life.executions
        gain = life.executions / baseline_life
        print(
            f"{config.name:18s} {result.compilation.num_instructions:6d} "
            f"{result.compilation.num_rrams:5d} "
            f"{stats.min_writes:>4d}/{stats.max_writes:<4d} "
            f"{stats.stdev:7.2f} {gain:8.1f}x"
        )

    print()
    print("reading the table:")
    print(" * naive       — node translation only (the paper's baseline)")
    print(" * dac16       — the DAC'16 PLiM compiler (Algorithm 1 + its")
    print("                 area/latency node selection)")
    print(" * min-write   — + minimum write count strategy (same #I/#R!)")
    print(" * ea-rewrite  — + endurance-aware rewriting (Algorithm 2)")
    print(" * ea-full     — + endurance-aware selection (Algorithm 3)")
    print(" * +wmax10     — + maximum write count strategy (cap = 10)")
    print()
    print("lifetime = executions until the hottest cell exhausts a 1e10-")
    print("write endurance budget, relative to the naive compiler.")


if __name__ == "__main__":
    main()
