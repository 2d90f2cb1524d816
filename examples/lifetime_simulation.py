#!/usr/bin/env python3
"""Lifetime simulation: running a workload on a wear-limited RRAM array.

The paper argues write balancing extends array lifetime.  This example
closes the loop *dynamically*: it executes compiled programs over and
over on a behavioural array with a (scaled-down) endurance budget until
the first cell hard-fails, and compares how many evaluations each
compiler configuration survives — naive vs the full endurance-managed
stack of the paper.  Compilation routes through ``repro.flow``.

Run:  python examples/lifetime_simulation.py
"""

import random

from repro import Flow, Session, PRESETS, full_management
from repro.plim.controller import PlimController
from repro.plim.memory import EnduranceExhaustedError, RramArray, estimate_lifetime

#: Scaled-down endurance so the demo finishes in seconds.  Real cells
#: endure ~1e10-1e11 writes; lifetimes scale linearly.
DEMO_ENDURANCE = 2_000


def run_until_failure(program, num_inputs: int, seed: int = 1) -> int:
    """Execute *program* with random inputs until a cell wears out."""
    array = RramArray(program.num_cells, endurance=DEMO_ENDURANCE)
    controller = PlimController(array)
    rng = random.Random(seed)
    executions = 0
    while True:
        words = [rng.getrandbits(1) for _ in range(num_inputs)]
        try:
            controller.run(program, words)
        except EnduranceExhaustedError as failure:
            print(
                f"    first failure: cell {failure.cell} after "
                f"{executions} runs ({failure.writes} writes)"
            )
            return executions
        executions += 1


def main() -> None:
    bench = "sin"
    # from_env: honours $REPRO_CACHE_DIR if set
    session = Session.from_env(preset="tiny")
    mig = session.cache.benchmark_mig(bench, session.preset)
    print(
        f"workload: {bench} ({mig.num_pis} inputs, "
        f"{mig.num_live_gates()} nodes), per-cell endurance budget "
        f"{DEMO_ENDURANCE} writes\n"
    )

    results = {}
    for label, config in [
        ("naive", PRESETS["naive"]),
        ("ea-full", PRESETS["ea-full"]),
        ("ea-full + wmax=20", full_management(20)),
    ]:
        result = (
            Flow.for_config(config, session=session)
            .source(bench)
            .run()
            .compilation
        )
        static = estimate_lifetime(
            result.program.write_counts(), endurance=DEMO_ENDURANCE
        )
        print(
            f"{label}:\n"
            f"    #I={result.num_instructions}, #R={result.num_rrams}, "
            f"max writes/run={result.stats.max_writes}"
        )
        print(
            f"    static estimate: {static.executions} runs "
            f"(cell {static.first_failing_cell} dies first)"
        )
        measured = run_until_failure(result.program, mig.num_pis)
        assert measured == static.executions, "static model must be exact"
        results[label] = measured
        print()

    base = results["naive"]
    print("lifetime relative to the naive compiler:")
    for label, runs in results.items():
        print(f"    {label:20s} {runs:6d} runs   ({runs / base:.1f}x)")
    print()
    print("the static estimate (endurance / max-writes-per-run) matches")
    print("the dynamic simulation exactly, because PLiM write traffic is")
    print("static — every run issues the same RM3 stream.")


if __name__ == "__main__":
    main()
