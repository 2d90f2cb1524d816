#!/usr/bin/env python3
"""Fig. 1 of the paper: why area/latency-optimal compilation burns a hole
in the array.

The compiler prefers to *overwrite* a fanin's device with each node's
result (that is the free RM3 destination).  When the only legal
destination at every step is the previously computed value — single
fanout, non-complemented — the same physical device absorbs the whole
chain.  This script rebuilds the exact 4-node MIG of the paper's Fig. 1,
then scales the pathology with a parametric chain and shows how each
proposed technique responds.  Every compilation is a verified flow over
one shared session.

Run:  python examples/fig1_unbalanced_write.py
"""

from repro import Session
from repro.analysis.scenarios import fig1_chain, fig1_mig
from repro.core.manager import PRESETS, full_management
from repro.core.stats import write_histogram


def show(session, mig, configs) -> None:
    print(f"--- {mig.name}: {mig.num_live_gates()} nodes ---")
    points = session.grid(
        [mig], [config for _, config in configs], verify=True
    )
    for (label, _), point in zip(configs, points):
        result = point.result.compilation
        counts = result.program.write_counts()
        print(
            f"{label:12s} #I={result.num_instructions:4d} "
            f"#R={result.num_rrams:3d} max={result.stats.max_writes:3d} "
            f"stdev={result.stats.stdev:5.2f}  "
            f"histogram={write_histogram(counts, bins=6)}"
        )
    print()


def main() -> None:
    print("The exact MIG of Fig. 1 (A feeds B feeds C; D complemented):")
    print(fig1_mig().dump())
    print()

    session = Session()
    configs = [
        ("naive", PRESETS["naive"]),
        ("min-write", PRESETS["min-write"]),
        ("ea-full", PRESETS["ea-full"]),
        ("wmax=5", full_management(5)),
    ]

    show(session, fig1_mig(), configs)

    print("Scaling the pathology: a destination chain of length L forces")
    print("L writes onto one device unless the write cap intervenes:\n")
    for length in (8, 16, 32, 64):
        show(session, fig1_chain(length), configs)

    print("observations (the paper's Section III-B):")
    print(" * the minimum write strategy cannot fix this — the structure")
    print("   dictates the destination, not the allocator;")
    print(" * only the maximum write count strategy bounds the hot cell,")
    print("   paying instructions and devices for fresh destinations.")


if __name__ == "__main__":
    main()
