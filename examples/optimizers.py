#!/usr/bin/env python3
"""The optimizer dimension: one benchmark across rewriting strategies.

The paper's Algorithm 2 is one fixed rewriting pipeline.  ``repro.opt``
generalises the rewrite stage into a cost-guided optimizer: pluggable
``RewritePass`` candidates, compile-free ``Objective`` cost functions
(including the architecture-aware estimated write cost, priced through
the target machine's cost model), and search strategies — ``script``
(the paper's pipelines, byte-identical), ``greedy`` (best candidate per
round), ``budget`` (bounded look-ahead).  This script sweeps one
benchmark across strategies, shows the compile-free objective next to
the measured instruction counts, crosses the sweep with a second
machine model (the same strategy re-prices its moves per architecture),
and registers a custom objective to show the registry is open.

Run:  python examples/optimizers.py
"""

import os

from repro import Session
from repro.analysis.report import render_optimizer_sweep
from repro.opt import Objective, register_objective

PRESET = os.environ.get("REPRO_EXAMPLE_PRESET", "tiny")
BENCH = "dec"


def main() -> None:
    session = Session.from_env(preset=PRESET)

    print("Rewriting strategies over one benchmark ('dec'):")
    print("(the 'objective' column is the compile-free estimate the")
    print(" search minimises; #I/#R are the measured compilation)\n")
    points = session.grid(
        [BENCH], ("ea-full",), opts=("script", "greedy", "budget"),
        verify=True,
    )
    print(render_optimizer_sweep(
        points, title=f"{BENCH} @ {PRESET} preset, endurance machine"
    ))
    print()

    # The same strategies against a different machine: the write-cost
    # objective re-prices every candidate through the blocked machine's
    # cost model, so the search itself is architecture-aware.
    print("The same sweep targeting the word-addressed 'blocked' machine:")
    print("(#R grows to whole word lines; the greedy search now optimises")
    print(" under that machine's costs — artefacts are cached per machine)\n")
    arch_points = session.grid(
        [BENCH], ("ea-full",), archs=("blocked",), opts=("script", "greedy"),
        verify=16,
    )
    print(render_optimizer_sweep(
        arch_points, title=f"{BENCH} @ {PRESET} preset, blocked machine"
    ))
    print()

    # The registry is open: a custom objective is one dataclass away
    # and immediately works in specs, sweeps, and cache keys.
    register_objective(
        Objective(
            name="complement_edges",
            fn=lambda mig, arch: mig.num_complemented_edges(),
            description="total complemented edges",
        ),
        overwrite=True,  # idempotent when the example is re-run in-process
    )
    print("A custom objective ('complement_edges'), registered on the fly:\n")
    custom = session.grid(
        [BENCH], ("ea-full",), opts=("script", "greedy:complement_edges"),
        verify=True,
    )
    print(render_optimizer_sweep(
        custom, title=f"{BENCH} @ {PRESET} preset, custom objective"
    ))


if __name__ == "__main__":
    main()
