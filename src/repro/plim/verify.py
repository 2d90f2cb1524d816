"""End-to-end verification of compiled PLiM programs.

A compiled RM3 stream is executed on the behavioural RRAM array and its
outputs are compared against bit-parallel simulation of the source MIG —
for every compiler configuration this must match on every pattern.  This
is the safety net under all experiments: statistics of a miscompiled
program would be meaningless.
"""

from __future__ import annotations

import random

from ..mig.graph import Mig
from ..mig.simulate import (
    check_exhaustive_limit,
    exhaustive_words,
    randomized_rounds,
    simulate,
)
from ..resilience.timeouts import checkpoint
from .controller import PlimController
from .isa import Program
from .memory import RramArray


class VerificationError(AssertionError):
    """A compiled program disagrees with its source MIG."""


def verify_program(
    program: Program,
    mig: Mig,
    *,
    patterns: int = 256,
    seed: int = 0x5EED,
    exhaustive_limit: int = 10,
) -> bool:
    """Check that *program* computes the same function as *mig*.

    Small functions (``num_pis <= exhaustive_limit``) are checked
    exhaustively; larger ones with *patterns* random bit-parallel
    patterns drawn in 64-pattern rounds
    (:func:`repro.mig.simulate.randomized_rounds`).  The MIG side runs
    through the simulation kernel; the program side executes on the
    behavioural array.  Returns ``True`` on success; raises
    :class:`VerificationError` on mismatch, and ``ValueError`` for an
    *exhaustive_limit* above :data:`~repro.mig.simulate.MAX_EXHAUSTIVE_PIS`.
    """
    check_exhaustive_limit(exhaustive_limit)
    if len(program.pi_cells) != mig.num_pis:
        raise ValueError("program/MIG input arity mismatch")
    if len(program.po_cells) != mig.num_pos:
        raise ValueError("program/MIG output arity mismatch")

    if mig.num_pis <= exhaustive_limit:
        width = 1 << mig.num_pis
        mask = (1 << width) - 1
        batches = [exhaustive_words(mig.num_pis, width)]
    else:
        rng = random.Random(seed)
        rounds, width, mask = randomized_rounds(patterns)
        batches = [
            [rng.getrandbits(width) for _ in range(mig.num_pis)]
            for _ in range(rounds)
        ]

    for words in batches:
        checkpoint()
        expected = simulate(mig, words, mask=mask)
        array = RramArray(program.num_cells)
        got = PlimController(array).run(program, words, mask=mask)
        if expected != got:
            bad = [
                (i, mig.po_name(i))
                for i, (e, g) in enumerate(zip(expected, got))
                if e != g
            ]
            raise VerificationError(
                f"program {program.name!r} disagrees with its MIG on "
                f"outputs {bad[:8]}"
            )
    return True

