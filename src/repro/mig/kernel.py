"""The bit-parallel simulation kernel.

The harness evaluates every MIG function two ways — bit-parallel
simulation of the graph and execution of its compiled PLiM program — and
the graph side is a pure streaming computation over the memoized flat
gate records (:meth:`repro.mig.graph.Mig.flat_gates`).  This module holds
that computation: :class:`BigintKernel`, whose simulation words are plain
Python integers.  Complement attributes arrive pre-folded into XOR masks,
so every gate costs a handful of branch-free bigint boolean operations,
and the engine needs nothing beyond CPython.  :func:`get_kernel` returns
the one instance.

Memo
----
:meth:`BigintKernel.simulate` keeps the graph's last stimulus
``(tuple(pi_values), mask)`` and its outputs in the ``"simulate"`` slot
of the graph's ``_derived`` memo, which any mutation and pickling drop.
A repeated request (a table row verifies nine programs against one
source graph with one seeded stimulus) returns a copy without running
the engine.  A chunked exhaustive sweep misses on every chunk.
Exhaustive equivalence (:func:`repro.mig.simulate.equivalent`) keeps a
second slot, ``"exhaustive"``, holding the graph's whole output table.
"""

from __future__ import annotations

from typing import List, Sequence

from .graph import Mig


def resolve_sim_threads() -> int:
    """Simulation threads per call: always 1 (the calling thread).

    Kept for callers that record it as run provenance.
    """
    return 1


def _bigint_simulate(mig: Mig, pi_values: Sequence[int], mask: int) -> List[int]:
    """One Python-int word per node.

    The complement XOR masks from the flat gate records are ``0`` or
    ``-1``; ``xor & mask`` widens them to the pattern window, so the
    inner loop is branch-free.
    """
    values = [0] * mig.num_nodes
    for node, word in zip(mig.pis(), pi_values):
        values[node] = word & mask
    for node, na, xa, nb, xb, nc, xc in mig.flat_gates():
        a = values[na] ^ (xa & mask)
        b = values[nb] ^ (xb & mask)
        c = values[nc] ^ (xc & mask)
        # <a b c> = (a & b) | ((a | b) & c): 4 ops instead of the
        # textbook 5-op (a&b)|(a&c)|(b&c).
        values[node] = (a & b) | ((a | b) & c)
    outputs = []
    for s in mig.pos():
        word = values[s >> 1]
        if s & 1:
            word ^= mask
        outputs.append(word & mask)
    return outputs


class BigintKernel:
    """Pure-Python engine over arbitrary-precision integer words."""

    name = "bigint"

    def simulate(
        self, mig: Mig, pi_values: Sequence[int], mask: int
    ) -> List[int]:
        """*mig*'s outputs on *pi_values*, or a copy of its last outputs
        when the stimulus repeats (see "Memo" above)."""
        key = (tuple(pi_values), mask)
        entry = mig._derived.get("simulate")
        if entry is not None and entry[0] == key:
            return list(entry[1])
        outputs = _bigint_simulate(mig, pi_values, mask)
        mig._derived["simulate"] = (key, tuple(outputs))
        return outputs


class NumpyKernel:
    # A name only: ``perfbench/layers.py`` lists it among the classes
    # whose own ``simulate``/``exhaustive_window`` it traces, and it
    # defines neither.
    pass


NumpyBatchKernel = NumpyKernel

_BIGINT = BigintKernel()


def get_kernel() -> BigintKernel:
    """The simulation kernel."""
    return _BIGINT
