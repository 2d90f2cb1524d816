"""Material-implication (IMPLY) logic substrate.

Section II of the reproduced paper surveys why IMP-based in-memory
computing has intrinsically unbalanced write traffic: the IMP-based NAND
gate of [Borghetti et al., Nature 2010] rewrites only its *work* device
(three operations, all targeting the same cell), and schemes like
[Lehtonen et al., 2010] that compute any function with just two work
devices concentrate the entire computation's writes on those two cells.

This package provides the baseline the paper argues against:

* the two stateful primitives, ``FALSE(q)`` (unconditional reset) and
  ``IMP(p, q)`` (``q <- ~p OR q``, the material implication with ``q`` as
  the stateful target);
* a NAND-netlist intermediate representation plus a decomposition from
  MIGs (majority = 6 NANDs, inverter = 1 NAND);
* a scheduler/allocator (:mod:`repro.imp.synthesize`) with a configurable
  work-device pool, down to the two-device scheme;
* a simulator and write-traffic accounting compatible with
  :class:`repro.core.stats.WriteTrafficStats`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..mig.graph import Mig
from ..mig.signal import is_complemented, node_of

#: IMP instruction opcodes.
OP_FALSE = "FALSE"
OP_IMP = "IMP"


@dataclass
class ImpProgram:
    """A sequence of FALSE/IMP operations over a memristive array.

    ``instructions`` entries are ``(OP_FALSE, q)`` or ``(OP_IMP, p, q)``;
    in both cases ``q`` is written (its device takes one write pulse).
    """

    instructions: List[Tuple] = field(default_factory=list)
    num_cells: int = 0
    pi_cells: List[int] = field(default_factory=list)
    po_cells: List[int] = field(default_factory=list)
    name: str = ""

    @property
    def num_instructions(self) -> int:
        return len(self.instructions)

    def write_counts(self) -> List[int]:
        """Static per-device write counts (every op writes its target)."""
        counts = [0] * self.num_cells
        for ins in self.instructions:
            counts[ins[-1]] += 1
        return counts


@dataclass(frozen=True)
class NandGate:
    """One two-input NAND in the intermediate netlist.

    Operands are netlist *nets*: non-negative integers, with nets
    ``0 .. num_inputs-1`` reserved for the primary inputs.
    """

    a: int
    b: int


@dataclass
class NandNetlist:
    """A NAND-only netlist with designated output nets."""

    num_inputs: int
    gates: List[NandGate] = field(default_factory=list)
    outputs: List[int] = field(default_factory=list)
    name: str = ""

    def add_nand(self, a: int, b: int) -> int:
        """Append a NAND; returns the net index of its output."""
        self.gates.append(NandGate(a, b))
        return self.num_inputs + len(self.gates) - 1

    def add_not(self, a: int) -> int:
        """Inverter as a one-operand NAND."""
        return self.add_nand(a, a)

    @property
    def num_nets(self) -> int:
        return self.num_inputs + len(self.gates)

    def depth(self) -> int:
        """Logic depth in NAND levels (inputs are level 0)."""
        level = [0] * self.num_nets
        for idx, gate in enumerate(self.gates):
            level[self.num_inputs + idx] = 1 + max(level[gate.a], level[gate.b])
        return max((level[o] for o in self.outputs), default=0)

    def evaluate(self, inputs: List[int], mask: int = 1) -> List[int]:
        """Bit-parallel reference evaluation of the netlist."""
        values = list(inputs) + [0] * len(self.gates)
        for idx, gate in enumerate(self.gates):
            values[self.num_inputs + idx] = (
                ~(values[gate.a] & values[gate.b])
            ) & mask
        return [values[o] & mask for o in self.outputs]


def mig_to_nand(mig: Mig) -> NandNetlist:
    """Decompose a MIG into a NAND-only netlist.

    ``maj(a, b, c) = NAND(NOT NAND(NAND(a,b), NAND(a,c)), NAND(b,c))``
    (six NANDs); complemented edges and outputs cost one inverter-NAND.
    Constants are materialised as ``NAND(x, NOT x)`` (1) and its inverse
    (0) from the first input, or as nets derived from an input when one
    exists.
    """
    net = NandNetlist(num_inputs=mig.num_pis, name=mig.name)
    if mig.num_pis == 0:
        raise ValueError("IMP synthesis needs at least one input")

    # nets for constants, built once on demand
    const_net: Dict[int, int] = {}

    def get_const(value: int) -> int:
        if value not in const_net:
            n0 = net.add_not(0)  # ~x0
            one = net.add_nand(0, n0)  # x0 NAND ~x0 = 1
            const_net[1] = one
            const_net[0] = net.add_not(one)
        return const_net[value]

    sig_net: Dict[int, int] = {}

    def resolve(signal: int) -> int:
        if signal in sig_net:
            return sig_net[signal]
        node = node_of(signal)
        if node == 0:
            result = get_const(1 if is_complemented(signal) else 0)
        elif is_complemented(signal):
            result = net.add_not(resolve(signal ^ 1))
        else:
            raise KeyError(f"unresolved signal {signal}")
        sig_net[signal] = result
        return result

    for idx, node in enumerate(mig.pis()):
        sig_net[node * 2] = idx

    for node in mig.live_gates():
        fa, fb, fc = mig.fanins(node)
        a, b, c = resolve(fa), resolve(fb), resolve(fc)
        t1 = net.add_nand(a, b)
        t2 = net.add_nand(a, c)
        t3 = net.add_nand(b, c)
        t12 = net.add_nand(t1, t2)
        t12n = net.add_not(t12)
        sig_net[node * 2] = net.add_nand(t12n, t3)

    for s in mig.pos():
        net.outputs.append(resolve(s))
    return net
