"""The PLiM instruction set: RM3 and nothing else.

The PLiM computer [Gaillardon et al., DATE'16] executes a single native
instruction on its resistive memory array:

``RM3(P, Q, Z):   Z <- MAJ(P, NOT Q, Z)``

where ``P`` and ``Q`` are read operands (memory cells or the constants
0/1 applied directly on the bit lines) and ``Z`` is a memory cell that is
*always written*.  Every other primitive the compiler needs is an RM3
special case — and therefore counts toward both the instruction total
(``#I``) and the destination cell's write count:

=================  =====================  =============================
operation          encoding               effect
=================  =====================  =============================
write 0            ``RM3(0, 1, Z)``       ``Z <- MAJ(0, 0, Z) = 0``
write 1            ``RM3(1, 0, Z)``       ``Z <- MAJ(1, 1, Z) = 1``
copy   ``x -> Z``  ``Z <- 0``; ``RM3(x, 0, Z)``   ``Z <- MAJ(x, 1, 0) = x``
invert ``x -> Z``  ``Z <- 1``; ``RM3(0, x, Z)``   ``Z <- MAJ(0, ~x, 1) = ~x``
majority node      ``RM3(A, B, Z)``       ``Z <- MAJ(A, ~B, Z)``
=================  =====================  =============================

Operands are encoded as plain integers for compactness: a non-negative
value is a cell address, :data:`OP_CONST0`/:data:`OP_CONST1` are the two
constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

#: Operand encoding for the constant 0 applied directly to a bit line.
OP_CONST0 = -1

#: Operand encoding for the constant 1 applied directly to a bit line.
OP_CONST1 = -2


def const_operand(value: int) -> int:
    """Operand encoding of a Boolean constant."""
    return OP_CONST1 if value else OP_CONST0


def operand_is_const(op: int) -> bool:
    """Return ``True`` when *op* encodes a constant rather than a cell."""
    return op < 0


def operand_const_value(op: int) -> int:
    """Boolean value of a constant operand."""
    if op == OP_CONST0:
        return 0
    if op == OP_CONST1:
        return 1
    raise ValueError(f"operand {op} is not a constant")


#: One RM3 instruction: ``(P, Q, Z)`` with Z always a cell address.
Rm3 = Tuple[int, int, int]


@dataclass
class Program:
    """A compiled PLiM program: a linear sequence of RM3 instructions.

    Attributes
    ----------
    instructions:
        ``(P, Q, Z)`` triples executed in order.
    num_cells:
        Number of RRAM devices the program touches (``#R`` in the paper's
        tables); includes the cells pre-loaded with primary inputs.
    pi_cells:
        Cell address holding each primary input at program start.  These
        pre-loads model input data already resident in memory and do *not*
        count as writes (consistent with the ``min = 0`` entries of the
        paper's Table I).
    po_cells:
        Cell address holding each primary output when the program halts.
    name:
        Name of the source function (benchmark), for reports.
    """

    instructions: List[Rm3] = field(default_factory=list)
    num_cells: int = 0
    pi_cells: List[int] = field(default_factory=list)
    po_cells: List[int] = field(default_factory=list)
    name: str = ""

    def __len__(self) -> int:
        return len(self.instructions)

    @property
    def num_instructions(self) -> int:
        """``#I`` — the paper's latency proxy."""
        return len(self.instructions)

    @property
    def num_rrams(self) -> int:
        """``#R`` — the paper's area proxy."""
        return self.num_cells

    def write_counts(self) -> List[int]:
        """Static per-cell write counts (one per RM3 targeting the cell).

        This is the distribution whose standard deviation the paper
        reports; PI pre-loads are excluded by construction (they are not
        instructions).  After :meth:`memoize_write_counts` it is a copy
        of the count made there.
        """
        counts = self.__dict__.get("_write_counts")
        if counts is not None:
            return list(counts)
        counts = [0] * self.num_cells
        for _, _, z in self.instructions:
            counts[z] += 1
        return counts

    def memoize_write_counts(self) -> None:
        """Count the writes once for every later :meth:`write_counts`,
        sealing the program.

        For programs that are no longer changed: the compiler calls it
        on every program it emits (compiled programs are shared by its
        memo and the experiment caches).  The count is not a dataclass
        field, so equality and ``repr`` ignore it.  A sealed program
        also keeps its rendered listing (:meth:`listing`).
        """
        self.__dict__.pop("_write_counts", None)
        self.__dict__.pop("_listing", None)
        self._write_counts = self.write_counts()

    def listing(self, render: Callable[["Program"], str]) -> str:
        """``render(self)``, kept once :meth:`memoize_write_counts` has
        sealed the program (an unsealed one may still change).  It is
        never pickled: stored bytes do not depend on a render."""
        text = self.__dict__.get("_listing")
        if text is None:
            text = render(self)
            if "_write_counts" in self.__dict__:
                self._listing = text
        return text

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_listing", None)
        return state

    def value_lifetimes(self) -> List[List[Tuple[int, int]]]:
        """Per-cell value lifetimes: ``(written_at, last_read_at)`` spans.

        A span opens when an instruction writes the cell and closes at the
        last instruction that reads it before the next overwrite (or at
        the end of the program for output cells).  Long spans are the
        "blocked RRAM" phenomenon of the paper's Fig. 2: a device that
        holds one value across many instructions cannot be reused, and its
        neighbours absorb the traffic.
        """
        spans: List[List[Tuple[int, int]]] = [[] for _ in range(self.num_cells)]
        open_at: List[Optional[int]] = [None] * self.num_cells
        last_read: List[Optional[int]] = [None] * self.num_cells
        for idx, (p, q, z) in enumerate(self.instructions):
            for op in (p, q):
                if op >= 0:
                    last_read[op] = idx
            # RM3 reads Z's old value as it writes it.
            if open_at[z] is not None:
                spans[z].append((open_at[z], idx))
            open_at[z] = idx
            last_read[z] = idx
        end = len(self.instructions)
        for cell in range(self.num_cells):
            if open_at[cell] is not None:
                close = end if cell in self.po_cells else (
                    last_read[cell] if last_read[cell] is not None else open_at[cell]
                )
                spans[cell].append((open_at[cell], close))
        return spans

    def validate(self) -> None:
        """Sanity-check addresses; raises :class:`ValueError` on corruption."""
        n = self.num_cells
        for idx, (p, q, z) in enumerate(self.instructions):
            if not (0 <= z < n and OP_CONST1 <= p < n and OP_CONST1 <= q < n):
                if not 0 <= z < n:
                    raise ValueError(f"instruction {idx}: bad destination {z}")
                bad = p if not OP_CONST1 <= p < n else q
                raise ValueError(f"instruction {idx}: bad operand {bad}")
        for addr in list(self.pi_cells) + list(self.po_cells):
            if addr < 0 or addr >= n:
                raise ValueError(f"interface cell {addr} out of range")
