"""The PLiM controller: a fetch/decode/execute wrapper around the array.

Models the finite-state machine of [Gaillardon et al., DATE'16]: when the
control signal is off the array is an ordinary RAM; when on, the controller
fetches RM3 instructions, reads operands ``P`` and ``Q`` (from cells or the
constant lines), performs the resistive-majority write on ``Z``, increments
the program counter, and repeats.  Each instruction takes a fixed number of
controller cycles (fetch, two operand reads, one compute/write), so the
cycle count is an affine function of the instruction count — which is why
the paper uses ``#I`` as its latency metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from .isa import Program, operand_const_value
from .memory import RramArray

#: Controller cycles per RM3: fetch, read P, read Q, compute+write Z.
CYCLES_PER_INSTRUCTION = 4


@dataclass
class ExecutionTrace:
    """Optional per-instruction trace for debugging and the examples."""

    records: List[str] = field(default_factory=list)

    def log(self, pc: int, p: int, q: int, z: int, result: int) -> None:
        self.records.append(
            f"pc={pc:6d} RM3(p={p}, q={q}, z={z}) -> {result & 1}"
        )


class PlimController:
    """Executes PLiM programs on a :class:`~repro.plim.memory.RramArray`.

    >>> from repro.plim.isa import Program, OP_CONST1, OP_CONST0
    >>> prog = Program(instructions=[(OP_CONST1, OP_CONST0, 0)], num_cells=1)
    >>> array = RramArray(1)
    >>> ctrl = PlimController(array)
    >>> ctrl.run(prog)
    []
    >>> array.read(0)
    1
    """

    def __init__(self, array: RramArray) -> None:
        self.array = array
        self.cycles = 0
        self.instructions_executed = 0

    def run(
        self,
        program: Program,
        pi_values: Optional[Sequence[int]] = None,
        mask: int = 1,
        trace: Optional[ExecutionTrace] = None,
    ) -> List[int]:
        """Execute *program* and return the primary-output words.

        Parameters
        ----------
        pi_values:
            One (bit-parallel) word per primary input, deposited into the
            mapped cells before execution; may be omitted for programs
            without inputs.
        mask:
            All-ones mask covering the simulated pattern width.
        trace:
            Optional :class:`ExecutionTrace` collecting a readable log.

        On a plain :class:`~repro.plim.memory.RramArray` without an
        endurance budget, and without a *trace*, a (valid) program runs
        on one flat copy of the cell values whose last two slots are the
        constant lines (``OP_CONST1 = -2`` indexes *mask*, ``OP_CONST0 =
        -1`` indexes 0); the values are copied back and the program's
        static write counts charged once.  A budgeted array must raise
        at the exhausting write and a Start-Gap array remaps on every
        write, so both take one ``write`` call per instruction.
        """
        array = self.array
        if program.num_cells > array.num_cells:
            raise ValueError(
                f"program needs {program.num_cells} cells, array has "
                f"{array.num_cells}"
            )
        pi_values = list(pi_values or [])
        if len(pi_values) != len(program.pi_cells):
            raise ValueError(
                f"expected {len(program.pi_cells)} input words, got "
                f"{len(pi_values)}"
            )
        for cell, word in zip(program.pi_cells, pi_values):
            array.preload(cell, word & mask)

        if (
            type(array) is RramArray
            and array.endurance is None
            and trace is None
        ):
            values = array.values + [mask, 0]
            for p, q, z in program.instructions:
                p_val = values[p]
                nq = values[q] ^ mask
                z_val = values[z]
                result = (p_val & nq) | (p_val & z_val) | (nq & z_val)
                values[z] = result & mask
            del values[-2:]
            array.values[:] = values
            writes = array.writes
            for cell, count in enumerate(program.write_counts()):
                writes[cell] += count
        else:
            values = array.values
            for pc, (p, q, z) in enumerate(program.instructions):
                p_val = values[p] if p >= 0 else mask * operand_const_value(p)
                q_val = values[q] if q >= 0 else mask * operand_const_value(q)
                nq = q_val ^ mask
                z_val = values[z]
                result = (p_val & nq) | (p_val & z_val) | (nq & z_val)
                array.write(z, result & mask)
                if trace is not None:
                    trace.log(pc, p, q, z, result)
        self.instructions_executed += len(program.instructions)
        self.cycles += CYCLES_PER_INSTRUCTION * len(program.instructions)

        return [array.read(cell) & mask for cell in program.po_cells]


def execute(
    program: Program,
    pi_values: Optional[Sequence[int]] = None,
    mask: int = 1,
    endurance: Optional[int] = None,
) -> List[int]:
    """One-shot convenience wrapper: fresh array, run, return outputs."""
    array = RramArray(program.num_cells, endurance=endurance)
    return PlimController(array).run(program, pi_values, mask=mask)
