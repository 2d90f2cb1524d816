"""Behavioural model of a resistive (RRAM) memory array.

The array stores one Boolean value per cell — bit-parallel: each "value" is
a Python integer whose bit *i* belongs to simulation pattern *i* — and
tracks a write counter per cell.  An optional endurance budget models the
physical wear-out that motivates the paper: RRAM cells endure on the order
of ``1e10``–``1e11`` writes, after which they hard-fail.  Executing a
program on an array whose budget is exhausted raises
:class:`EnduranceExhaustedError`, and :func:`estimate_lifetime` converts a
compiled program's write profile into the number of times it can run before
the first cell dies — the lifetime metric the endurance-management
techniques are designed to maximise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

#: Endurance of the best published RRAM cells cited by the paper
#: (Lee et al., IEDM'10: ~1e10; Kim et al., VLSI'11: ~1e11).
TYPICAL_ENDURANCE_LOW = 10**10
TYPICAL_ENDURANCE_HIGH = 10**11


class EnduranceExhaustedError(RuntimeError):
    """A cell was written past its endurance budget."""

    def __init__(self, cell: int, writes: int, endurance: int) -> None:
        super().__init__(
            f"cell {cell} exceeded its endurance budget "
            f"({writes} writes > {endurance})"
        )
        self.cell = cell
        self.writes = writes
        self.endurance = endurance


class RramArray:
    """A crossbar of bipolar resistive switches with write counting.

    Parameters
    ----------
    num_cells:
        Array capacity.
    endurance:
        Optional per-cell write budget; ``None`` disables wear-out.
    """

    def __init__(self, num_cells: int, endurance: Optional[int] = None) -> None:
        if num_cells < 0:
            raise ValueError("array size must be non-negative")
        self.num_cells = num_cells
        self.endurance = endurance
        self.values: List[int] = [0] * num_cells
        self.writes: List[int] = [0] * num_cells

    # -- data path -----------------------------------------------------

    def read(self, cell: int) -> int:
        """Current (bit-parallel) value of *cell*."""
        return self.values[cell]

    def write(self, cell: int, value: int) -> None:
        """Write *value* into *cell*, charging one write cycle.

        Write counting is per *operation*, not per changed bit: the PLiM
        controller pulses the cell on every RM3 regardless of whether the
        stored state flips, which is also how the paper counts writes.
        """
        self.writes[cell] += 1
        if self.endurance is not None and self.writes[cell] > self.endurance:
            raise EnduranceExhaustedError(
                cell, self.writes[cell], self.endurance
            )
        self.values[cell] = value

    def preload(self, cell: int, value: int) -> None:
        """Deposit input data without charging a write cycle.

        Models operands already resident in memory when the computation
        starts (the paper does not bill input loading to the program).
        """
        self.values[cell] = value

    # -- wear bookkeeping ------------------------------------------------

    def max_writes(self) -> int:
        """Highest write count over the array."""
        return max(self.writes, default=0)

    def total_writes(self) -> int:
        """Sum of all write counters."""
        return sum(self.writes)


@dataclass(frozen=True)
class LifetimeEstimate:
    """How long an array survives running one program repeatedly."""

    #: Program executions until the most-written cell exhausts its budget.
    executions: int
    #: Index of the first cell to fail.
    first_failing_cell: int
    #: Writes that cell takes per execution.
    writes_per_execution: int


def estimate_lifetime(
    write_counts: Sequence[int],
    endurance: Optional[int] = None,
    *,
    arch=None,
) -> LifetimeEstimate:
    """Lifetime of an array executing a program with *write_counts* forever.

    The array dies when its most-written cell exceeds *endurance*; with a
    static per-execution profile that is simply
    ``endurance // max(write_counts)`` runs.  Balancing writes (reducing the
    max) therefore directly multiplies the usable lifetime — the paper's
    core argument.

    The budget comes from, in order: an explicit *endurance*, the target
    machine model's :attr:`~repro.arch.EnduranceModel.cell_endurance`
    (pass *arch*), or the paper's cited low-end figure.
    """
    if endurance is None:
        endurance = (
            arch.endurance.cell_endurance
            if arch is not None
            else TYPICAL_ENDURANCE_LOW
        )
    peak = max(write_counts, default=0)
    if peak == 0:
        return LifetimeEstimate(
            executions=endurance, first_failing_cell=-1, writes_per_execution=0
        )
    cell = max(range(len(write_counts)), key=write_counts.__getitem__)
    return LifetimeEstimate(
        executions=endurance // peak,
        first_failing_cell=cell,
        writes_per_execution=peak,
    )
