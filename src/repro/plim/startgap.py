"""Start-Gap: runtime wear levelling, the alternative the paper cites.

The paper's introduction points at write-balancing schemes developed for
PCM main memories — most prominently Start-Gap [Qureshi et al.,
MICRO'09] — as the existing answer to limited write endurance.  Those
schemes act at *runtime* by periodically rotating the logical-to-physical
address mapping, so a logically hot line physically wanders across the
array.  The paper instead balances writes at *compile time*.

This module implements Start-Gap over the PLiM RRAM array so the two
approaches (and their combination) can be compared quantitatively — see
``benchmarks/test_ablation_startgap.py`` and EXPERIMENTS.md.

Mechanics (faithful to the original scheme):

* the physical array has one spare cell, the *gap*;
* every ``gap_interval`` writes, the gap moves one position: the
  neighbouring line's content is copied into the current gap (one extra
  write of wear), and the neighbour becomes the new gap;
* after ``num_cells + 1`` gap movements every logical line has shifted
  by one physical position (``start`` increments), so sustained traffic
  visits all physical cells.

The writes-per-rotation interval — and the rotation *scope* — are
properties of the machine, not of this module: pass an
:class:`repro.arch.Architecture` (or use
:meth:`StartGapArray.for_architecture`) and the interval comes from its
:class:`~repro.arch.Geometry` instead of the historic hard-coded
default; the machine's physical endurance budget is armed with
``for_architecture(..., wear_out=True)``.

On a word-addressed machine (``Geometry.block_size`` set, e.g. the
``blocked`` architecture) rotation is **per word line**: every line gets
its own spare cell and its own gap, each line rotates independently
every ``gap_interval`` writes *into that line*, and a logical value
never leaves its line — the original scheme's region-restricted variant,
matching hardware where the row decoder makes intra-line moves cheap
but cross-line moves would cost a full read-modify-write of two lines.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .controller import PlimController
from .isa import Program
from .memory import RramArray

#: Historic default rotation interval (Qureshi et al., MICRO'09).
DEFAULT_GAP_INTERVAL = 100


class _BlockRotor:
    """Start-Gap state of one rotation region (a word line, or the
    whole array on a crossbar): the gap's physical position, the write
    countdown, and completed revolutions."""

    __slots__ = ("base", "size", "gap", "writes_since_move", "revolutions")

    def __init__(self, base: int, size: int) -> None:
        self.base = base          # first physical cell of the region
        self.size = size          # logical cells in the region
        self.gap = base + size    # spare starts at the region's end
        self.writes_since_move = 0
        self.revolutions = 0


class StartGapArray:
    """A logical RRAM array with Start-Gap address rotation.

    Presents the same ``read``/``write``/``preload`` interface as
    :class:`~repro.plim.memory.RramArray` so the PLiM controller can run
    on it unmodified, while the physical array underneath has one spare
    cell per rotation region and a rotating gap in each.

    A crossbar (``block_size=None``, the default) is one region spanning
    the whole array — the original scheme, one spare cell total.  A
    word-addressed machine (*block_size* set explicitly or, via *arch*,
    from the geometry of e.g. the ``blocked`` architecture) rotates each
    word line independently: one spare per line, and a line's gap moves
    every *gap_interval* writes into that line.

    *gap_interval* defaults to the target machine model's
    :attr:`~repro.arch.Geometry.gap_interval` when *arch* is given,
    else to the historic 100.  *endurance* stays explicit (``None`` =
    no wear-out); :meth:`for_architecture` with ``wear_out=True`` arms
    the machine's physical budget.
    """

    def __init__(
        self,
        num_cells: int,
        gap_interval: Optional[int] = None,
        endurance: Optional[int] = None,
        *,
        arch=None,
        block_size: Optional[int] = None,
    ) -> None:
        if gap_interval is None:
            gap_interval = (
                arch.geometry.gap_interval
                if arch is not None
                else DEFAULT_GAP_INTERVAL
            )
        if gap_interval < 1:
            raise ValueError("gap interval must be positive")
        if block_size is None and arch is not None:
            block_size = arch.geometry.block_size
        if block_size is not None and block_size < 1:
            raise ValueError("block size must be positive")
        self.num_logical = num_cells
        self.gap_interval = gap_interval
        self.block_size = block_size
        # Rotation regions: the whole array, or one per word line (the
        # last line may be partial).  Physical layout is the regions
        # back to back, each with its spare appended.
        region = block_size if block_size is not None else max(num_cells, 1)
        self._rotors: List[_BlockRotor] = []
        base = 0
        for start in range(0, max(num_cells, 1), region):
            size = min(region, num_cells - start) if num_cells else 0
            self._rotors.append(_BlockRotor(base, size))
            base += size + 1
        self.physical = RramArray(base, endurance=endurance)
        # Explicit permutation (and inverse) between logical lines and
        # physical cells; -1 marks the gaps in the inverse map.
        self._log_to_phys: List[int] = []
        self._phys_to_log: List[int] = [-1] * base
        for index, rotor in enumerate(self._rotors):
            for offset in range(rotor.size):
                logical = index * region + offset
                physical = rotor.base + offset
                self._log_to_phys.append(physical)
                self._phys_to_log[physical] = logical

    @classmethod
    def for_architecture(
        cls, arch, num_cells: int, *, wear_out: bool = False
    ) -> "StartGapArray":
        """A Start-Gap array with *arch*'s rotation interval and scope
        (per word line on word-addressed geometries); ``wear_out=True``
        arms the machine's physical endurance budget."""
        return cls(
            num_cells,
            endurance=arch.endurance.cell_endurance if wear_out else None,
            arch=arch,
        )

    # -- rotation state ----------------------------------------------------

    @property
    def num_regions(self) -> int:
        """Independent rotation regions (1 on a crossbar)."""
        return len(self._rotors)

    @property
    def gap(self) -> int:
        """Physical index of the gap (single-region arrays only)."""
        if len(self._rotors) != 1:
            raise AttributeError(
                "a word-addressed array has one gap per line; use gaps()"
            )
        return self._rotors[0].gap

    def gaps(self) -> List[int]:
        """Physical gap index of every rotation region."""
        return [rotor.gap for rotor in self._rotors]

    @property
    def revolutions(self) -> int:
        """Completed full gap revolutions (the slowest region's count —
        the original scheme's ``start`` register)."""
        return min(rotor.revolutions for rotor in self._rotors)

    def region_revolutions(self) -> List[int]:
        """Completed revolutions per rotation region."""
        return [rotor.revolutions for rotor in self._rotors]

    # -- address translation ---------------------------------------------

    def physical_address(self, logical: int) -> int:
        """Current physical cell of a logical address."""
        if not 0 <= logical < self.num_logical:
            raise IndexError(f"logical address {logical} out of range")
        return self._log_to_phys[logical]

    # -- RramArray-compatible interface ------------------------------------

    @property
    def num_cells(self) -> int:
        return self.num_logical

    @property
    def values(self) -> "_LogicalValues":
        return _LogicalValues(self)

    def read(self, logical: int) -> int:
        return self.physical.read(self.physical_address(logical))

    def preload(self, logical: int, value: int) -> None:
        self.physical.preload(self.physical_address(logical), value)

    def write(self, logical: int, value: int) -> None:
        self.physical.write(self.physical_address(logical), value)
        rotor = self._rotors[
            0 if self.block_size is None else logical // self.block_size
        ]
        rotor.writes_since_move += 1
        if rotor.writes_since_move >= self.gap_interval:
            rotor.writes_since_move = 0
            self._move_gap(rotor)

    def _move_gap(self, rotor: _BlockRotor) -> None:
        """Move one region's gap one position (copying the displaced
        line; the copy costs one real write of wear on the old gap)."""
        total = rotor.size + 1
        source = rotor.base + (rotor.gap - rotor.base - 1) % total
        self.physical.write(rotor.gap, self.physical.read(source))
        line = self._phys_to_log[source]
        self._log_to_phys[line] = rotor.gap
        self._phys_to_log[rotor.gap] = line
        self._phys_to_log[source] = -1
        rotor.gap = source
        if rotor.gap == rotor.base + rotor.size:
            rotor.revolutions += 1

    # -- wear reporting ----------------------------------------------------

    def write_counts(self) -> List[int]:
        """Physical per-cell write counts (including gap-copy wear)."""
        return list(self.physical.writes)

    def max_writes(self) -> int:
        return self.physical.max_writes()


class _LogicalValues:
    """Sequence view translating logical indices on the fly.

    Lets the unmodified controller index ``array.values[addr]``.
    """

    def __init__(self, array: StartGapArray) -> None:
        self._array = array

    def __getitem__(self, logical: int) -> int:
        return self._array.read(logical)

    def __len__(self) -> int:
        return self._array.num_logical


def run_with_start_gap(
    program: Program,
    pi_values: Sequence[int],
    executions: int,
    gap_interval: Optional[int] = None,
    mask: int = 1,
    *,
    arch=None,
) -> StartGapArray:
    """Execute *program* repeatedly on a Start-Gap array; returns the
    array so callers can inspect physical wear.

    This is the runtime-only balancing baseline: the compiled write
    pattern stays as unbalanced as the compiler left it, but rotation
    spreads it over physical cells across executions.  The rotation
    interval follows *gap_interval* > *arch* geometry > the historic
    default of 100; on a word-addressed *arch* (e.g. ``blocked``) the
    rotation is per word line, exactly as :class:`StartGapArray`
    documents.
    """
    array = StartGapArray(program.num_cells, gap_interval=gap_interval, arch=arch)
    controller = PlimController(array)  # duck-typed array interface
    for _ in range(executions):
        controller.run(program, pi_values, mask=mask)
    return array
