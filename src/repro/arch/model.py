"""The PLiM *machine model*: what the compiler targets.

The reproduced paper evaluates one machine — an unbounded RRAM crossbar
executing RM3, with per-cell wear counters feeding the minimum/maximum
write count strategies.  That machine used to be hard-coded across
:mod:`repro.plim.compiler`, :mod:`repro.plim.allocator`,
:mod:`repro.plim.memory`, and :mod:`repro.plim.startgap`; this module
lifts it into an explicit, immutable :class:`Architecture` value the
compiler *consumes*, so new RRAM scenarios (different cost tables, array
geometries, endurance assumptions) are data, not compiler edits.

An architecture is four orthogonal pieces:

* :class:`CostModel` — the instruction/device overhead of each
  translation violation (Section III's cost table).  The compiler's role
  enumeration ranks assignments by these numbers, so a machine whose
  copy or invert primitives cost differently changes the chosen roles
  without any compiler change.
* :class:`Geometry` — array shape: unbounded crossbar
  (``block_size=None``), or word-addressed arrays of ``block_size``
  devices provisioned a whole block at a time; optional hard
  ``capacity``; the Start-Gap rotation interval the runtime
  wear-levelling baseline consumes.
* :class:`EnduranceModel` — what the machine's controller can observe
  and enforce: per-cell wear counters (without them the minimum write
  count strategy is unimplementable), write-cap retirement, the physical
  per-cell endurance budget used for lifetime estimates.
* the **device-request semantics** — :meth:`Architecture.make_allocator`
  builds the one :class:`~repro.plim.allocator.RramAllocator` over the
  geometry's word lines; a crossbar is the case of one-cell lines.

Architectures are registered by name (see :mod:`repro.arch.registry`)
and selected per :class:`repro.flow.Session` via ``--arch`` /
``$REPRO_ARCH``; cached artefacts are keyed by :meth:`Architecture.key`
so one experiment cache serves every machine without cross-talk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..plim.memory import TYPICAL_ENDURANCE_LOW


class ArchitectureError(ValueError):
    """A configuration asks for something the target machine cannot do."""


@dataclass(frozen=True)
class CostModel:
    """Instruction/device overhead per translation violation.

    The paper's Section III cost table: realising one majority node costs
    a single RM3 when one fanin serves as the intrinsically-inverted
    second operand ``Q`` for free and another can be overwritten as the
    destination ``Z``; each violation is repaired with helper
    instructions and (possibly) a helper device.  The numbers below are
    the repair bills the compiler's role enumeration minimises.
    """

    #: Extra instructions to invert a plain fanin into a helper ``Q``.
    q_invert_instructions: int = 2
    #: Extra instructions to initialise a requested ``Z`` with a constant.
    z_const_instructions: int = 1
    #: Extra instructions to copy/copy-invert a fanin into a fresh ``Z``.
    z_copy_instructions: int = 2
    #: Extra instructions to invert a complemented fanin for ``P``.
    p_invert_instructions: int = 2
    #: Extra devices for a ``Q`` helper inversion.
    q_invert_cells: int = 1
    #: Extra devices for a copied/constant destination.
    z_request_cells: int = 1
    #: Extra devices for a ``P`` helper inversion.
    p_invert_cells: int = 1

    def key(self) -> Tuple[int, ...]:
        return (
            self.q_invert_instructions,
            self.z_const_instructions,
            self.z_copy_instructions,
            self.p_invert_instructions,
            self.q_invert_cells,
            self.z_request_cells,
            self.p_invert_cells,
        )


@dataclass(frozen=True)
class Geometry:
    """Array shape and the wear-levelling constants tied to it."""

    #: Devices per word line.  ``None`` — unbounded crossbar, devices are
    #: individually addressable and provisioned one at a time (the
    #: allocator's one-cell lines).  An integer — word-addressed arrays:
    #: capacity is provisioned (and reported as ``#R``) a whole block at a
    #: time, and the free pool is searched block-first (see
    #: :class:`repro.plim.allocator.RramAllocator`).
    block_size: Optional[int] = None
    #: Hard device limit; allocation past it raises
    #: :class:`~repro.plim.allocator.CapacityExceededError`.  ``None``
    #: models the paper's unbounded arrays.  Word-addressed geometries
    #: require a whole number of lines.
    capacity: Optional[int] = None
    #: Writes between Start-Gap rotations (Qureshi et al. use 100).
    gap_interval: int = 100

    def key(self) -> Tuple:
        return (
            self.block_size,
            self.capacity,
            self.gap_interval,
        )


@dataclass(frozen=True)
class EnduranceModel:
    """What the machine can observe and enforce about wear."""

    #: Whether the controller exposes per-cell write counters.  Without
    #: them the minimum write count strategy has nothing to minimise —
    #: requesting it raises :class:`ArchitectureError`.
    wear_tracking: bool = True
    #: Whether the machine can retire devices at a write cap (the
    #: maximum write count strategy).  Requires wear tracking.
    supports_retirement: bool = True
    #: Physical per-cell write budget used by lifetime estimates
    #: (defaults to the best published RRAM endurance the paper cites).
    cell_endurance: int = TYPICAL_ENDURANCE_LOW

    def key(self) -> Tuple:
        return (
            self.wear_tracking,
            self.supports_retirement,
            self.cell_endurance,
        )


@dataclass(frozen=True)
class Architecture:
    """One PLiM machine model: ISA costs, geometry, endurance semantics.

    Immutable and hashable; two architectures with equal :meth:`key`
    compile any MIG to the identical program, so cached artefacts may be
    shared between them.  Instances are usually obtained from the
    registry (:func:`repro.arch.get_architecture`) rather than built by
    hand; see :mod:`repro.arch.registry` for how to register a custom
    machine.
    """

    name: str
    cost: CostModel = field(default_factory=CostModel)
    geometry: Geometry = field(default_factory=Geometry)
    endurance: EnduranceModel = field(default_factory=EnduranceModel)
    description: str = ""

    # -- identity ------------------------------------------------------

    def key(self) -> Tuple:
        """Semantic identity for cache keying (description excluded)."""
        return (
            self.name,
            self.cost.key(),
            self.geometry.key(),
            self.endurance.key(),
        )

    # -- capability checks ---------------------------------------------

    def validate_allocation(
        self, strategy: str, w_max: Optional[int]
    ) -> None:
        """Refuse allocation requests the machine cannot implement."""
        if strategy == "min_write" and not self.endurance.wear_tracking:
            raise ArchitectureError(
                f"architecture {self.name!r} has no per-cell wear counters; "
                "the minimum write count strategy needs them (pick the "
                "'endurance' architecture or strategy='naive')"
            )
        if w_max is not None:
            if not self.endurance.supports_retirement:
                raise ArchitectureError(
                    f"architecture {self.name!r} cannot retire devices; "
                    "a w_max write cap needs retirement support"
                )

    def validate_config(self, config) -> None:
        """Refuse an :class:`~repro.core.manager.EnduranceConfig` the
        machine cannot run (wrapper over :meth:`validate_allocation`)."""
        self.validate_allocation(
            config.allocation.strategy, config.allocation.w_max
        )

    def supports_config(self, config) -> bool:
        """Whether :meth:`validate_config` would accept *config*."""
        try:
            self.validate_config(config)
        except ArchitectureError:
            return False
        return True

    # -- machinery factories -------------------------------------------

    def make_allocator(self, strategy: str, w_max: Optional[int]):
        """The :class:`~repro.plim.allocator.RramAllocator` over this
        machine's word lines (one-cell lines on a crossbar).  The
        allocation request is validated against the endurance model
        first.
        """
        self.validate_allocation(strategy, w_max)
        from ..plim.allocator import RramAllocator

        return RramAllocator(
            strategy,
            w_max,
            capacity=self.geometry.capacity,
            block_size=self.geometry.block_size or 1,
        )

    def estimate_lifetime(self, write_counts):
        """Program executions until the first cell dies on this machine."""
        from ..plim.memory import estimate_lifetime

        return estimate_lifetime(
            write_counts, endurance=self.endurance.cell_endurance
        )
