"""Allocation-policy descriptions for endurance management.

The mechanics live in :class:`repro.plim.allocator.RramAllocator`, one
allocator for every array geometry (a crossbar is its one-cell word
lines); this module names and documents the policies the paper proposes
and provides small value objects the configuration layer
(:mod:`repro.core.manager`) and the ablation benchmarks compose.

Policies are *requests*: whether the target machine can implement one is
decided by its :class:`repro.arch.Architecture` — e.g. the ``dac16``
machine has no wear counters, so it refuses ``min_write`` and any
``w_max`` cap with an :class:`~repro.arch.ArchitectureError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class AllocationPolicy:
    """A device-allocation policy: strategy name plus optional write cap.

    Attributes
    ----------
    strategy:
        ``"naive"``  — LIFO free list: the endurance-oblivious baseline;
        the most recently freed device is reused first, concentrating
        writes.
        ``"min_write"`` — the paper's **minimum write count strategy**:
        every request returns the free device with the smallest write
        count.  Affects only the write distribution, never ``#I``/``#R``.
    w_max:
        The paper's **maximum write count strategy**: devices reaching
        this many writes are retired from the pool and refused as RM3
        destinations.  ``None`` disables the cap.  Tightening the cap
        trades instructions and devices for near-uniform write traffic
        (the paper's Table III sweeps 10/20/50/100).
    """

    strategy: str = "naive"
    w_max: Optional[int] = None

    def __post_init__(self) -> None:
        if self.strategy not in ("naive", "min_write"):
            raise ValueError(f"unknown allocation strategy {self.strategy!r}")
        if self.w_max is not None and self.w_max < 3:
            raise ValueError("w_max below 3 cannot host a copy destination")

    @property
    def label(self) -> str:
        """Short human-readable policy name for table headers."""
        cap = f", w_max={self.w_max}" if self.w_max is not None else ""
        return f"{self.strategy}{cap}"


#: The endurance-oblivious baseline (DAC'16 compiler behaviour).
NAIVE_ALLOCATION = AllocationPolicy("naive", None)

#: Minimum write count strategy (Section III-B, technique 1).
MIN_WRITE_ALLOCATION = AllocationPolicy("min_write", None)


def capped_allocation(w_max: int) -> AllocationPolicy:
    """Minimum + maximum write count strategies combined
    (Section III-B, techniques 1-2; swept in Table III)."""
    return AllocationPolicy("min_write", w_max)
