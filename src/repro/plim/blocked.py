"""Per-block device allocation for word-addressed RRAM arrays.

The crossbar allocator (:class:`~repro.plim.allocator.RramAllocator`)
assumes every device is individually addressable and provisioned one at
a time.  Real RRAM macros are usually *word-addressed*: devices come in
word lines of ``block_size`` cells, capacity is manufactured a whole
line at a time, and peripheral circuitry makes accesses within the open
line cheap — the same row locality Start-Gap style wear levelling
exploits at runtime.

:class:`BlockedAllocator` models that machine for the compiler
(selected via the ``blocked`` architecture, see
:mod:`repro.arch.registry`):

* **block-granular provisioning** — :attr:`num_cells` (the ``#R`` the
  tables report) rounds up to whole word lines; a program that touches
  nine values on an 8-cell-word machine occupies two lines, sixteen
  devices;
* **block-first free-pool search** — under ``naive`` the free pool is
  searched in block-recency order (the open line first), LIFO within a
  line; under ``min_write`` the least-*worn* line is searched first
  (line wear = its hottest cell — word-line stress is bounded by the
  worst device), least-written cell within it;
* the write-cap **retirement** semantics match the crossbar allocator
  cell for cell, so the maximum write count strategy runs unchanged.

The external contract (``new_cell`` / ``request`` / ``release`` /
``record_write`` / ``writable`` / ``headroom`` / ``writes`` /
``strategy`` / ``retired``) is exactly the crossbar allocator's, so the
compiler consumes either through the same code path.  Its translation
loop uses ``writes``, ``w_max``, ``request``, ``release`` and
``new_cell`` (charging each emitted write to ``writes`` itself);
``record_write`` and ``writable`` stay for other callers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from .allocator import (
    CapacityExceededError,
    MIN_WRITE_CAP,
    STRATEGIES,
)


class BlockedAllocator:
    """Device allocation over word lines of ``block_size`` cells."""

    def __init__(
        self,
        block_size: int,
        strategy: str = "naive",
        w_max: Optional[int] = None,
        *,
        capacity: Optional[int] = None,
    ) -> None:
        if block_size < 1:
            raise ValueError("block size must be positive")
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown allocation strategy {strategy!r}; "
                f"expected one of {STRATEGIES}"
            )
        if w_max is not None and w_max < MIN_WRITE_CAP:
            raise ValueError(
                f"w_max must be at least {MIN_WRITE_CAP}, got {w_max}"
            )
        if capacity is not None and (
            capacity < block_size or capacity % block_size
        ):
            raise ValueError(
                "a word-addressed array's capacity must be a whole number "
                f"of {block_size}-cell lines, got {capacity}"
            )
        self.block_size = block_size
        self.strategy = strategy
        self.w_max = w_max
        self.capacity = capacity
        self.writes: List[int] = []
        #: Per-block LIFO free stacks (blocks keyed by index).
        self._free_stacks: Dict[int, List[int]] = {}
        self._free_set: Set[int] = set()
        #: Block indices, most recently *released-into* first — the
        #: "open line" preference of the naive search.
        self._recency: List[int] = []
        self.retired: Set[int] = set()

    # -- geometry ---------------------------------------------------------

    def _block_of(self, addr: int) -> int:
        return addr // self.block_size

    @property
    def num_blocks(self) -> int:
        """Word lines provisioned so far."""
        return -(-len(self.writes) // self.block_size)

    @property
    def num_cells(self) -> int:
        """Devices provisioned (the paper's ``#R``), whole lines only."""
        return self.num_blocks * self.block_size

    # -- device creation and request -------------------------------------

    def new_cell(self) -> int:
        """Allocate the next unused device (bypasses the free pool)."""
        addr = len(self.writes)
        if self.capacity is not None and addr >= self.capacity:
            raise CapacityExceededError(
                f"word-addressed array is full: capacity {self.capacity} "
                f"cells ({self.capacity // self.block_size} lines)"
            )
        self.writes.append(0)
        return addr

    def _fits(self, addr: int, headroom: int) -> bool:
        return (
            self.w_max is None or self.writes[addr] + headroom <= self.w_max
        )

    def _block_wear(self, block: int) -> int:
        """Line wear: the hottest cell of the word line."""
        start = block * self.block_size
        stop = min(start + self.block_size, len(self.writes))
        return max(self.writes[start:stop], default=0)

    def request(self, headroom: int = 1) -> int:
        """A free device with *headroom* writes left, else a fresh one.

        ``naive`` searches lines most-recently-released first and LIFO
        within the line; ``min_write`` searches the least-worn line
        first (ties to the lower index) and takes its least-written
        fitting cell.  Devices without headroom stay pooled for smaller
        requests, exactly like the crossbar allocator.
        """
        if self.strategy == "min_write":
            found = self._request_min_write(headroom)
        else:
            found = self._request_naive(headroom)
        if found is not None:
            return found
        return self.new_cell()

    def _request_naive(self, headroom: int) -> Optional[int]:
        for block in self._recency:
            stack = self._free_stacks.get(block)
            if not stack:
                continue
            skipped: List[int] = []
            found = None
            while stack:
                addr = stack.pop()
                if addr not in self._free_set:
                    continue  # stale entry from an earlier free period
                if not self._fits(addr, headroom):
                    skipped.append(addr)
                    continue
                self._free_set.discard(addr)
                found = addr
                break
            for addr in reversed(skipped):
                stack.append(addr)
            if found is not None:
                return found
        return None

    def _request_min_write(self, headroom: int) -> Optional[int]:
        candidates = [
            block
            for block, stack in self._free_stacks.items()
            if any(a in self._free_set for a in stack)
        ]
        for block in sorted(
            candidates, key=lambda b: (self._block_wear(b), b)
        ):
            fitting = [
                a
                for a in self._free_stacks[block]
                if a in self._free_set and self._fits(a, headroom)
            ]
            if not fitting:
                continue
            addr = min(fitting, key=lambda a: (self.writes[a], a))
            self._free_set.discard(addr)
            self._free_stacks[block] = [
                a for a in self._free_stacks[block] if a != addr
            ]
            return addr
        return None

    def release(self, addr: int) -> None:
        """Return *addr* to its line's pool (or retire it at the cap)."""
        if addr in self._free_set:
            raise ValueError(f"double release of cell {addr}")
        if self.w_max is not None and self.writes[addr] >= self.w_max:
            self.retired.add(addr)
            return
        block = self._block_of(addr)
        self._free_set.add(addr)
        self._free_stacks.setdefault(block, []).append(addr)
        # Move the line to the front of the recency order (open line).
        if self._recency and self._recency[0] == block:
            pass
        else:
            try:
                self._recency.remove(block)
            except ValueError:
                pass
            self._recency.insert(0, block)

    # -- write accounting -------------------------------------------------

    def record_write(self, addr: int) -> None:
        """Charge one compile-time write to *addr*."""
        self.writes[addr] += 1

    def writable(self, addr: int) -> bool:
        """May the compiler still target *addr* with an RM3?"""
        return self.w_max is None or self.writes[addr] < self.w_max

    def headroom(self, addr: int) -> Optional[int]:
        """Writes left before *addr* hits the cap (``None`` = unbounded)."""
        if self.w_max is None:
            return None
        return max(0, self.w_max - self.writes[addr])
