"""RRAM device allocation for the PLiM compiler.

The compiler requests devices for intermediate values, helper cells, and
outputs, and releases them when their last reader has executed.  Which
*free* device a request returns is exactly where two of the paper's
endurance-management techniques live:

* **minimum write count strategy** — return the least-written free
  device (``strategy="min_write"``).  Pure policy: it can change neither
  the instruction count nor the device count, only the write
  *distribution* (asserted in the test suite, and stated explicitly in
  Section IV of the paper);
* **maximum write count strategy** — devices whose write count reaches
  ``w_max`` are *retired*: they leave the free pool and are refused as RM3
  destinations, forcing the compiler to allocate fresh or less-worn
  devices at the cost of extra instructions/RRAMs (``w_max`` knob).

The default ``strategy="naive"`` is a LIFO free list, which models the
endurance-oblivious compiler: the most recently freed device is the next
destination, concentrating writes on few cells.

One allocator serves every array geometry: devices come in word lines of
``block_size`` cells, and a crossbar is the case of one-cell lines.
Word-addressed RRAM macros provision capacity a whole line at a time
(:attr:`RramAllocator.num_cells`, the ``#R`` the tables report, rounds up
to whole lines) and make accesses within the open line cheap, so the free
pool is searched line-first: under ``naive`` the line most recently
released into, LIFO within it; under ``min_write`` the least-*worn* line
(line wear = its hottest cell, since word-line stress is bounded by the
worst device), least-written fitting cell within it.  Which block size,
capacity and write cap a compilation uses is decided by the target
machine model — see :mod:`repro.arch`.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import List, Optional, Set, Tuple

#: Allocation strategies understood by :class:`RramAllocator`.
STRATEGIES = ("naive", "min_write")

#: Smallest usable write cap: a copy destination takes 2 writes
#: (initialisation + RM3) and must still be writable afterwards.
MIN_WRITE_CAP = 3


class CapacityExceededError(RuntimeError):
    """The target architecture's array cannot hold another device."""


class RramAllocator:
    """Tracks devices, their compile-time write counts, and the free pool.

    The compiler charges writes to the devices it holds by incrementing
    :attr:`writes` directly; a device's count never changes while it is
    pooled.
    """

    def __init__(
        self,
        strategy: str = "naive",
        w_max: Optional[int] = None,
        *,
        capacity: Optional[int] = None,
        block_size: int = 1,
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
        if capacity is not None and capacity % block_size:
            raise ValueError(
                "a word-addressed array's capacity must be a whole number "
                f"of {block_size}-cell lines, got {capacity}"
            )
        self.strategy = strategy
        self.w_max = w_max
        self.capacity = capacity
        self.block_size = block_size
        self.writes: List[int] = []
        self.retired: Set[int] = set()
        self._free_set: Set[int] = set()
        #: ``naive``: the free cells, top last, grouped by line with the
        #: lines in release recency and each line's cells LIFO.
        self._stack: List[int] = []
        #: ``min_write``: one ``(line wear, line, writes, addr)`` entry per
        #: free cell.  The line wear is a lower bound (held cells of the
        #: line may have been written since) revalidated when it surfaces.
        self._heap: List[Tuple[int, int, int, int]] = []

    # -- geometry ---------------------------------------------------------

    @property
    def num_blocks(self) -> int:
        """Word lines provisioned so far."""
        return -(-len(self.writes) // self.block_size)

    @property
    def num_cells(self) -> int:
        """Devices provisioned (the paper's ``#R``), whole lines only."""
        return self.num_blocks * self.block_size

    def _line_wear(self, line: int) -> int:
        """The hottest allocated cell of word line *line*."""
        start = line * self.block_size
        return max(self.writes[start:start + self.block_size])

    # -- device creation and request -------------------------------------

    def new_cell(self) -> int:
        """Allocate the next unused device (bypasses the free pool).

        Raises :class:`CapacityExceededError` when the architecture's
        array is bounded and full (``capacity=None`` is unbounded, the
        paper's assumption).
        """
        addr = len(self.writes)
        if self.capacity is not None and addr >= self.capacity:
            raise CapacityExceededError(
                f"array is full: capacity {self.capacity} devices"
            )
        self.writes.append(0)
        return addr

    def request(self, headroom: int = 1) -> int:
        """Return a device that can absorb *headroom* more writes.

        A free device if one fits, else a new one.  ``naive`` takes the
        last-freed fitting cell of the most recently released-into line
        that has one; ``min_write`` the least-written fitting cell (ties
        to the lower address) of the first line by ``(wear, line)`` that
        has one.  *headroom* matters under the write cap: a copy
        destination takes two initialisation writes plus the final RM3,
        and handing it a device one write below the cap would overshoot.
        Devices with insufficient headroom stay in the pool for smaller
        requests.
        """
        limit = None if self.w_max is None else self.w_max - headroom
        writes = self.writes
        found = None
        if self.strategy == "min_write":
            heap = self._heap
            one_cell = self.block_size == 1
            skipped = []
            while heap:
                entry = wear, line, count, addr = heappop(heap)
                if count != writes[addr]:
                    continue  # written while pooled, outside the contract
                if not one_cell:  # a one-cell line's wear is ``count``
                    now = self._line_wear(line)
                    if now != wear:
                        heappush(heap, (now, line, count, addr))
                        continue
                if limit is None or count <= limit:
                    found = addr
                    break
                skipped.append(entry)
                if one_cell:
                    # Every later entry's count is at least this one's:
                    # none has the headroom either.
                    break
            for entry in skipped:
                heappush(heap, entry)
        else:
            stack = self._stack
            skipped = []
            while stack:
                addr = stack.pop()
                if limit is None or writes[addr] <= limit:
                    found = addr
                    break
                skipped.append(addr)
            stack.extend(reversed(skipped))
        if found is None:
            return self.new_cell()
        self._free_set.discard(found)
        return found

    def release(self, addr: int) -> None:
        """Return *addr* to its line's pool (or retire it at the cap)."""
        free = self._free_set
        if addr in free:
            raise ValueError(f"double release of cell {addr}")
        count = self.writes[addr]
        if self.w_max is not None and count >= self.w_max:
            self.retired.add(addr)
            return
        size = self.block_size
        line = addr // size
        if self.strategy == "min_write":
            wear = count if size == 1 else self._line_wear(line)
            heappush(self._heap, (wear, line, count, addr))
        else:
            stack = self._stack
            if size > 1 and stack and stack[-1] // size != line:
                # The line becomes the open line: its free cells move up.
                rest = [a for a in stack if a // size != line]
                if len(rest) < len(stack):
                    stack[:] = rest + [a for a in stack if a // size == line]
            stack.append(addr)
        free.add(addr)

    # -- write accounting -------------------------------------------------

    def writable(self, addr: int) -> bool:
        """May the compiler still target *addr* with an RM3?"""
        return self.w_max is None or self.writes[addr] < self.w_max

    def headroom(self, addr: int) -> Optional[int]:
        """Writes left before *addr* hits the cap (``None`` = unbounded)."""
        if self.w_max is None:
            return None
        return max(0, self.w_max - self.writes[addr])
