"""Tests for the RRAM allocator policies (min/max write strategies)."""

import heapq
import random

import pytest

from repro.plim.allocator import MIN_WRITE_CAP, STRATEGIES, RramAllocator


class TestBasics:
    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            RramAllocator("best-fit")

    def test_low_cap_rejected(self):
        with pytest.raises(ValueError):
            RramAllocator("min_write", w_max=MIN_WRITE_CAP - 1)

    def test_new_cells_are_sequential(self):
        alloc = RramAllocator()
        assert [alloc.new_cell() for _ in range(3)] == [0, 1, 2]
        assert alloc.num_cells == 3

    def test_request_prefers_free_pool(self):
        alloc = RramAllocator()
        a = alloc.new_cell()
        alloc.release(a)
        assert alloc.request() == a
        assert alloc.num_cells == 1

    def test_request_allocates_when_pool_empty(self):
        alloc = RramAllocator()
        assert alloc.request() == 0
        assert alloc.request() == 1

    def test_double_release_rejected(self):
        alloc = RramAllocator()
        a = alloc.new_cell()
        alloc.release(a)
        with pytest.raises(ValueError):
            alloc.release(a)


class TestNaiveLifo:
    def test_lifo_order(self):
        alloc = RramAllocator("naive")
        cells = [alloc.new_cell() for _ in range(3)]
        for c in cells:
            alloc.release(c)
        assert alloc.request() == cells[-1]
        assert alloc.request() == cells[-2]


class TestMinWrite:
    def test_least_written_first(self):
        alloc = RramAllocator("min_write")
        a, b, c = (alloc.new_cell() for _ in range(3))
        for _ in range(5):
            alloc.writes[a] += 1
        for _ in range(2):
            alloc.writes[b] += 1
        alloc.writes[c] += 1
        for cell in (a, b, c):
            alloc.release(cell)
        assert alloc.request() == c  # 1 write
        assert alloc.request() == b  # 2 writes
        assert alloc.request() == a  # 5 writes

    def test_tie_breaks_by_address(self):
        alloc = RramAllocator("min_write")
        a, b = alloc.new_cell(), alloc.new_cell()
        alloc.release(b)
        alloc.release(a)
        assert alloc.request() == a

    def test_stale_heap_entries_skipped(self):
        alloc = RramAllocator("min_write")
        a = alloc.new_cell()
        alloc.release(a)
        got = alloc.request()
        assert got == a
        alloc.writes[a] += 1
        alloc.writes[a] += 1
        b = alloc.new_cell()
        alloc.release(b)
        alloc.release(a)  # two heap entries for a now (one stale)
        assert alloc.request() == b  # 0 writes beats 2
        assert alloc.request() == a


class TestMaxWriteCap:
    def test_capped_cells_retire_on_release(self):
        alloc = RramAllocator("min_write", w_max=3)
        a = alloc.new_cell()
        for _ in range(3):
            alloc.writes[a] += 1
        alloc.release(a)
        assert a in alloc.retired
        # the pool is empty: a fresh cell is allocated
        assert alloc.request() == 1

    def test_writable_respects_cap(self):
        alloc = RramAllocator("min_write", w_max=3)
        a = alloc.new_cell()
        assert alloc.writable(a)
        for _ in range(3):
            alloc.writes[a] += 1
        assert not alloc.writable(a)

    def test_headroom(self):
        alloc = RramAllocator("min_write", w_max=5)
        a = alloc.new_cell()
        alloc.writes[a] += 1
        assert alloc.headroom(a) == 4
        uncapped = RramAllocator("min_write")
        b = uncapped.new_cell()
        assert uncapped.headroom(b) is None

    def test_uncapped_never_retires(self):
        alloc = RramAllocator("naive")
        a = alloc.new_cell()
        for _ in range(100):
            alloc.writes[a] += 1
        alloc.release(a)
        assert not alloc.retired
        assert alloc.writable(a)


class TestWmaxRetirementBoundaries:
    """Exact-cap edges of the maximum write count strategy."""

    def test_device_one_below_cap_is_still_a_destination(self):
        alloc = RramAllocator("min_write", w_max=3)
        a = alloc.new_cell()
        for _ in range(2):
            alloc.writes[a] += 1
        assert alloc.writable(a)  # 2 < 3: one RM3 still fits
        assert alloc.headroom(a) == 1
        alloc.release(a)
        assert a not in alloc.retired  # below cap: pooled, not retired
        assert alloc.request(headroom=1) == a

    def test_device_at_exact_cap_refused_everywhere(self):
        alloc = RramAllocator("min_write", w_max=3)
        a = alloc.new_cell()
        for _ in range(3):
            alloc.writes[a] += 1
        assert not alloc.writable(a)
        assert alloc.headroom(a) == 0
        alloc.release(a)
        assert a in alloc.retired
        # never served again, for any headroom
        assert alloc.request(headroom=1) != a

    def test_pooled_device_reaching_cap_is_skipped_not_lost(self):
        """A device released *below* the cap can still sit in the pool
        when later requests need more headroom than it has left — it
        must be skipped for those and kept for smaller asks."""
        alloc = RramAllocator("min_write", w_max=4)
        a = alloc.new_cell()
        for _ in range(3):
            alloc.writes[a] += 1
        alloc.release(a)  # one write of headroom left
        fresh = alloc.request(headroom=2)  # copy destination: won't fit
        assert fresh != a
        assert alloc.request(headroom=1) == a  # still available

    def test_retirement_mid_translation_bounds_every_cell(self):
        """Compiled under a cap, no cell of the emitted program may
        exceed it — retirement must kick in mid-translation, exactly
        when a destination hits the cap, for both allocator shapes."""
        from repro.analysis.scenarios import fig1_chain
        from repro.core.manager import compile_pipeline, full_management

        mig = fig1_chain(12)
        for arch in ("endurance", "blocked"):
            result = compile_pipeline(mig, full_management(4), arch=arch)
            counts = result.program.write_counts()
            assert max(counts) <= 4
            # the cap forces extra devices vs the uncapped run
            uncapped = compile_pipeline(
                mig, full_management(100), arch=arch
            )
            assert result.program.num_cells >= uncapped.program.num_cells


class TestUncappedRequests:
    """Without a cap every pooled device fits: an absent cap and one no
    device can reach must hand out the same devices in the same order."""

    @staticmethod
    def _replay(strategy, w_max, seed):
        rng = random.Random(seed)
        alloc = RramAllocator(strategy, w_max)
        held, trace = [], []
        for _ in range(400):
            if held and rng.random() < 0.45:
                alloc.release(held.pop(rng.randrange(len(held))))
                continue
            addr = alloc.request(headroom=rng.choice((1, 2, 3)))
            for _ in range(rng.randrange(4)):
                alloc.writes[addr] += 1
            if rng.random() < 0.2:  # may wear a pooled device: stale entries
                alloc.writes[rng.randrange(alloc.num_cells)] += 1
            held.append(addr)
            trace.append(addr)
        return trace, alloc.writes

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("seed", range(10))
    def test_no_cap_matches_unreachable_cap(self, strategy, seed):
        uncapped = self._replay(strategy, None, seed)
        assert uncapped == self._replay(strategy, 10**9, seed)
        assert len(set(uncapped[0])) < len(uncapped[0])  # the pool is reused


class _ScanningAllocator:
    """The crossbar allocator before the early stop, standalone: a LIFO
    free stack under ``naive``, and a ``(writes, addr)`` heap under
    ``min_write`` whose capped miss pops and re-pushes the whole pool.
    Entries whose cell is no longer free, or whose write count changed
    since it was pushed, are dropped."""

    def __init__(self, strategy="naive", w_max=None):
        self.strategy = strategy
        self.w_max = w_max
        self.writes = []
        self._free_stack = []
        self._free_heap = []
        self._free_set = set()
        self.retired = set()

    @property
    def num_cells(self):
        return len(self.writes)

    def new_cell(self):
        self.writes.append(0)
        return len(self.writes) - 1

    def _fits(self, addr, headroom):
        return self.w_max is None or self.writes[addr] + headroom <= self.w_max

    def request(self, headroom=1):
        free_set = self._free_set
        found = None
        if self.strategy == "min_write":
            heap = self._free_heap
            skipped = []
            while heap:
                wr, addr = heapq.heappop(heap)
                if addr not in free_set or wr != self.writes[addr]:
                    continue
                if not self._fits(addr, headroom):
                    skipped.append((wr, addr))
                    continue
                found = addr
                break
            for entry in skipped:
                heapq.heappush(heap, entry)
        else:
            stack = self._free_stack
            skipped = []
            while stack:
                addr = stack.pop()
                if not self._fits(addr, headroom):
                    skipped.append(addr)
                    continue
                found = addr
                break
            stack.extend(reversed(skipped))
        if found is None:
            return self.new_cell()
        free_set.discard(found)
        return found

    def release(self, addr):
        if addr in self._free_set:
            raise ValueError(f"double release of cell {addr}")
        if self.w_max is not None and self.writes[addr] >= self.w_max:
            self.retired.add(addr)
            return
        self._free_set.add(addr)
        if self.strategy == "min_write":
            heapq.heappush(self._free_heap, (self.writes[addr], addr))
        else:
            self._free_stack.append(addr)

    def writable(self, addr):
        return self.w_max is None or self.writes[addr] < self.w_max


class TestCappedMinWriteEarlyStop:
    """The min-write search stops at the first worn device and hands out
    exactly what the full scan did."""

    @staticmethod
    def _replay(cls, w_max, seed):
        rng = random.Random(seed)
        alloc = cls("min_write", w_max)
        held, trace = [], []
        for _ in range(500):
            if held and rng.random() < 0.45:
                alloc.release(held.pop(rng.randrange(len(held))))
                trace.append(("release", sorted(alloc.retired)))
                continue
            addr = alloc.request(headroom=rng.choice((1, 2, 3)))
            for _ in range(rng.randrange(3)):
                if alloc.writable(addr):
                    alloc.writes[addr] += 1
            if rng.random() < 0.2:  # may wear a pooled device: stale entries
                alloc.writes[rng.randrange(alloc.num_cells)] += 1
            held.append(addr)
            trace.append(("request", addr))
        return trace, alloc.writes, sorted(alloc._free_set)

    @pytest.mark.parametrize("w_max", [MIN_WRITE_CAP, 4, 6])
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_the_full_scan(self, w_max, seed):
        expected = self._replay(_ScanningAllocator, w_max, seed)
        assert self._replay(RramAllocator, w_max, seed) == expected
        assert expected[1].count(w_max) > 1  # the cap was reached


class _ReferenceBlocked:
    """The word-line allocator as first written, standalone: ``naive``
    searches lines most recently released into first, LIFO within a
    line; ``min_write`` sorts the lines holding free cells by
    ``(hottest allocated cell, line)`` on every request and takes the
    least-written fitting cell of the first line that has one."""

    def __init__(self, block_size, strategy="naive", w_max=None):
        self.block_size = block_size
        self.strategy = strategy
        self.w_max = w_max
        self.writes = []
        self._free_stacks = {}
        self._free_set = set()
        self._recency = []
        self.retired = set()

    @property
    def num_blocks(self):
        return -(-len(self.writes) // self.block_size)

    @property
    def num_cells(self):
        return self.num_blocks * self.block_size

    def new_cell(self):
        self.writes.append(0)
        return len(self.writes) - 1

    def _fits(self, addr, headroom):
        return self.w_max is None or self.writes[addr] + headroom <= self.w_max

    def _block_wear(self, block):
        start = block * self.block_size
        stop = min(start + self.block_size, len(self.writes))
        return max(self.writes[start:stop], default=0)

    def request(self, headroom=1):
        if self.strategy == "min_write":
            found = self._request_min_write(headroom)
        else:
            found = self._request_naive(headroom)
        return self.new_cell() if found is None else found

    def _request_naive(self, headroom):
        for block in self._recency:
            stack = self._free_stacks.get(block)
            skipped = []
            found = None
            while stack:
                addr = stack.pop()
                if addr not in self._free_set:
                    continue
                if not self._fits(addr, headroom):
                    skipped.append(addr)
                    continue
                self._free_set.discard(addr)
                found = addr
                break
            if stack is not None:
                stack.extend(reversed(skipped))
            if found is not None:
                return found
        return None

    def _request_min_write(self, headroom):
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

    def release(self, addr):
        if addr in self._free_set:
            raise ValueError(f"double release of cell {addr}")
        if self.w_max is not None and self.writes[addr] >= self.w_max:
            self.retired.add(addr)
            return
        block = addr // self.block_size
        self._free_set.add(addr)
        self._free_stacks.setdefault(block, []).append(addr)
        if block in self._recency:
            self._recency.remove(block)
        self._recency.insert(0, block)


class TestTraceParity:
    """Seeded request/release traces replayed on the allocator under
    test and on the two reference allocators.  Like the compiler, the
    trace charges writes only to held cells (through ``writes``), which
    leaves the wear of a word line with pooled cells stale."""

    @staticmethod
    def _replay(alloc, seed):
        rng = random.Random(seed)
        w_max = alloc.w_max
        writes = alloc.writes
        held, trace = [], []
        for _ in range(600):
            if held and rng.random() < 0.45:
                alloc.release(held.pop(rng.randrange(len(held))))
                continue
            addr = alloc.request(headroom=rng.choice((1, 2, 3)))
            held.append(addr)
            trace.append(addr)
            for _ in range(rng.randrange(4)):
                cell = rng.choice(held)
                if w_max is None or writes[cell] < w_max:
                    writes[cell] += 1
        return (
            trace,
            alloc.num_cells,
            getattr(alloc, "num_blocks", alloc.num_cells),
            sorted(alloc.retired),
            list(writes),
        )

    @pytest.mark.parametrize("w_max", [None, MIN_WRITE_CAP, 4, 6])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("block_size", [1, 2, 8])
    def test_matches_the_reference_allocators(
        self, block_size, strategy, w_max
    ):
        for seed in range(6):
            got = self._replay(
                RramAllocator(strategy, w_max, block_size=block_size), seed
            )
            blocked = self._replay(
                _ReferenceBlocked(block_size, strategy, w_max), seed
            )
            assert got == blocked
            if block_size == 1:
                crossbar = self._replay(_ScanningAllocator(strategy, w_max), seed)
                assert got == crossbar
            assert len(set(got[0])) < len(got[0])  # the pool is reused
            if w_max is not None and seed == 0:
                assert got[3]  # the cap retired devices
