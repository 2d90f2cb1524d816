"""Tests for the MIG-to-RM3 compiler: cost model, invariants, correctness.

The cost model cases follow Section III of the paper: an "ideal" node
(one complemented fanin, one overwritable destination) is a single RM3;
each complement/fanout violation adds exactly two instructions and one
device.
"""

import hashlib
import heapq
import pickle
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.tables import TABLE1_CONFIGS, TABLE3_CAPS
from repro.arch import get_architecture
from repro.core.manager import PRESETS, compile_pipeline, full_management
from repro.core.selection import SELECTIONS, SelectionStrategy, make_selection
from repro.mig.graph import Mig
from repro.mig.signal import (
    CONST0, CONST1, complement, is_complemented, make_signal, node_of,
)
from repro.opt import rewrite
from repro.plim.compiler import (
    CHECKPOINT_GATES,
    PlimCompiler,
    _Compilation,
    schedule,
)
from repro.plim.isa import OP_CONST0, OP_CONST1, Program, const_operand
from repro.plim.verify import verify_program
from repro.resilience import StageTimeoutError
from repro.resilience.timeouts import time_limit
from repro.synth.registry import BENCHMARK_ORDER, build_benchmark
from .conftest import make_random_mig


def compile_mig(mig, **kwargs):
    return PlimCompiler(**kwargs).compile(mig)


def count_node_instructions(mig):
    """#I of a single-gate MIG whose PO is that gate, uncomplemented."""
    program = compile_mig(mig)
    verify_program(program, mig)
    return program.num_instructions


class TestCostModel:
    def _single_node(self, complements, fanouts):
        """One majority over three PIs; `complements[i]` inverts edge i,
        `fanouts[i]` adds an extra consumer to pin PI i."""
        mig = Mig()
        pis = [mig.add_pi(f"x{i}") for i in range(3)]
        extra = mig.add_pi("extra")
        ops = [
            complement(s) if c else s for s, c in zip(pis, complements)
        ]
        node = mig.add_maj(*ops)
        mig.add_po(node, "f")
        for s, pinned in zip(pis, fanouts):
            if pinned:
                mig.add_po(mig.add_maj(s, extra, CONST0), f"pin{s}")
        return mig

    def test_ideal_node_single_instruction(self):
        # one complemented fanin, destination and P free
        mig = self._single_node([True, False, False], [False, False, False])
        program = compile_mig(mig)
        verify_program(program, mig)
        assert program.num_instructions == 1

    def test_zero_complements_needs_q_inversion(self):
        # no complemented fanin, no constant: +2 instructions
        mig = self._single_node([False, False, False], [False, False, False])
        program = compile_mig(mig)
        verify_program(program, mig)
        assert program.num_instructions == 3

    def test_and_node_is_free_via_constant(self):
        # <a b 0>: Q takes the constant, Z overwrites a fanin
        mig = Mig()
        a, b = mig.add_pi("a"), mig.add_pi("b")
        mig.add_po(mig.add_and(a, b), "f")
        program = compile_mig(mig)
        verify_program(program, mig)
        assert program.num_instructions == 1

    def test_or_node_is_free_via_constant(self):
        mig = Mig()
        a, b = mig.add_pi("a"), mig.add_pi("b")
        mig.add_po(mig.add_or(a, b), "f")
        program = compile_mig(mig)
        verify_program(program, mig)
        assert program.num_instructions == 1

    def test_all_fanouts_blocked_needs_copy(self):
        # one complemented fanin but both other fanins multi-fanout:
        # +2 (copy) -> 3 instructions for the node, plus 2 pin gates
        mig = self._single_node([True, False, False], [False, True, True])
        program = compile_mig(mig)
        verify_program(program, mig)
        # pins are ANDs (1 each); the node pays 1 + 2
        assert program.num_instructions == 2 + 3

    def test_two_complements_cost(self):
        # Q free (first complement), P inversion (+2), Z direct
        mig = self._single_node([True, True, False], [False, False, False])
        program = compile_mig(mig)
        verify_program(program, mig)
        assert program.num_instructions == 3

    def test_three_complements_cost(self):
        # Q free, P inversion (+2), Z copy-invert (+2)
        mig = self._single_node([True, True, True], [False, False, False])
        program = compile_mig(mig)
        verify_program(program, mig)
        assert program.num_instructions == 5

    def test_complemented_po_costs_two(self):
        mig = Mig()
        a, b = mig.add_pi("a"), mig.add_pi("b")
        f = mig.add_and(a, b)
        mig.add_po(complement(f), "nf")
        program = compile_mig(mig)
        verify_program(program, mig)
        assert program.num_instructions == 1 + 2

    def test_constant_po_costs_one(self):
        mig = Mig()
        mig.add_pi("a")
        mig.add_po(CONST1, "one")
        mig.add_po(CONST0, "zero")
        program = compile_mig(mig)
        verify_program(program, mig)
        assert program.num_instructions == 2

    def test_shared_constant_pos(self):
        mig = Mig()
        mig.add_pi("a")
        mig.add_po(CONST1, "one_a")
        mig.add_po(CONST1, "one_b")
        program = compile_mig(mig)
        assert program.num_instructions == 1
        assert program.po_cells[0] == program.po_cells[1]

    def test_pi_as_po_uses_pi_cell(self):
        mig = Mig()
        a = mig.add_pi("a")
        mig.add_po(a, "f")
        program = compile_mig(mig)
        verify_program(program, mig)
        assert program.num_instructions == 0
        assert program.po_cells == [program.pi_cells[0]]

    def test_duplicate_complemented_po_shares_inversion(self):
        mig = Mig()
        a, b = mig.add_pi("a"), mig.add_pi("b")
        f = mig.add_and(a, b)
        mig.add_po(complement(f), "nf1")
        mig.add_po(complement(f), "nf2")
        program = compile_mig(mig)
        verify_program(program, mig)
        assert program.num_instructions == 3  # AND + one shared inversion
        assert program.po_cells[0] == program.po_cells[1]


class TestInvariants:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_min_write_changes_neither_instructions_nor_rrams(self, seed):
        """Stated explicitly in Section IV of the paper."""
        mig = make_random_mig(6, 50, seed=seed)
        naive = compile_mig(mig, allocation="naive")
        minw = compile_mig(mig, allocation="min_write")
        assert naive.num_instructions == minw.num_instructions
        assert naive.num_rrams == minw.num_rrams

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_all_selections_verify(self, seed):
        mig = make_random_mig(6, 40, seed=seed)
        for name in ("topo", "dac16", "endurance"):
            sel = None if name == "topo" else make_selection(name)
            program = compile_mig(mig, selection=sel)
            verify_program(program, mig, patterns=64)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_write_cap_respected(self, seed):
        mig = make_random_mig(6, 50, seed=seed)
        for cap in (3, 5, 10):
            program = compile_mig(
                mig, allocation="min_write", w_max=cap
            )
            verify_program(program, mig, patterns=64)
            assert max(program.write_counts()) <= cap

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_tighter_cap_never_cheaper(self, seed):
        mig = make_random_mig(6, 50, seed=seed)
        loose = compile_mig(mig, allocation="min_write", w_max=20)
        tight = compile_mig(mig, allocation="min_write", w_max=3)
        assert tight.num_rrams >= loose.num_rrams

    def test_pi_overwrite_flag(self):
        mig = Mig()
        a, b = mig.add_pi("a"), mig.add_pi("b")
        mig.add_po(mig.add_and(a, b), "f")
        reuse = compile_mig(mig, allow_pi_overwrite=True)
        fresh = compile_mig(mig, allow_pi_overwrite=False)
        verify_program(reuse, mig)
        verify_program(fresh, mig)
        assert reuse.num_rrams == 2  # destination overwrites an input
        assert fresh.num_rrams == 3  # input devices preserved
        assert fresh.num_instructions == reuse.num_instructions + 2

    def test_po_complement_releases_dead_source(self):
        # a node used only by a complemented PO frees its device
        mig = Mig()
        a, b = mig.add_pi("a"), mig.add_pi("b")
        f = mig.add_and(a, b)
        mig.add_po(complement(f), "nf")
        program = compile_mig(mig)
        verify_program(program, mig)


class TestEndToEnd:
    def test_exhaustive_cross_check_small(self):
        mig = make_random_mig(6, 30, seed=99, num_pos=4)
        program = compile_mig(mig, allocation="min_write", w_max=5)
        # 6 inputs: within verify_program's exhaustive limit
        assert verify_program(program, mig)

    def test_empty_graph(self):
        mig = Mig()
        mig.add_pi("a")
        program = compile_mig(mig)
        assert program.num_instructions == 0
        assert program.num_rrams == 1  # the input device

    def test_no_strash_graph_compiles(self):
        mig = make_random_mig(5, 30, seed=5, use_strash=False)
        program = compile_mig(mig)
        verify_program(program, mig, patterns=64)

    def test_scheduler_covers_all_gates(self, tiny_adder):
        program = compile_mig(tiny_adder)
        verify_program(program, tiny_adder)


# -- translation parity ----------------------------------------------------
#
# A test-local copy of the original compiler: one loop that interleaves
# node selection with node translation, so the selection keys — tuples
# of its own, per strategy name, over its own fanout level indices —
# read the reference counts its own translator decrements, and a
# translator that
# classifies each fanin into a ``_Fanin`` object and prices every
# (Q, Z, P) role assignment through per-role method calls, emitting
# through its own per-instruction helpers.  It shares neither the
# memoized schedule, the role table nor the fused translation loop with
# the compiler, which must emit the identical program, instruction for
# instruction.


@dataclass(frozen=True)
class _Fanin:
    is_const: bool
    value: int
    node: int
    complemented: bool


_Q_FREE, _Q_INVERT = 0, 1
_Z_DIRECT, _Z_CONST, _Z_COPY = 0, 1, 2
_P_FREE, _P_INVERT = 0, 1


def _consumers(mig: Mig) -> List[List[int]]:
    """The live gates reading each node, once per reference."""
    consumers = [[] for _ in range(mig.num_nodes)]
    for gate in mig.live_gates():
        for signal in mig.fanins(gate):
            consumers[node_of(signal)].append(gate)
    return consumers


def _reference_level_index(mig: Mig) -> List[int]:
    """The fanout level index by its definition: the level of a node's
    last live consumer, output drivers pinned at ``depth + 1``, and 0
    for a node no live gate reads."""
    levels = mig.levels()
    po_nodes = {node_of(s) for s in mig.pos()}
    depth = max((levels[node] for node in po_nodes), default=0)
    return [
        depth + 1 if node in po_nodes
        else max((levels[gate] for gate in consumers), default=0)
        for node, consumers in enumerate(_consumers(mig))
    ]


#: The reference's tuple key and dynamic flag per strategy name; the
#: test-only strategies of this module name their own entries.
_REFERENCE_KEYS = {
    "topo": (lambda ref, node: (node,), False),
    "dac16": (
        lambda ref, node: (
            -ref.releasing(node), ref.level_index[node], node
        ),
        True,
    ),
    "endurance": (
        lambda ref, node: (
            ref.level_index[node], -ref.releasing(node), node
        ),
        True,
    ),
    "releasing-only": (
        lambda ref, node: (-ref.releasing(node), node), True
    ),
    "level-only": (lambda ref, node: (ref.level_index[node], node), False),
    "first-use": (
        lambda ref, node: (
            ref.selection.first_use[node], -ref.releasing(node), node
        ),
        True,
    ),
}


class _ReferenceCompilation(_Compilation):
    def __init__(self, mig, selection, allocator, allow_pi_overwrite, cost):
        super().__init__(mig, selection, allocator, allow_pi_overwrite, cost)
        self.cost = cost
        self.pi_nodes = set(mig.pis())
        self.refs = mig.fanout_counts()
        self.level_index = _reference_level_index(mig)
        #: The gates in the order this reference translated them.
        self.order: List[int] = []

    def releasing(self, node: int) -> int:
        return sum(
            1
            for signal in self.mig.fanins(node)
            if node_of(signal) != 0 and self.refs[node_of(signal)] == 1
        )

    def run(self):
        mig = self.mig
        pi_cells = []
        for node in mig.pis():
            cell = self.alloc.new_cell()
            self.cell_of[node] = cell
            pi_cells.append(cell)

        name = "topo" if self.selection is None else self.selection.name
        ranked, dynamic = _REFERENCE_KEYS[name]

        def key(node):
            return ranked(self, node)

        gates = mig.live_gates()
        parents = _consumers(mig)
        pending = [0] * mig.num_nodes
        heap = []
        for node in gates:
            pending[node] = sum(
                1 for s in mig.fanins(node) if mig.is_gate(node_of(s))
            )
            if pending[node] == 0:
                heapq.heappush(heap, (key(node), node))
        computed = [False] * mig.num_nodes
        while heap:
            queued, node = heapq.heappop(heap)
            if computed[node]:
                continue
            if dynamic:
                fresh = key(node)
                if fresh != queued:
                    heapq.heappush(heap, (fresh, node))
                    continue
            self._translate(node)
            computed[node] = True
            self.order.append(node)
            for parent in parents[node]:
                pending[parent] -= 1
                if pending[parent] == 0:
                    heapq.heappush(heap, (key(parent), parent))
        assert all(computed[node] for node in gates)

        po_cells = self._materialize_outputs()
        program = Program(
            instructions=self.instructions,
            num_cells=self.alloc.num_cells,
            pi_cells=pi_cells,
            po_cells=po_cells,
            name=mig.name,
        )
        program.validate()
        return program

    def _classify(self, signal: int) -> _Fanin:
        node = node_of(signal)
        if node == 0:
            return _Fanin(True, 1 if is_complemented(signal) else 0, 0, False)
        return _Fanin(False, 0, node, is_complemented(signal))

    def _q_cost(self, f: _Fanin) -> int:
        return _Q_FREE if f.is_const or f.complemented else _Q_INVERT

    def _z_kind(self, f: _Fanin) -> int:
        if f.is_const:
            return _Z_CONST
        if (
            not f.complemented
            and self.refs[f.node] == 1
            and self.cell_of[f.node] is not None
            and self.alloc.writable(self.cell_of[f.node])
            and (self.allow_pi_overwrite or f.node not in self.pi_nodes)
        ):
            return _Z_DIRECT
        return _Z_COPY

    def _p_cost(self, f: _Fanin) -> int:
        return _P_FREE if f.is_const or not f.complemented else _P_INVERT

    def _translate(self, node: int) -> None:
        fanins = [self._classify(s) for s in self.mig.fanins(node)]
        cost = self.cost
        best = None
        for qi in range(3):
            rest = [i for i in range(3) if i != qi]
            for zi, pi in (rest, reversed(rest)):
                q, z, p = fanins[qi], fanins[zi], fanins[pi]
                q_cost = self._q_cost(q)
                z_kind = self._z_kind(z)
                p_cost = self._p_cost(p)
                extra = (
                    cost.q_invert_instructions * q_cost
                    + (
                        cost.z_const_instructions
                        if z_kind == _Z_CONST
                        else cost.z_copy_instructions
                        if z_kind == _Z_COPY
                        else 0
                    )
                    + cost.p_invert_instructions * p_cost
                )
                extra_cells = (
                    cost.q_invert_cells * q_cost
                    + cost.p_invert_cells * p_cost
                    + (0 if z_kind == _Z_DIRECT else cost.z_request_cells)
                )
                if z_kind == _Z_DIRECT and self.alloc.strategy == "min_write":
                    z_writes = self.alloc.writes[self.cell_of[z.node]]
                else:
                    z_writes = 0
                rank = (extra, extra_cells, z_kind, z_writes, qi, zi)
                if best is None or rank < best[0]:
                    best = (rank, qi, zi, pi, z_kind)
        _, qi, zi, pi, z_kind = best
        q, z, p = fanins[qi], fanins[zi], fanins[pi]

        temps: List[int] = []
        overwritten: Optional[int] = None
        if z_kind == _Z_DIRECT:
            z_addr = self.cell_of[z.node]
            overwritten = z.node
        elif z_kind == _Z_CONST:
            z_addr = self.alloc.request(headroom=2)
            self._emit_const(z_addr, z.value)
        else:
            z_addr = self._emit_materialize(
                self.cell_of[z.node], inverted=z.complemented, extra_headroom=1
            )

        if q.is_const:
            q_op = const_operand(1 - q.value)
        elif q.complemented:
            q_op = self.cell_of[q.node]
        else:
            temp = self.alloc.request(headroom=2)
            self._emit_const(temp, 1)
            self._emit(OP_CONST0, self.cell_of[q.node], temp)
            temps.append(temp)
            q_op = temp

        if p.is_const:
            p_op = const_operand(p.value)
        elif not p.complemented:
            p_op = self.cell_of[p.node]
        else:
            temp = self.alloc.request(headroom=2)
            self._emit_const(temp, 1)
            self._emit(OP_CONST0, self.cell_of[p.node], temp)
            temps.append(temp)
            p_op = temp

        self._emit(p_op, q_op, z_addr)

        for f in fanins:
            if f.is_const:
                continue
            self.refs[f.node] -= 1
            if self.refs[f.node] == 0:
                cell = self.cell_of[f.node]
                self.cell_of[f.node] = None
                if f.node != overwritten and cell is not None:
                    self._release(f.node, cell)
        for temp in temps:
            self.alloc.release(temp)
        self.cell_of[node] = z_addr

    # The emission, release and output helpers the compiler's fused
    # translation loop inlines, as separate per-instruction calls.

    def _emit(self, p: int, q: int, z: int) -> None:
        self.instructions.append((p, q, z))
        self.alloc.writes[z] += 1

    def _emit_const(self, z: int, value: int) -> None:
        if value:
            self._emit(OP_CONST1, OP_CONST0, z)
        else:
            self._emit(OP_CONST0, OP_CONST1, z)

    def _emit_materialize(self, src_cell: int, inverted: bool,
                          extra_headroom: int = 0) -> int:
        dst = self.alloc.request(headroom=2 + extra_headroom)
        if inverted:
            self._emit_const(dst, 1)
            self._emit(OP_CONST0, src_cell, dst)
        else:
            self._emit_const(dst, 0)
            self._emit(src_cell, OP_CONST0, dst)
        return dst

    def _release(self, node: int, cell: int) -> None:
        if not self.allow_pi_overwrite and node in self.pi_nodes:
            return
        self.alloc.release(cell)

    def _materialize_outputs(self) -> List[int]:
        const_cells: dict = {}
        inverted_cells: dict = {}
        po_cells: List[int] = []
        for s in self.mig.pos():
            node = node_of(s)
            if node == 0:
                value = 1 if is_complemented(s) else 0
                if value not in const_cells:
                    cell = self.alloc.request(headroom=1)
                    self._emit_const(cell, value)
                    const_cells[value] = cell
                po_cells.append(const_cells[value])
            elif not is_complemented(s):
                assert self.cell_of[node] is not None
                po_cells.append(self.cell_of[node])
            else:
                if s not in inverted_cells:
                    src = self.cell_of[node]
                    assert src is not None
                    inverted_cells[s] = self._emit_materialize(
                        src, inverted=True
                    )
                po_cells.append(inverted_cells[s])
                self.refs[node] -= 1
                if self.refs[node] == 0:
                    cell = self.cell_of[node]
                    self.cell_of[node] = None
                    if cell is not None:
                        self._release(node, cell)
        return po_cells


def _compilation(cls, mig, compiler, arch):
    """The compilation *compiler* would run on *arch* (cf. its compile)."""
    return cls(
        mig,
        selection=compiler.selection,
        allocator=arch.make_allocator(compiler.allocation, compiler.w_max),
        allow_pi_overwrite=compiler.allow_pi_overwrite,
        cost=arch.cost,
    )


def assert_translate_parity(mig, arch_name, **options):
    """Same program as the reference translator, and the allocator's
    compile-time write tally equals the program's static write counts."""
    arch = get_architecture(arch_name)
    compiler = PlimCompiler(arch=arch, **options)
    program = compiler.compile(mig)
    reference = _compilation(_ReferenceCompilation, mig, compiler, arch).run()
    assert program == reference

    run = _compilation(_Compilation, mig, compiler, arch)
    assert run.run() == program
    tally = run.alloc.writes
    counts = program.write_counts()
    assert counts[: len(tally)] == tally
    assert not any(counts[len(tally):])  # unused cells of the last word line


TABLE_CONFIGS = [PRESETS[name] for name in TABLE1_CONFIGS] + [
    full_management(cap) for cap in TABLE3_CAPS
]


@lru_cache(maxsize=None)
def _rewritten(name: str, script: str, effort: int) -> Mig:
    return rewrite(build_benchmark(name, "tiny"), script, effort=effort)


class _FirstUse(SelectionStrategy):
    """Algorithm 3's keys over the first-use reading of the fanout level
    index (the level of a node's *first* consumer, PO drivers pinned at
    ``depth + 1``): a schedule none of the registry strategies makes."""

    name = "first-use"

    def __init__(self, mig: Mig) -> None:
        levels = mig.levels()
        po_nodes = {node_of(s) for s in mig.pos()}
        depth = max((levels[node] for node in po_nodes), default=0)
        self.first_use = [
            depth + 1 if node in po_nodes
            else min((levels[gate] for gate in consumers), default=0)
            for node, consumers in enumerate(_consumers(mig))
        ]

    def ranks(self, view):
        return [4 * first for first in self.first_use], 1


class TestTranslateParity:
    @pytest.mark.parametrize("name", BENCHMARK_ORDER)
    def test_registry_benchmarks_every_table_config(self, name):
        for config in TABLE_CONFIGS:
            mig = _rewritten(name, config.rewriting, config.effort)
            for arch_name in ("endurance", "blocked", "dac16"):
                if not get_architecture(arch_name).supports_config(config):
                    continue
                assert_translate_parity(
                    mig,
                    arch_name,
                    selection=None
                    if config.selection == "topo"
                    else make_selection(config.selection),
                    allocation=config.allocation.strategy,
                    w_max=config.allocation.w_max,
                    allow_pi_overwrite=config.allow_pi_overwrite,
                )

    @pytest.mark.parametrize("name", BENCHMARK_ORDER)
    def test_ablation_selections_and_first_use_aggregate(self, name):
        config = PRESETS["ea-full"]
        mig = _rewritten(name, config.rewriting, config.effort)
        selections = [
            make_selection(selection)
            for selection in ("releasing-only", "level-only", "dac16",
                              "endurance")
        ] + [_FirstUse(mig)]
        for selection in selections:
            for arch_name in ("endurance", "blocked"):
                assert_translate_parity(
                    mig,
                    arch_name,
                    selection=selection,
                    allocation="min_write",
                )

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        gates=st.integers(min_value=1, max_value=60),
        use_strash=st.booleans(),
        arch_name=st.sampled_from(["endurance", "blocked"]),
    )
    def test_random_graphs(self, seed, gates, use_strash, arch_name):
        mig = make_random_mig(
            5, gates, seed=seed, complement_prob=0.4, use_strash=use_strash
        )
        for options in (
            dict(allow_pi_overwrite=False),
            dict(allocation="min_write", w_max=3),
            dict(
                selection=make_selection("endurance"),
                allocation="min_write",
                w_max=4,
                allow_pi_overwrite=False,
            ),
        ):
            assert_translate_parity(mig, arch_name, **options)


def reference_schedule(mig: Mig, selection) -> tuple:
    """The order the reference compilation translates *mig*'s gates in."""
    arch = get_architecture("endurance")
    compiler = PlimCompiler(selection=selection, arch=arch)
    run = _compilation(_ReferenceCompilation, mig, compiler, arch)
    run.run()
    return tuple(run.order)


class TestScheduleOracle:
    """The packed-key scheduler against the reference's tuple keys."""

    @pytest.mark.parametrize("name", BENCHMARK_ORDER)
    def test_registry_benchmarks_both_scripts(self, name):
        for config in (PRESETS["dac16"], PRESETS["ea-full"]):
            mig = _rewritten(name, config.rewriting, config.effort)
            for strategy in SELECTIONS:
                selection = make_selection(strategy)
                assert schedule(mig, selection) == reference_schedule(
                    mig, selection
                ), (name, config.rewriting, strategy)
            assert schedule(mig) == tuple(mig.live_gates())

    def test_components_do_not_bleed_at_their_bounds(self):
        """Two first candidates: ``x`` releases all three children (the
        maximum) at level index 3, ``y`` releases none at 2.  Algorithm 3
        takes ``y`` first, DAC'16 ``x``; a rank scale of 3 instead of 4
        would tie Algorithm 3's keys and take the smaller id, ``x``."""
        mig = Mig()
        p = [mig.add_pi() for _ in range(6)]
        x = mig.add_maj(p[0], p[1], p[2])
        y = mig.add_maj(p[3], p[4], p[5])
        z1 = mig.add_maj(y, complement(p[3]), p[4])
        mig.add_po(mig.add_maj(x, z1, p[5]))
        x, y = node_of(x), node_of(y)
        for strategy, first in (("endurance", y), ("dac16", x)):
            selection = make_selection(strategy)
            order = schedule(mig, selection)
            assert order == reference_schedule(mig, selection)
            assert order[0] == first, strategy

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        gates=st.integers(min_value=1, max_value=60),
        use_strash=st.booleans(),
    )
    def test_random_graphs_with_dead_gates(self, seed, gates, use_strash):
        mig = make_random_mig(
            4, gates, seed=seed, complement_prob=0.4, use_strash=use_strash
        )
        spare = mig.add_pi("spare")
        mig.add_maj(spare, complement(make_signal(mig.pis()[0])), 1)  # dead
        mig.add_po(complement(mig.pos()[0]), "again")
        assert mig.num_live_gates() < mig.num_gates
        for strategy in SELECTIONS:
            selection = make_selection(strategy)
            assert schedule(mig, selection) == reference_schedule(
                mig, selection
            ), strategy

    def test_negative_weight_is_refused(self):
        """Keys are never re-priced on pop, which is exact only while a
        stale key can be too large and never too small: a negative
        releasing weight is refused, and nothing is memoized."""

        class _Negative(SelectionStrategy):
            def ranks(self, view):
                return [0] * len(view.levels), -1

        mig = build_benchmark("adder", "tiny")
        selection = _Negative()
        with pytest.raises(ValueError, match="releasing weight"):
            schedule(mig, selection)
        assert selection not in mig.fanout_view().schedules


#: SHA-256 over every default-preset program of the paper suite (the 18
#: registry benchmarks under Table I's five and Table III's four
#: configurations) on the default machine.  Any change to selection,
#: translation or allocation that alters one instruction moves it.
DEFAULT_PROGRAM_DIGEST = (
    "1853f83d33ab2abf2f57ca6d1e62c773d38524d2cb08f68d82f9d88738985d3f"
)

#: The same suite on the word-addressed ``blocked`` machine (8-cell word
#: lines, whole-line provisioning, block-first free-pool search).
BLOCKED_PROGRAM_DIGEST = (
    "82b53ea6ef9f20210400e2d97761d3f5a3adcb03eca2ee69d1a5560d3f489e51"
)


@pytest.fixture(scope="module")
def suite_jobs():
    """(source, config, rewritten) for every suite compilation, each
    rewrite computed once and shared by the digest tests of this module."""
    jobs = []
    for name in BENCHMARK_ORDER:
        source = build_benchmark(name, "default")
        rewritten = {}
        for config in TABLE_CONFIGS:
            key = (config.rewriting, config.effort)
            if key not in rewritten:
                rewritten[key] = rewrite(source, *key)
            jobs.append((source, config, rewritten[key]))
    return jobs


def _suite_digest(jobs, arch: str) -> str:
    digest = hashlib.sha256()
    for source, config, rewritten in jobs:
        program = compile_pipeline(
            source, config, rewritten=rewritten, arch=arch
        ).program
        digest.update(repr((
            program.instructions,
            program.num_cells,
            program.pi_cells,
            program.po_cells,
        )).encode())
    return digest.hexdigest()


def test_default_preset_programs_are_pinned(suite_jobs):
    assert _suite_digest(suite_jobs, "endurance") == DEFAULT_PROGRAM_DIGEST


def test_blocked_programs_are_pinned(suite_jobs):
    assert _suite_digest(suite_jobs, "blocked") == BLOCKED_PROGRAM_DIGEST


# -- program memo and the non-binding cap fold -------------------------------


def test_non_binding_caps_fold_into_the_uncapped_program(suite_jobs):
    """Every default-preset benchmark under caps 10/20/50/100: a capped
    compile returns the memoized uncapped ``ea-full`` program exactly
    when that program writes no device ``w_max`` times, and equals a
    cold compile on an unpickled graph either way."""
    folds = {}
    for arch in ("endurance", "blocked"):
        folds[arch] = 0
        for source, config, rewritten in suite_jobs:
            if config.name != "ea-full":
                continue
            uncapped = compile_pipeline(
                source, config, rewritten=rewritten, arch=arch
            ).program
            peak = max(uncapped.write_counts())
            for cap in TABLE3_CAPS:
                capped = compile_pipeline(
                    source, full_management(cap), rewritten=rewritten,
                    arch=arch,
                ).program
                cold = compile_pipeline(
                    source, full_management(cap), rewritten=_fresh(rewritten),
                    arch=arch,
                ).program
                assert capped == cold, (source.name, arch, cap)
                assert (capped is uncapped) == (peak < cap)
                folds[arch] += capped is uncapped
    assert folds["endurance"] == 34


class TestProgramMemo:
    def test_repeat_compiles_share_one_program(self):
        mig = _fresh(_rewritten("dec", "endurance", 1))
        compiler = PlimCompiler(allocation="min_write", w_max=10)
        program = compiler.compile(mig)
        assert compiler.compile(mig) is program
        assert compile_mig(mig, allocation="min_write", w_max=20) is not program

    def test_invalid_cap_raises_beside_a_memoized_program(self):
        mig = _fresh(_rewritten("dec", "endurance", 1))
        compile_mig(mig, allocation="min_write")
        with pytest.raises(ValueError, match="w_max"):
            compile_mig(mig, allocation="min_write", w_max=2)

    def test_binding_cap_compiles_again(self):
        mig = _fresh(_rewritten("ctrl", "endurance", 1))
        uncapped = compile_mig(mig, allocation="min_write")
        peak = max(uncapped.write_counts())
        assert peak >= 3
        at_peak = compile_mig(mig, allocation="min_write", w_max=peak)
        assert at_peak is not uncapped
        assert at_peak == compile_mig(
            _fresh(mig), allocation="min_write", w_max=peak
        )
        assert compile_mig(
            mig, allocation="min_write", w_max=peak + 1
        ) is uncapped

    def test_compiled_programs_count_their_writes_once(self):
        program = compile_mig(_fresh(_rewritten("dec", "endurance", 1)))
        assert "_write_counts" in vars(program)
        copy = Program(
            instructions=list(program.instructions),
            num_cells=program.num_cells,
            pi_cells=list(program.pi_cells),
            po_cells=list(program.po_cells),
            name=program.name,
        )
        assert program == copy and repr(program) == repr(copy)
        counts = program.write_counts()
        assert counts == copy.write_counts()
        counts[0] += 1  # a copy: the memo is untouched
        assert program.write_counts() == copy.write_counts()


# -- schedule memo -----------------------------------------------------------


def _fresh(mig: Mig) -> Mig:
    """An unpickled copy: same graph, no memoized derived state."""
    return pickle.loads(pickle.dumps(mig))


class _Signed(SelectionStrategy):
    """A parameterised strategy: smallest (``sign=1``) or largest
    (``sign=-1``) computable node id first."""

    def __init__(self, sign: int) -> None:
        self.sign = sign

    def ranks(self, view):
        return [self.sign * node for node in range(len(view.levels))], 0


class _ExpiringSelection(SelectionStrategy):
    """Releasing-count order that sleeps while it first builds its
    ranks, inside the schedule's deadline."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds

    def ranks(self, view):
        time.sleep(self.seconds)
        self.seconds = 0
        return [0] * len(view.levels), 1


class TestScheduleMemo:
    def test_configs_in_sequence_match_fresh_copies(self):
        mig = _fresh(_rewritten("sin", "endurance", 1))
        selection = make_selection("endurance")
        options = [dict(allocation="naive"), dict(allocation="min_write")]
        options += [dict(allocation="min_write", w_max=cap)
                    for cap in (10, 20, 50, 100)]
        for kwargs in options:
            program = compile_mig(mig, selection=selection, **kwargs)
            assert program == compile_mig(
                _fresh(mig), selection=selection, **kwargs
            )
        assert list(mig.fanout_view().schedules) == [selection]

    def test_configs_naming_one_strategy_share_its_schedule(self):
        source = build_benchmark("dec", "tiny")
        mig = _fresh(_rewritten("dec", "endurance", 1))
        for config in (PRESETS["ea-full"], full_management(10),
                       full_management(50)):
            compile_pipeline(source, config, rewritten=mig)
        assert list(mig.fanout_view().schedules) == [
            make_selection("endurance")
        ]

    def test_parameterised_instances_never_share(self):
        mig = _fresh(_rewritten("dec", "endurance", 1))
        forward, backward, twin = _Signed(1), _Signed(-1), _Signed(1)
        programs = [
            compile_mig(mig, selection=strategy)
            for strategy in (forward, backward, twin)
        ]
        assert schedule(mig, forward) != schedule(mig, backward)
        assert programs[0] != programs[1]
        for strategy, program in zip((forward, backward, twin), programs):
            assert program == compile_mig(_fresh(mig), selection=strategy)
        assert len(mig.fanout_view().schedules) == 3

    def test_add_po_drops_the_memo(self):
        mig = _fresh(_rewritten("ctrl", "endurance", 1))
        selection = make_selection("dac16")
        compile_mig(mig, selection=selection)
        view = mig.fanout_view()
        assert view.schedules
        gate = mig.live_gates()[len(mig.live_gates()) // 2]
        mig.add_po(complement(gate << 1), "extra")
        assert mig.fanout_view() is not view
        assert not mig.fanout_view().schedules
        program = compile_mig(mig, selection=selection)
        assert program == compile_mig(_fresh(mig), selection=selection)
        verify_program(program, mig, patterns=64)

    def test_timeout_while_scheduling_stores_nothing(self):
        mig = _fresh(build_benchmark("log2", "tiny"))
        assert mig.num_live_gates() > 2 * CHECKPOINT_GATES
        selection = _ExpiringSelection(seconds=0.1)
        with pytest.raises(StageTimeoutError):
            with time_limit(0.05, stage="compile"):
                compile_mig(mig, selection=selection)
        assert not mig.fanout_view().schedules
        assert not mig.fanout_view().programs
        program = compile_mig(mig, selection=selection)
        assert program == compile_mig(
            _fresh(mig), selection=make_selection("releasing-only")
        )
        assert list(mig.fanout_view().schedules) == [selection]

    def test_concurrent_compiles_of_one_graph_agree(self):
        # The path of serve's inline workers: threads share one graph
        # and so its schedule memo.  More threads than cores and a short
        # switch interval make the schedulers interleave.
        selection = make_selection("endurance")
        workers = 4
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for name in ("sin", "log2", "cavlc"):
                mig = _fresh(build_benchmark(name, "tiny"))
                barrier = threading.Barrier(workers, timeout=30)

                def compile_once(_):
                    barrier.wait()
                    return compile_mig(
                        mig, selection=selection, allocation="min_write"
                    )

                with ThreadPoolExecutor(max_workers=workers) as pool:
                    futures = [
                        pool.submit(compile_once, n) for n in range(workers)
                    ]
                    programs = [f.result(timeout=60) for f in futures]
                expected = compile_mig(
                    _fresh(mig), selection=selection, allocation="min_write"
                )
                assert all(program == expected for program in programs)
                assert list(mig.fanout_view().schedules) == [selection]
        finally:
            sys.setswitchinterval(interval)
