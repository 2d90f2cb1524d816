"""Tests for the PLiM ISA, memory array, and controller."""

import dataclasses
import random
from functools import lru_cache

import pytest

from repro.analysis.scenarios import storage_pressure
from repro.analysis.tables import TABLE1_CONFIGS
from repro.core.manager import PRESETS, compile_pipeline
from repro.mig.simulate import MAX_EXHAUSTIVE_PIS, exhaustive_words, simulate

from repro.plim.controller import (
    CYCLES_PER_INSTRUCTION,
    ExecutionTrace,
    PlimController,
    execute,
)
from repro.plim.isa import (
    OP_CONST0,
    OP_CONST1,
    Program,
    const_operand,
    operand_const_value,
    operand_is_const,
)
from repro.plim.memory import (
    EnduranceExhaustedError,
    RramArray,
    estimate_lifetime,
)
from repro.plim.verify import VerificationError, verify_program
from repro.synth.registry import BENCHMARK_ORDER, build_benchmark


class TestOperands:
    def test_const_encoding(self):
        assert const_operand(0) == OP_CONST0
        assert const_operand(1) == OP_CONST1
        assert operand_is_const(OP_CONST0)
        assert not operand_is_const(0)
        assert operand_const_value(OP_CONST1) == 1
        with pytest.raises(ValueError):
            operand_const_value(3)


class TestProgram:
    def test_write_counts(self):
        prog = Program(
            instructions=[(OP_CONST1, OP_CONST0, 0), (0, OP_CONST0, 1),
                          (OP_CONST0, OP_CONST1, 1)],
            num_cells=3,
        )
        assert prog.write_counts() == [1, 2, 0]

    def test_validate_catches_bad_destination(self):
        prog = Program(instructions=[(OP_CONST0, OP_CONST1, 5)], num_cells=2)
        with pytest.raises(ValueError):
            prog.validate()

    def test_validate_catches_bad_operand(self):
        prog = Program(instructions=[(9, OP_CONST1, 0)], num_cells=2)
        with pytest.raises(ValueError):
            prog.validate()

    def test_validate_names_the_first_bad_instruction(self):
        prog = Program(
            instructions=[
                (OP_CONST0, OP_CONST1, 0),
                (0, 1, 1),
                (OP_CONST0, 7, 1),
                (OP_CONST0, OP_CONST1, 9),
            ],
            num_cells=2,
        )
        with pytest.raises(ValueError, match=r"^instruction 2: bad operand 7$"):
            prog.validate()
        prog.instructions[2] = (OP_CONST0, 1, -1)
        with pytest.raises(
            ValueError, match=r"^instruction 2: bad destination -1$"
        ):
            prog.validate()

    def test_validate_rejects_operands_below_the_constants(self):
        prog = Program(
            instructions=[(OP_CONST1, OP_CONST0, 0), (0, OP_CONST1 - 1, 1)],
            num_cells=2,
        )
        with pytest.raises(
            ValueError, match=rf"^instruction 1: bad operand {OP_CONST1 - 1}$"
        ):
            prog.validate()

    def test_validate_rejects_interface_cells_out_of_range(self):
        prog = Program(
            instructions=[(OP_CONST0, OP_CONST1, 0)],
            num_cells=2,
            pi_cells=[0, 1],
            po_cells=[2],
        )
        with pytest.raises(ValueError, match=r"^interface cell 2 out of range$"):
            prog.validate()
        prog.po_cells = [0]
        prog.pi_cells = [-1]
        with pytest.raises(ValueError, match=r"^interface cell -1 out of range$"):
            prog.validate()
        prog.pi_cells = [1]
        prog.validate()

    def test_value_lifetimes_simple(self):
        # write cell0 at 0, read it at 2, overwrite at 3
        prog = Program(
            instructions=[
                (OP_CONST1, OP_CONST0, 0),
                (OP_CONST1, OP_CONST0, 1),
                (0, OP_CONST0, 2),
                (OP_CONST0, OP_CONST1, 0),
            ],
            num_cells=3,
            po_cells=[2],
        )
        spans = prog.value_lifetimes()
        assert (0, 3) in spans[0]
        # cell 2 is a PO: its span runs to program end
        assert spans[2][-1][1] == 4

    def test_max_blocked_span(self):
        prog = Program(
            instructions=[
                (OP_CONST1, OP_CONST0, 0),
                (OP_CONST1, OP_CONST0, 1),
                (OP_CONST1, OP_CONST0, 1),
                (0, OP_CONST0, 1),
            ],
            num_cells=2,
        )
        longest, _mean = storage_pressure(prog)
        assert longest == 3  # cell0: written@0, read@3


class TestRramArray:
    def test_write_counting(self):
        array = RramArray(2)
        array.write(0, 1)
        array.write(0, 0)
        assert array.writes == [2, 0]
        assert array.max_writes() == 2
        assert array.total_writes() == 2

    def test_preload_not_counted(self):
        array = RramArray(1)
        array.preload(0, 1)
        assert array.writes == [0]
        assert array.read(0) == 1

    def test_endurance_exhaustion(self):
        array = RramArray(1, endurance=2)
        array.write(0, 1)
        array.write(0, 0)
        with pytest.raises(EnduranceExhaustedError) as exc:
            array.write(0, 1)
        assert exc.value.cell == 0
        assert array.writes == [3]

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            RramArray(-1)


class TestLifetime:
    def test_estimate_basic(self):
        est = estimate_lifetime([1, 5, 2], endurance=100)
        assert est.executions == 20
        assert est.first_failing_cell == 1
        assert est.writes_per_execution == 5

    def test_estimate_zero_writes(self):
        est = estimate_lifetime([0, 0], endurance=10)
        assert est.executions == 10
        assert est.first_failing_cell == -1

    def test_balancing_multiplies_lifetime(self):
        skewed = estimate_lifetime([100, 1, 1], endurance=10**6)
        balanced = estimate_lifetime([34, 34, 34], endurance=10**6)
        assert balanced.executions > 2.9 * skewed.executions


class TestController:
    def test_rm3_semantics_exhaustive(self):
        """Z <- MAJ(P, ~Q, Z) over all operand value combinations."""
        for p in range(2):
            for q in range(2):
                for z in range(2):
                    array = RramArray(3)
                    array.preload(0, p)
                    array.preload(1, q)
                    array.preload(2, z)
                    prog = Program(
                        instructions=[(0, 1, 2)], num_cells=3, po_cells=[2]
                    )
                    out = PlimController(array).run(prog)
                    nq = 1 - q
                    expected = (p & nq) | (p & z) | (nq & z)
                    assert out == [expected], (p, q, z)

    def test_const_write_idioms(self):
        array = RramArray(1)
        array.preload(0, 1)
        prog = Program(
            instructions=[(OP_CONST0, OP_CONST1, 0)], num_cells=1,
            po_cells=[0],
        )
        assert PlimController(array).run(prog) == [0]
        prog.instructions = [(OP_CONST1, OP_CONST0, 0)]
        assert PlimController(array).run(prog) == [1]

    def test_cycle_accounting(self):
        array = RramArray(1)
        prog = Program(
            instructions=[(OP_CONST1, OP_CONST0, 0)] * 5, num_cells=1
        )
        ctrl = PlimController(array)
        ctrl.run(prog)
        assert ctrl.cycles == 5 * CYCLES_PER_INSTRUCTION
        assert ctrl.instructions_executed == 5

    def test_trace(self):
        array = RramArray(1)
        prog = Program(instructions=[(OP_CONST1, OP_CONST0, 0)], num_cells=1)
        trace = ExecutionTrace()
        PlimController(array).run(prog, trace=trace)
        assert len(trace.records) == 1
        assert "RM3" in trace.records[0]

    def test_array_too_small(self):
        prog = Program(instructions=[], num_cells=5)
        with pytest.raises(ValueError):
            PlimController(RramArray(2)).run(prog)

    def test_input_arity_checked(self):
        prog = Program(instructions=[], num_cells=1, pi_cells=[0])
        with pytest.raises(ValueError):
            PlimController(RramArray(1)).run(prog, [])

    def test_execute_wrapper(self):
        prog = Program(
            instructions=[(OP_CONST1, OP_CONST0, 0)], num_cells=1,
            po_cells=[0],
        )
        assert execute(prog) == [1]

    def test_endurance_stops_execution(self):
        prog = Program(
            instructions=[(OP_CONST1, OP_CONST0, 0)] * 4, num_cells=1
        )
        array = RramArray(1, endurance=3)
        with pytest.raises(EnduranceExhaustedError):
            PlimController(array).run(prog)


# -- co-simulation parity: flat-list path against the per-write loop -------


@lru_cache(maxsize=None)
def _table1_programs(name):
    """*name* (tiny) and its programs under the Table I configurations."""
    source = build_benchmark(name, "tiny")
    return source, tuple(
        compile_pipeline(source, PRESETS[config]).program
        for config in TABLE1_CONFIGS
    )


def _batches(mig):
    """Two random 64-pattern batches, plus every pattern when the
    function is small enough to enumerate."""
    rng = random.Random(mig.num_pis)
    mask = (1 << 64) - 1
    batches = [
        ([rng.getrandbits(64) for _ in range(mig.num_pis)], mask)
        for _ in range(2)
    ]
    if mig.num_pis <= 12:
        width = 1 << mig.num_pis
        words = exhaustive_words(mig.num_pis, width)
        batches.append((words, (1 << width) - 1))
    return batches


class TestCoSimulationParity:
    @pytest.mark.parametrize("name", BENCHMARK_ORDER)
    def test_flat_list_path_matches_per_write_path(self, name):
        mig, programs = _table1_programs(name)
        for program in programs:
            # One spare cell beyond the program, and every batch run
            # back to back on the same array: values and wear carry over.
            fast = PlimController(RramArray(program.num_cells + 1))
            slow = PlimController(RramArray(program.num_cells + 1))
            for words, mask in _batches(mig):
                got = fast.run(program, words, mask=mask)
                assert got == slow.run(
                    program, words, mask=mask, trace=ExecutionTrace()
                )
                assert fast.array.values == slow.array.values
                assert fast.array.writes == slow.array.writes
                assert (fast.cycles, fast.instructions_executed) == (
                    slow.cycles, slow.instructions_executed
                )
            assert fast.array.writes[: program.num_cells] == [
                len(_batches(mig)) * count
                for count in program.write_counts()
            ]

    @pytest.mark.parametrize("name", BENCHMARK_ORDER)
    def test_budgeted_array_raises_at_the_exhausting_write(self, name):
        mig, programs = _table1_programs(name)
        words, mask = _batches(mig)[0]
        for program in programs:
            budget = max(program.write_counts()) - 1
            seen = [0] * program.num_cells
            for _, _, z in program.instructions:
                seen[z] += 1
                if seen[z] > budget:
                    break
            array = RramArray(program.num_cells, endurance=budget)
            with pytest.raises(EnduranceExhaustedError) as excinfo:
                PlimController(array).run(program, words, mask=mask)
            error = excinfo.value
            assert (error.cell, error.writes, error.endurance) == (
                z, budget + 1, budget
            )
            assert array.writes == seen

    def test_bits_beyond_the_mask_are_cut_like_a_write(self):
        # Cells left holding wider words (e.g. by a wider earlier batch)
        # are read as they are; only the written result is masked.
        prog = Program(
            instructions=[(0, OP_CONST0, 1), (1, 0, 2)], num_cells=3,
            po_cells=[1, 2],
        )
        arrays = [RramArray(3), RramArray(3)]
        for array in arrays:
            array.values[:] = [0b111, 0b101, 0b110]
        fast = PlimController(arrays[0]).run(prog, mask=0b1)
        slow = PlimController(arrays[1]).run(
            prog, mask=0b1, trace=ExecutionTrace()
        )
        assert fast == slow == [1, 0]
        assert arrays[0].values == arrays[1].values == [0b111, 1, 0]



def _zero_a_po(mig, program):
    """*program* with one ``RM3(0, 1, z)`` appended on the cell of a PO
    that is not constant 0: ``z <- MAJ(0, ~1, z) = 0``."""
    words, mask = _batches(mig)[0]
    outputs = simulate(mig, words, mask=mask)
    po = next(i for i, value in enumerate(outputs) if value)
    return dataclasses.replace(
        program,
        instructions=program.instructions
        + [(OP_CONST0, OP_CONST1, program.po_cells[po])],
    )


class TestVerifierRejects:
    """``verify_program`` raises on a program that computes another
    function, on both of its paths, and so does the verify stage."""

    @pytest.mark.parametrize(
        "name,exhaustive", [("ctrl", True), ("adder", False)]
    )
    def test_mutated_program(self, name, exhaustive):
        mig = build_benchmark(name, "tiny")
        assert (mig.num_pis <= 10) == exhaustive  # the exhaustive limit
        program = compile_pipeline(mig, PRESETS["naive"]).program
        mutated = _zero_a_po(mig, program)
        assert verify_program(program, mig, patterns=64)
        # The good program filled the graph's simulation memo, and the
        # mutated one is checked against those very outputs.
        memo = {
            key: entry for key, entry in mig._derived.items()
            if isinstance(key, tuple) and key[0] == "simulate"
        }
        assert memo
        with pytest.raises(VerificationError):
            verify_program(mutated, mig, patterns=64)
        for key, entry in memo.items():
            assert mig._derived[key] is entry

    def test_exhaustive_limit_is_capped(self):
        """Exhaustive co-simulation stops where ``equivalent`` does."""
        mig = build_benchmark("dec", "tiny")
        program = compile_pipeline(mig, PRESETS["naive"]).program
        with pytest.raises(ValueError, match="MAX_EXHAUSTIVE_PIS"):
            verify_program(
                program, mig, exhaustive_limit=MAX_EXHAUSTIVE_PIS + 1
            )
        assert verify_program(
            program, mig, exhaustive_limit=MAX_EXHAUSTIVE_PIS
        )

    def test_verify_stage(self, monkeypatch):
        from repro.analysis import runner
        from repro.flow import Session

        compile_pipeline = runner.compile_pipeline

        def miscompile(mig, config, **kwargs):
            result = compile_pipeline(mig, config, **kwargs)
            return dataclasses.replace(
                result, program=_zero_a_po(mig, result.program)
            )

        monkeypatch.setattr(runner, "compile_pipeline", miscompile)
        session = Session(preset="tiny")
        session.evaluate_suite(["ctrl"], configs=["naive"], verify=False)
        with pytest.raises(VerificationError):
            session.evaluate_suite(["ctrl"], configs=["naive"], verify=True)
