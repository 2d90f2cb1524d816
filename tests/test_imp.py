"""Tests for the IMPLY (material implication) baseline of Section II."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.stats import WriteTrafficStats
from repro.imp.gates import ImpProgram, NandNetlist, OP_FALSE, OP_IMP, mig_to_nand
from repro.imp.simulate import ImpSimulator, verify_imp_program
from repro.imp.synthesize import (
    ImpSynthesizer,
    WorkPoolExhaustedError,
    required_pool_estimate,
    synthesize_imp,
)
from repro.mig.graph import Mig
from repro.mig.signal import complement
from repro.mig.simulate import simulate
from .conftest import make_random_mig


class TestNandNetlist:
    def test_evaluate_nand(self):
        net = NandNetlist(num_inputs=2)
        out = net.add_nand(0, 1)
        net.outputs.append(out)
        assert net.evaluate([1, 1]) == [0]
        assert net.evaluate([1, 0]) == [1]

    def test_not_gate(self):
        net = NandNetlist(num_inputs=1)
        net.outputs.append(net.add_not(0))
        assert net.evaluate([0]) == [1]
        assert net.evaluate([1]) == [0]

    def test_depth(self):
        net = NandNetlist(num_inputs=2)
        a = net.add_nand(0, 1)
        b = net.add_not(a)
        net.outputs.append(b)
        assert net.depth() == 2


class TestMigToNand:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**5))
    def test_decomposition_equivalent(self, seed):
        mig = make_random_mig(5, 25, seed=seed)
        net = mig_to_nand(mig)
        mask = (1 << 32) - 1
        import random as rnd

        rng = rnd.Random(seed)
        for _ in range(4):
            words = [rng.getrandbits(32) for _ in range(mig.num_pis)]
            assert net.evaluate(words, mask=mask) == simulate(
                mig, words, mask=mask
            )

    def test_complemented_po(self):
        mig = Mig()
        a, b = mig.add_pi(), mig.add_pi()
        mig.add_po(complement(mig.add_and(a, b)), "nand")
        net = mig_to_nand(mig)
        assert net.evaluate([1, 1]) == [0]

    def test_constant_po(self):
        mig = Mig()
        mig.add_pi("a")
        mig.add_po(1, "one")
        net = mig_to_nand(mig)
        assert net.evaluate([0]) == [1]
        assert net.evaluate([1]) == [1]

    def test_needs_inputs(self):
        mig = Mig()
        mig.add_po(1, "one")
        with pytest.raises(ValueError):
            mig_to_nand(mig)

    def test_six_nands_per_majority(self):
        mig = Mig()
        a, b, c = (mig.add_pi() for _ in range(3))
        mig.add_po(mig.add_maj(a, b, c))
        net = mig_to_nand(mig)
        assert len(net.gates) == 6


class TestUnboundedSynthesis:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**5))
    def test_program_verifies(self, seed):
        mig = make_random_mig(5, 25, seed=seed)
        net = mig_to_nand(mig)
        prog = synthesize_imp(net)
        assert verify_imp_program(prog, net)

    def test_nand_is_three_operations(self):
        net = NandNetlist(num_inputs=2)
        net.outputs.append(net.add_nand(0, 1))
        prog = synthesize_imp(net)
        assert prog.num_instructions == 3
        ops = [ins[0] for ins in prog.instructions]
        assert ops == [OP_FALSE, OP_IMP, OP_IMP]

    def test_work_device_takes_all_writes(self):
        """The Section II observation: inputs are never written; the work
        device absorbs every pulse."""
        net = NandNetlist(num_inputs=2)
        net.outputs.append(net.add_nand(0, 1))
        prog = synthesize_imp(net)
        counts = prog.write_counts()
        assert counts[0] == 0 and counts[1] == 0
        assert counts[2] == 3

    def test_dead_gates_skipped(self):
        net = NandNetlist(num_inputs=2)
        net.add_nand(0, 1)  # dead
        net.outputs.append(net.add_nand(1, 0))
        prog = synthesize_imp(net)
        assert prog.num_instructions == 3


class TestBoundedSynthesis:
    def test_small_pool_rejected(self):
        with pytest.raises(ValueError):
            ImpSynthesizer(work_devices=2)

    def test_bounded_verifies(self):
        mig = make_random_mig(5, 20, seed=9)
        net = mig_to_nand(mig)
        k = required_pool_estimate(net)
        prog = synthesize_imp(net, work_devices=k)
        assert verify_imp_program(prog, net)
        assert prog.num_cells == net.num_inputs + k

    def test_rematerialisation_costs_instructions(self):
        mig = make_random_mig(5, 20, seed=9)
        net = mig_to_nand(mig)
        unbounded = synthesize_imp(net)
        k = max(3, required_pool_estimate(net) // 2)
        try:
            bounded = synthesize_imp(net, work_devices=k)
        except WorkPoolExhaustedError:
            pytest.skip("pool too small for this netlist shape")
        assert bounded.num_instructions >= unbounded.num_instructions
        assert verify_imp_program(bounded, net)

    def test_exhaustion_raises(self):
        # a deep chain with a 3-slot pool cannot be scheduled
        net = NandNetlist(num_inputs=2)
        cur = net.add_nand(0, 1)
        side = []
        for _ in range(30):
            nxt = net.add_nand(cur, 1)
            side.append(cur)
            cur = net.add_nand(nxt, cur)
        net.outputs.extend(side[-3:] + [cur])
        with pytest.raises(WorkPoolExhaustedError):
            synthesize_imp(net, work_devices=3)

    def test_write_concentration_on_pool(self):
        """Bounded pools concentrate the whole computation's writes on K
        devices — the paper's argument against two-device schemes."""
        mig = make_random_mig(6, 30, seed=17)
        net = mig_to_nand(mig)
        k = required_pool_estimate(net)
        prog = synthesize_imp(net, work_devices=k)
        counts = prog.write_counts()
        input_writes = sum(counts[: net.num_inputs])
        assert input_writes == 0
        assert sum(counts[net.num_inputs:]) == prog.num_instructions


class TestImpVsRm3:
    def test_imp_concentrates_writes_more_than_plim(self):
        """Qualitative Section II claim: the IMP NAND flow has a worse
        (more concentrated) write distribution than the RM3 flow with
        endurance management."""
        from repro.core.manager import PRESETS, compile_pipeline
        from repro.synth.registry import build_benchmark

        mig = build_benchmark("ctrl", preset="tiny")
        net = mig_to_nand(mig)
        imp_prog = synthesize_imp(net)
        imp_stats = WriteTrafficStats.from_counts(imp_prog.write_counts())
        plim = compile_pipeline(mig, PRESETS["ea-full"])
        assert imp_stats.stdev > plim.stats.stdev
        assert imp_stats.max_writes > plim.stats.max_writes


class TestSimulator:
    def test_false_and_imp_semantics(self):
        sim = ImpSimulator(2)
        prog = ImpProgram(
            instructions=[(OP_FALSE, 1), (OP_IMP, 0, 1)],
            num_cells=2,
            pi_cells=[0],
            po_cells=[1],
        )
        assert sim.run(prog, [1]) == [0]  # ~1 | 0
        sim2 = ImpSimulator(2)
        assert sim2.run(prog, [0]) == [1]

    def test_write_counting_excludes_preload(self):
        sim = ImpSimulator(2)
        prog = ImpProgram(
            instructions=[(OP_FALSE, 1)], num_cells=2, pi_cells=[0],
            po_cells=[1],
        )
        sim.run(prog, [1])
        assert sim.writes == [0, 1]

    def test_arity_check(self):
        sim = ImpSimulator(1)
        prog = ImpProgram(num_cells=1, pi_cells=[0])
        with pytest.raises(ValueError):
            sim.run(prog, [])
