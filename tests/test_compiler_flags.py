"""Tests for the secondary compiler knobs (ablation flags)."""

from hypothesis import given, settings, strategies as st

from repro.core.manager import EnduranceConfig, compile_pipeline
from repro.plim.compiler import PlimCompiler
from repro.plim.verify import verify_program
from repro.synth.arithmetic import build_adder
from .conftest import make_random_mig


class TestPiOverwrite:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**5))
    def test_disabling_reuse_verifies(self, seed):
        mig = make_random_mig(6, 35, seed=seed)
        program = PlimCompiler(allow_pi_overwrite=False).compile(mig)
        verify_program(program, mig, patterns=64)
        # input devices receive no writes when protected
        for cell in program.pi_cells:
            assert program.write_counts()[cell] == 0

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**5))
    def test_protection_never_cheaper(self, seed):
        mig = make_random_mig(6, 35, seed=seed)
        reuse = PlimCompiler(allow_pi_overwrite=True).compile(mig)
        protect = PlimCompiler(allow_pi_overwrite=False).compile(mig)
        assert protect.num_instructions >= reuse.num_instructions
        assert protect.num_rrams >= reuse.num_rrams

    def test_config_plumbing(self):
        mig = build_adder(width=4)
        cfg = EnduranceConfig(name="protected", allow_pi_overwrite=False)
        result = compile_pipeline(mig, cfg)
        for cell in result.program.pi_cells:
            assert result.program.write_counts()[cell] == 0

