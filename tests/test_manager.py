"""Tests for configurations, presets, and the managed pipeline."""

import pytest

from repro.core.manager import (
    EnduranceConfig,
    PRESETS,
    compile_pipeline,
    full_management,
)
from repro.core.policies import (
    AllocationPolicy,
    MIN_WRITE_ALLOCATION,
    NAIVE_ALLOCATION,
    capped_allocation,
)
from repro.core.selection import SELECTIONS, make_selection
from repro.plim.verify import verify_program
from repro.synth.arithmetic import build_adder
from .conftest import make_random_mig


class TestPolicies:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            AllocationPolicy("greedy")
        with pytest.raises(ValueError):
            AllocationPolicy("min_write", w_max=2)

    def test_labels(self):
        assert NAIVE_ALLOCATION.label == "naive"
        assert capped_allocation(10).label == "min_write, w_max=10"
        assert MIN_WRITE_ALLOCATION.strategy == "min_write"


class TestSelections:
    def test_registry_contents(self):
        assert {"topo", "dac16", "endurance"} <= set(SELECTIONS)

    def test_make_selection_unknown(self):
        with pytest.raises(ValueError):
            make_selection("alphabetical")

    def test_key_orderings(self):
        class FakeView:
            fanout_level_index = [0, 5, 2]
            depth = 5
            levels = [0, 1, 1]

        releasing = {1: 3, 2: 1}

        def key(selection, node):
            rank, weight = selection.ranks(FakeView)
            return (rank[node] - weight * releasing[node], node)

        dac16 = make_selection("dac16")
        ea = make_selection("endurance")
        # dac16 prefers max releasing (node 1)
        assert key(dac16, 1) < key(dac16, 2)
        # endurance prefers min fanout level (node 2)
        assert key(ea, 2) < key(ea, 1)


class TestPresets:
    def test_table1_columns_exist(self):
        for name in ("naive", "dac16", "min-write", "ea-rewrite", "ea-full"):
            assert name in PRESETS

    def test_preset_composition_matches_paper(self):
        assert PRESETS["naive"].rewriting == "none"
        assert PRESETS["naive"].selection == "topo"
        assert PRESETS["dac16"].rewriting == "dac16"
        assert PRESETS["min-write"].allocation.strategy == "min_write"
        assert PRESETS["ea-rewrite"].rewriting == "endurance"
        assert PRESETS["ea-rewrite"].selection == "dac16"
        assert PRESETS["ea-full"].selection == "endurance"

    def test_effort_defaults_to_paper_value(self):
        assert all(cfg.effort == 5 for cfg in PRESETS.values())

    def test_full_management(self):
        cfg = full_management(20)
        assert cfg.allocation.w_max == 20
        assert cfg.allocation.strategy == "min_write"
        assert cfg.rewriting == "endurance"
        assert cfg.selection == "endurance"
        assert "wmax20" in cfg.name

    def test_with_cap_none(self):
        cfg = PRESETS["ea-full"].with_cap(None)
        assert cfg.allocation.w_max is None
        assert cfg.name == "ea-full"


class TestPipeline:
    def test_compile_all_presets_verified(self):
        mig = build_adder(width=4)
        for cfg in PRESETS.values():
            result = compile_pipeline(mig, cfg)
            verify_program(result.program, mig)
            assert result.num_instructions == result.program.num_instructions
            assert result.num_rrams == result.program.num_rrams
            assert result.stats.num_devices == result.num_rrams

    def test_rewriting_recorded_in_result(self):
        mig = build_adder(width=6)  # elaborated: rewriting shrinks it
        result = compile_pipeline(mig, PRESETS["ea-full"])
        assert result.mig_gates_before > result.mig_gates_after

    def test_custom_effort(self):
        mig = make_random_mig(5, 30, seed=4)
        cfg = EnduranceConfig(
            name="quick", rewriting="endurance", selection="endurance",
            effort=1,
        )
        result = compile_pipeline(mig, cfg)
        verify_program(result.program, mig)

    def test_capped_pipeline_respects_cap(self):
        mig = build_adder(width=6)
        result = compile_pipeline(mig, full_management(10))
        verify_program(result.program, mig)
        assert result.stats.max_writes <= 10

    def test_naive_uses_no_rewriting(self):
        mig = build_adder(width=6)
        result = compile_pipeline(mig, PRESETS["naive"])
        assert result.mig_gates_before == result.mig_gates_after
