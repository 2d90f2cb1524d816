"""Tests for the table harness and text renderers."""

import math

import pytest

from repro.analysis.report import (
    render_headline,
    render_table1,
    render_table2,
    render_table3,
)
from repro.analysis.tables import TABLE1_CONFIGS, average_row, headline_metrics
from repro.flow import Session
from repro.synth.arithmetic import build_adder

SUBSET = ["adder", "dec", "ctrl"]


@pytest.fixture(scope="module")
def evaluations():
    session = Session(preset="tiny")
    return session.evaluate_suite(SUBSET, caps=[10, 100])


class TestEvaluate:
    def test_all_configs_present(self, evaluations):
        for ev in evaluations:
            for cfg in TABLE1_CONFIGS:
                assert cfg in ev.results
            assert "wmax10" in ev.results
            assert "wmax100" in ev.results

    def test_interface_recorded(self, evaluations):
        by_name = {e.name: e for e in evaluations}
        assert by_name["dec"].num_pis == 4  # tiny preset
        assert by_name["dec"].num_pos == 16

    def test_improvement_relative_to_naive(self, evaluations):
        for ev in evaluations:
            assert ev.improvement("naive") == 0.0

    def test_cap_respected_in_table3_results(self, evaluations):
        for ev in evaluations:
            assert ev.stats("wmax10").max_writes <= 10
            assert ev.stats("wmax100").max_writes <= 100

    def test_verification_enabled_by_default(self):
        # the suite verifies a built graph without error
        (ev,) = Session().evaluate_suite(
            [build_adder(width=3)], configs=["naive"]
        )
        assert ev.results["naive"].num_instructions > 0

    def test_session_optimizer_is_adopted(self):
        session = Session(preset="tiny", opt="greedy:write_cost")
        mig = session.cache.benchmark_mig("dec", "tiny")
        session.run_matrix([mig], ["ea-full"])
        session.flow("ea-full").source("dec").run()
        assert session.cache.misses == 1  # the flow hit the same program

    def test_evaluate_benchmark_by_name(self):
        (ev,) = Session(preset="tiny").run_matrix(["dec"], ["naive"])
        assert ev.name == "dec"

    def test_custom_effort(self):
        (ev,) = Session().run_matrix(
            [build_adder(width=3)], ["dac16"], effort=1
        )
        assert "dac16" in ev.results


class TestAggregates:
    def test_average_row_fields(self, evaluations):
        avg = average_row(evaluations, "ea-full")
        for key in ("min", "max", "stdev", "instructions", "rrams",
                    "improvement"):
            assert key in avg
        assert avg["stdev"] >= 0

    def test_average_improvement_semantics(self, evaluations):
        avg = average_row(evaluations, "naive")
        assert math.isclose(avg["improvement"], 0.0, abs_tol=1e-9)

    def test_headline_metrics(self, evaluations):
        metrics = headline_metrics(evaluations)
        assert set(metrics) == {
            "stdev_improvement_pct",
            "instruction_reduction_pct",
            "rram_reduction_pct",
        }
        # the whole point of the paper: better balance AND fewer
        # instructions than naive at W_max = 100
        assert metrics["stdev_improvement_pct"] > 0
        assert metrics["instruction_reduction_pct"] > 0


class TestRenderers:
    def test_table1_contains_benchmarks_and_avg(self, evaluations):
        text = render_table1(evaluations)
        for name in SUBSET:
            assert name in text
        assert "AVG" in text
        assert "impr." in text

    def test_table2_shape(self, evaluations):
        text = render_table2(evaluations)
        assert "TABLE II" in text
        assert "#I" in text and "#R" in text

    def test_table3_shape(self, evaluations):
        text = render_table3(evaluations, caps=[10, 100])
        assert "TABLE III" in text
        assert "W=10:#I" in text

    def test_table3_missing_cap_dashes(self, evaluations):
        text = render_table3(evaluations, caps=[10, 20])
        assert "-" in text  # cap 20 was not evaluated

    def test_headline_render(self, evaluations):
        text = render_headline(evaluations)
        assert "paper: 86.65%" in text
        assert "%" in text
