"""Tests for the machine-model layer (repro.arch) and its threading.

Covers the registry (resolution precedence flag > env > default), the
model's capability checks, the word-addressed blocked allocator, and —
most importantly — the parity guarantees: the ``endurance`` and
``dac16`` architectures reproduce the pre-architecture compiler's
programs, write-count distributions, and rendered table artefacts
exactly for every configuration they support.
"""

import pickle

import pytest

from repro.arch import (
    ARCH_ENV_VAR,
    Architecture,
    ArchitectureError,
    CostModel,
    DEFAULT_ARCHITECTURE,
    EnduranceModel,
    Geometry,
    available_architectures,
    get_architecture,
    register_architecture,
    resolve_architecture,
)
from repro.analysis.report import render_architecture_sweep, render_table1
from repro.analysis.scenarios import fig2_mig
from repro.core.manager import PRESETS, compile_pipeline, full_management
from repro.flow import Flow, Session
from repro.plim.allocator import CapacityExceededError, RramAllocator
from repro.synth.registry import build_benchmark


class TestRegistry:
    def test_builtins_registered(self):
        names = available_architectures()
        for name in ("dac16", "endurance", "blocked"):
            assert name in names

    def test_unknown_name_lists_known(self):
        with pytest.raises(ValueError, match="unknown architecture"):
            get_architecture("nonesuch")

    def test_duplicate_registration_refused(self):
        with pytest.raises(ValueError, match="already registered"):
            register_architecture(Architecture(name="endurance"))

    def test_overwrite_allowed_explicitly(self):
        original = get_architecture("endurance")
        try:
            replacement = Architecture(name="endurance", description="x")
            assert register_architecture(
                replacement, overwrite=True
            ) is replacement
            assert get_architecture("endurance") is replacement
        finally:
            register_architecture(original, overwrite=True)

    def test_architecture_objects_pass_through(self):
        custom = Architecture(name="unregistered")
        assert resolve_architecture(custom) is custom


class TestResolutionPrecedence:
    """flag > environment > default, uniform with the other knobs."""

    def test_default_when_nothing_selected(self, monkeypatch):
        monkeypatch.delenv(ARCH_ENV_VAR, raising=False)
        assert resolve_architecture(None).name == DEFAULT_ARCHITECTURE

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv(ARCH_ENV_VAR, "blocked")
        assert resolve_architecture(None).name == "blocked"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(ARCH_ENV_VAR, "blocked")
        assert resolve_architecture("dac16").name == "dac16"

    def test_bad_env_value_raises(self, monkeypatch):
        monkeypatch.setenv(ARCH_ENV_VAR, "nonesuch")
        with pytest.raises(ValueError, match="unknown architecture"):
            resolve_architecture(None)

    def test_session_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(ARCH_ENV_VAR, "blocked")
        assert Session(arch="dac16").architecture.name == "dac16"

    def test_session_env_resolution(self, monkeypatch):
        monkeypatch.setenv(ARCH_ENV_VAR, "blocked")
        assert Session().architecture.name == "blocked"
        assert Session.from_env().architecture.name == "blocked"
        monkeypatch.delenv(ARCH_ENV_VAR)
        assert Session().architecture.name == DEFAULT_ARCHITECTURE

    def test_session_from_args_flag_beats_env(self, monkeypatch):
        import argparse

        monkeypatch.setenv(ARCH_ENV_VAR, "blocked")
        session = Session.from_args(argparse.Namespace(arch="dac16"))
        assert session.architecture.name == "dac16"
        session = Session.from_args(argparse.Namespace())
        assert session.architecture.name == "blocked"

    def test_session_rejects_unknown_arch_eagerly(self):
        with pytest.raises(ValueError, match="unknown architecture"):
            Session(arch="nonesuch")

    def test_spec_round_trip_carries_arch(self):
        spec = pickle.loads(pickle.dumps(Session(arch="blocked").spec()))
        assert spec.arch == "blocked"
        assert Session.from_spec(spec).architecture.name == "blocked"
        # no explicit arch -> spec defers to the worker's ambient env
        assert Session().spec().arch is None


class TestCapabilities:
    def test_dac16_refuses_min_write(self):
        dac16 = get_architecture("dac16")
        with pytest.raises(ArchitectureError, match="wear counters"):
            dac16.validate_allocation("min_write", None)
        assert not dac16.supports_config(PRESETS["min-write"])
        assert dac16.supports_config(PRESETS["naive"])
        assert dac16.supports_config(PRESETS["dac16"])

    def test_retirement_needs_support(self):
        oblivious = Architecture(
            name="x",
            endurance=EnduranceModel(
                wear_tracking=True, supports_retirement=False
            ),
        )
        with pytest.raises(ArchitectureError, match="retire"):
            oblivious.validate_allocation("naive", 10)

    def test_compile_pipeline_fails_fast(self):
        mig = fig2_mig()
        with pytest.raises(ArchitectureError):
            compile_pipeline(mig, PRESETS["ea-full"], arch="dac16")

    def test_capacity_is_enforced(self):
        tight = Architecture(
            name="tiny-array", geometry=Geometry(capacity=4)
        )
        mig = build_benchmark("dec", "tiny")
        with pytest.raises(CapacityExceededError):
            compile_pipeline(mig, PRESETS["naive"], arch=tight)

    def test_allocator_provisioning_rounds_up(self):
        def provisioned(cells, **geometry):
            alloc = RramAllocator(**geometry)
            for _ in range(cells):
                alloc.new_cell()
            return alloc.num_cells

        assert provisioned(0, block_size=8) == 0
        assert provisioned(1, block_size=8) == 8
        assert provisioned(8, block_size=8) == 8
        assert provisioned(9, block_size=8) == 16
        assert provisioned(13) == 13  # crossbar: exact

    def test_allocator_factory_matches_geometry(self):
        assert (
            get_architecture("endurance").make_allocator("naive", None)
        ).block_size == 1
        assert (
            get_architecture("blocked").make_allocator("min_write", 10)
        ).block_size == 8

    def test_cost_model_changes_role_choice(self):
        """A machine with free copies prefers copy destinations, so the
        cost table demonstrably steers translation."""
        free_copy = Architecture(
            name="free-copy",
            cost=CostModel(z_copy_instructions=0, z_request_cells=0),
        )
        mig = build_benchmark("dec", "tiny")
        default = compile_pipeline(mig, PRESETS["naive"])
        skewed = compile_pipeline(mig, PRESETS["naive"], arch=free_copy)
        assert (
            skewed.program.instructions != default.program.instructions
        )


class TestBlockedAllocator:
    def test_provisions_whole_lines(self):
        alloc = RramAllocator(block_size=4)
        assert alloc.num_cells == 0
        for _ in range(5):
            alloc.new_cell()
        assert alloc.num_blocks == 2
        assert alloc.num_cells == 8

    def test_naive_prefers_open_line(self):
        alloc = RramAllocator(block_size=2)
        cells = [alloc.new_cell() for _ in range(4)]  # lines {0,1}, {2,3}
        alloc.release(cells[0])  # line 0 released first
        alloc.release(cells[2])  # line 1 is now the open line
        assert alloc.request() == cells[2]
        assert alloc.request() == cells[0]

    def test_min_write_prefers_least_worn_line(self):
        alloc = RramAllocator(block_size=2, strategy="min_write")
        cells = [alloc.new_cell() for _ in range(4)]
        for _ in range(5):
            alloc.writes[cells[0]] += 1  # line 0 is hot (its worst cell)
        alloc.writes[cells[3]] += 1
        alloc.release(cells[1])  # cold cell, hot line
        alloc.release(cells[2])  # cold cell, cold line
        assert alloc.request() == cells[2]
        assert alloc.request() == cells[1]

    def test_retirement_matches_crossbar_semantics(self):
        alloc = RramAllocator(block_size=4, strategy="min_write", w_max=3)
        cell = alloc.new_cell()
        for _ in range(3):
            alloc.writes[cell] += 1
        alloc.release(cell)
        assert cell in alloc.retired
        assert alloc.request() != cell

    def test_double_release_rejected(self):
        alloc = RramAllocator(block_size=4)
        cell = alloc.new_cell()
        alloc.release(cell)
        with pytest.raises(ValueError, match="double release"):
            alloc.release(cell)

    def test_request_respects_headroom(self):
        alloc = RramAllocator(block_size=4, w_max=5)
        cell = alloc.new_cell()
        for _ in range(4):
            alloc.writes[cell] += 1  # one write of headroom left
        alloc.release(cell)
        assert alloc.request(headroom=2) != cell  # cannot absorb 2
        assert alloc.request(headroom=1) == cell  # still pooled for 1

    def test_capacity_in_whole_lines(self):
        alloc = RramAllocator(block_size=4, capacity=8)
        for _ in range(8):
            alloc.new_cell()
        with pytest.raises(CapacityExceededError):
            alloc.new_cell()

    def test_capacity_must_be_whole_lines(self):
        """A fractional-line capacity cannot be enforced exactly by a
        word-addressed machine — refuse it instead of over-allocating."""
        with pytest.raises(ValueError, match="whole number"):
            RramAllocator(block_size=8, capacity=12)
        with pytest.raises(ValueError, match="whole number"):
            RramAllocator(block_size=8, capacity=4)

    def test_validation(self):
        with pytest.raises(ValueError, match="block size"):
            RramAllocator(block_size=0)
        with pytest.raises(ValueError, match="strategy"):
            RramAllocator("bogus", block_size=4)
        with pytest.raises(ValueError, match="w_max"):
            RramAllocator(block_size=4, w_max=1)


#: Tiny benchmarks exercising distinct shapes for the parity sweeps.
PARITY_BENCHMARKS = ("dec", "ctrl")


class TestParity:
    """`endurance`/`dac16` reproduce the pre-architecture compiler."""

    def test_endurance_arch_is_byte_identical(self):
        """Every preset plus a capped config: identical instruction
        streams, interfaces, and write-count distributions."""
        endurance = get_architecture("endurance")
        configs = list(PRESETS.values()) + [full_management(10)]
        for name in PARITY_BENCHMARKS:
            mig = build_benchmark(name, "tiny")
            for config in configs:
                default = compile_pipeline(mig, config)
                explicit = compile_pipeline(mig, config, arch=endurance)
                assert explicit.program.instructions == (
                    default.program.instructions
                )
                assert explicit.program.num_cells == default.program.num_cells
                assert explicit.program.pi_cells == default.program.pi_cells
                assert explicit.program.po_cells == default.program.po_cells
                assert explicit.program.write_counts() == (
                    default.program.write_counts()
                )

    def test_dac16_arch_matches_on_supported_configs(self):
        dac16 = get_architecture("dac16")
        for name in PARITY_BENCHMARKS:
            mig = build_benchmark(name, "tiny")
            for preset in ("naive", "dac16"):
                default = compile_pipeline(mig, PRESETS[preset])
                explicit = compile_pipeline(
                    mig, PRESETS[preset], arch=dac16
                )
                assert explicit.program.instructions == (
                    default.program.instructions
                )
                assert explicit.program.write_counts() == (
                    default.program.write_counts()
                )

    def test_table_artefacts_byte_identical(self):
        """Rendered Table I through an arch-pinned session equals the
        default session's rendering, byte for byte."""
        plain = Session(preset="tiny").run_matrix(
            PARITY_BENCHMARKS, verify=False
        )
        pinned = Session(preset="tiny", arch="endurance").run_matrix(
            PARITY_BENCHMARKS, verify=False
        )
        assert render_table1(pinned) == render_table1(plain)

    def test_run_matrix_arch_argument_parity(self):
        plain = Session(preset="tiny").run_matrix(PARITY_BENCHMARKS, ["naive"])
        pinned = Session(preset="tiny", arch="endurance").run_matrix(
            PARITY_BENCHMARKS, ["naive"]
        )
        for a, b in zip(plain, pinned):
            assert a.results["naive"].program.instructions == (
                b.results["naive"].program.instructions
            )

    def test_run_matrix_explicit_arch_beats_session(self):
        """An explicit session machine overrides the ambient one
        (endurance) in every table cell."""
        swept = Session(preset="tiny", arch="blocked").run_matrix(
            ["dec"], ["naive"]
        )
        assert swept[0].results["naive"].program.num_cells % 8 == 0


class TestArchThroughFlow:
    def test_flow_override_beats_session(self):
        session = Session(preset="tiny", arch="endurance")
        result = (
            Flow.for_config("naive", session=session)
            .source("dec")
            .arch("blocked")
            .run()
        )
        assert result.architecture.name == "blocked"
        assert result.program.num_cells % 8 == 0

    def test_cache_is_keyed_by_architecture(self):
        session = Session(preset="tiny")
        flow = Flow.for_config("naive", session=session).source("dec")
        default = flow.run()
        blocked = (
            Flow.for_config("naive", session=session)
            .source("dec")
            .arch("blocked")
            .run()
        )
        # Distinct artefacts from one shared cache...
        assert blocked.program.num_cells != default.program.num_cells
        # ...and re-running either is a pure hit on its own entry.
        assert flow.run().stages["compile"].cached
        rerun = (
            Flow.for_config("naive", session=session)
            .source("dec")
            .arch("blocked")
            .run()
        )
        assert rerun.stages["compile"].cached
        assert rerun.program.num_cells == blocked.program.num_cells

    def test_disk_cache_keyed_by_architecture(self, tmp_path):
        cold = Session(preset="tiny", cache_dir=tmp_path, arch="blocked")
        first = (
            Flow.for_config("naive", session=cold).source("dec").run()
        )
        assert not first.stages["compile"].cached
        warm = Session(preset="tiny", cache_dir=tmp_path, arch="blocked")
        second = (
            Flow.for_config("naive", session=warm).source("dec").run()
        )
        assert second.stages["compile"].cached
        assert second.program.instructions == first.program.instructions
        # A different machine misses: entries never leak across archs.
        other = Session(preset="tiny", cache_dir=tmp_path, arch="dac16")
        third = (
            Flow.for_config("naive", session=other).source("dec").run()
        )
        assert not third.stages["compile"].cached

    def test_worker_processes_adopt_the_arch(self):
        """run_matrix(parallel=2) under a non-default architecture is
        identical to the serial evaluation (workers rebuild the machine
        from the session spec)."""
        serial = Session(preset="tiny", arch="blocked").run_matrix(
            PARITY_BENCHMARKS, ["naive", "ea-full"], verify=False
        )
        parallel = Session(
            preset="tiny", arch="blocked", parallel=2
        ).run_matrix(PARITY_BENCHMARKS, ["naive", "ea-full"], verify=False)
        for a, b in zip(serial, parallel):
            for label in ("naive", "ea-full"):
                assert a.results[label].program.instructions == (
                    b.results[label].program.instructions
                )
                assert a.results[label].program.num_cells == (
                    b.results[label].program.num_cells
                )


class TestArchitectureSweep:
    """The machine axis of :meth:`Session.grid`, with its gaps."""

    def test_sweep_covers_all_machines(self):
        session = Session(preset="tiny")
        points = session.grid(
            ["dec"], ("naive", "ea-full"), archs=available_architectures()
        )
        assert {p.arch.name for p in points} == set(available_architectures())
        unsupported = [p for p in points if p.result is None]
        assert {(p.arch.name, p.config.name) for p in unsupported} == {
            ("dac16", "ea-full")
        }
        assert "wear counters" in unsupported[0].reason

    def test_sweep_accepts_explicit_mig(self):
        points = Session().grid(
            [fig2_mig()], ("naive",), archs=("endurance",), verify=True
        )
        assert len(points) == 1 and points[0].result is not None
        assert points[0].result.verified_patterns > 0

    def test_gap_runs_no_stage(self):
        session = Session(preset="tiny")
        flows = []

        class Observer:
            def on_stage_start(self, event):
                flows.append(event.flow)

        session.add_observer(Observer())
        (gap,) = session.grid(["dec"], ("min-write",), archs=("dac16",))
        assert gap.result is None and "wear counters" in gap.reason
        assert flows == []

    def test_render_marks_gaps(self):
        session = Session(preset="tiny")
        points = session.grid(
            ["dec"], ("naive", "min-write"), archs=("dac16",)
        )
        text = render_architecture_sweep(points)
        assert "unsupported pairs:" in text
        assert "min-write[1]" in text
