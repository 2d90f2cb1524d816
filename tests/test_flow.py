"""Tests for the repro.flow Session + pipeline API."""

import pickle

import pytest

from repro.analysis.runner import ExperimentCache
from repro.core.manager import (
    PRESETS,
    compile_pipeline,
    full_management,
)
from repro.flow import Flow, FlowResult, Session, SessionSpec, StageEvent
from repro.opt import Optimizer

SUBSET = ["adder", "dec"]


class TestSessionConstruction:
    def test_defaults(self):
        session = Session()
        assert session.cache_dir is None
        assert session.parallel is None
        assert session.preset == "default"
        assert session.disk is None
        assert isinstance(session.cache, ExperimentCache)

    def test_explicit_cache_dir_attaches_disk(self, tmp_path):
        session = Session(cache_dir=tmp_path / "cache")
        assert session.disk is not None
        assert str(session.disk.root) == str(tmp_path / "cache")

    def test_adopted_cache_wins_over_cache_dir(self, tmp_path):
        cache = ExperimentCache()
        session = Session(cache=cache, cache_dir=tmp_path)
        assert session.cache is cache
        assert session.cache_dir is None  # adopted cache has no disk

    def test_unknown_backend_rejected_eagerly(self):
        # the simulation engine is not a session knob
        with pytest.raises(TypeError, match="backend"):
            Session(backend="numpy")
        with pytest.raises(TypeError, match="backend"):
            SessionSpec(backend="numpy")


class TestSessionEnvPrecedence:
    def test_from_env_reads_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envroot"))
        session = Session.from_env(preset="tiny")
        assert session.cache_dir == str(tmp_path / "envroot")
        assert session.preset == "tiny"

    def test_from_env_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        session = Session.from_env()
        assert session.cache_dir is None

    def test_from_args_flag_beats_env(self, tmp_path, monkeypatch):
        import argparse

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        args = argparse.Namespace(cache_dir=str(tmp_path / "flag"))
        session = Session.from_args(args)
        assert session.cache_dir == str(tmp_path / "flag")

    def test_from_args_env_fallback_and_none(self, tmp_path, monkeypatch):
        import argparse

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        # flag absent entirely (namespace without the attribute)
        assert Session.from_args(argparse.Namespace()).cache_dir == str(
            tmp_path / "env"
        )
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert Session.from_args(argparse.Namespace()).cache_dir is None

    def test_spec_round_trip_pickles(self, tmp_path):
        session = Session(
            arch="blocked", cache_dir=tmp_path, parallel=4, preset="tiny"
        )
        spec = pickle.loads(pickle.dumps(session.spec()))
        assert spec == SessionSpec(
            arch="blocked", cache_dir=str(tmp_path), preset="tiny"
        )
        rebuilt = Session.from_spec(spec)
        assert rebuilt.arch == "blocked"
        assert rebuilt.preset == "tiny"
        assert str(rebuilt.disk.root) == str(tmp_path)
        assert rebuilt.parallel is None  # workers never fan out again


class TestFlowStages:
    def test_flow_matches_raw_pipeline(self):
        session = Session(preset="tiny")
        result = Flow.for_config("ea-full", session=session).source("adder").run()
        assert isinstance(result, FlowResult)
        reference = compile_pipeline(result.mig, PRESETS["ea-full"])
        assert result.compilation.num_instructions == reference.num_instructions
        assert (
            result.program.write_counts() == reference.program.write_counts()
        )
        assert result.rewritten.num_live_gates() == result.compilation.mig_gates_after

    def test_stage_artifacts_typed_and_ordered(self):
        session = Session(preset="tiny")
        result = (
            Flow.for_config("ea-full", session=session)
            .source("dec")
            .verify(16)
            .run()
        )
        assert list(result.stages) == ["source", "rewrite", "compile", "verify"]
        assert all(a.seconds >= 0 for a in result.stages.values())
        assert result.verified_patterns == 16

    def test_verify_stage_keeps_counters_honest(self):
        """A cold verified flow is one compilation: one miss, no
        self-congratulating hit from the verify stage."""
        session = Session(preset="tiny")
        Flow.for_config("naive", session=session).source("dec").verify(16).run()
        assert (session.cache.hits, session.cache.misses) == (0, 1)

    def test_second_run_hits_every_stage(self):
        session = Session(preset="tiny")
        flow = Flow.for_config("ea-full", session=session).source("adder").verify(16)
        first = flow.run()
        assert not first.stages["compile"].cached
        misses = session.cache.misses
        second = flow.run()
        assert all(a.cached for a in second.stages.values())
        assert session.cache.misses == misses  # nothing recompiled

    def test_stage_caching_through_disk(self, tmp_path):
        cold = Session(preset="tiny", cache_dir=tmp_path)
        a = Flow.for_config("ea-full", session=cold).source("adder").run()
        # A fresh session over the same root deserialises instead of
        # compiling: every stage reports cached, no compile misses.
        warm = Session(preset="tiny", cache_dir=tmp_path)
        b = Flow.for_config("ea-full", session=warm).source("adder").run()
        assert all(artifact.cached for artifact in b.stages.values())
        assert warm.cache.misses == 0
        assert warm.disk.hits >= 3  # mig + rewrite + result deserialised
        assert a.program.write_counts() == b.program.write_counts()

    def test_rewrite_stage_persisted_to_disk(self, tmp_path):
        cold = Session(preset="tiny", cache_dir=tmp_path)
        Flow.for_config("ea-rewrite", session=cold).source("dec").run()
        warm = Session(preset="tiny", cache_dir=tmp_path)
        mig = warm.cache.benchmark_mig("dec", "tiny")
        # ask for a *different* configuration sharing the same script:
        # the compile misses, but the rewriting comes back from disk
        hits = warm.disk.hits
        warm.cache.rewritten(
            mig, "endurance", 5,
            optimizer=Optimizer("script", warm.architecture),
        )
        assert warm.disk.hits == hits + 1

    def test_explicit_rewrite_overrides_config_script(self):
        session = Session(preset="tiny")
        vanilla = Flow.for_config("naive", session=session).source("adder").run()
        rewired = (
            Flow.for_config("naive", session=session)
            .source("adder")
            .rewrite("endurance", effort=2)
            .run()
        )
        assert rewired.compilation.config.rewriting == "endurance"
        assert rewired.compilation.config.effort == 2
        assert vanilla.compilation.config.rewriting == "none"

    def test_source_required(self):
        with pytest.raises(ValueError, match="no source"):
            Flow.for_config("naive", session=Session()).run()

    def test_unknown_preset_name_rejected(self):
        with pytest.raises(ValueError, match="unknown configuration preset"):
            Flow(Session()).compile("turbo")

    def test_for_config_takes_a_capped_config(self):
        session = Session(preset="tiny")
        result = (
            Flow.for_config(full_management(10), session=session)
            .source("dec").run()
        )
        assert result.compilation.config.name == "ea-full+wmax10"


class TestObserverHooks:
    def test_flow_hook_ordering(self):
        session = Session(preset="tiny")
        events = []
        (
            Flow.for_config("naive", session=session)
            .source("dec")
            .verify(8)
            .on_stage_start(lambda e: events.append(("start", e.stage)))
            .on_stage_end(lambda e: events.append(("end", e.stage)))
            .run()
        )
        assert events == [
            ("start", "source"), ("end", "source"),
            ("start", "rewrite"), ("end", "rewrite"),
            ("start", "compile"), ("end", "compile"),
            ("start", "verify"), ("end", "verify"),
        ]

    def test_session_observer_sees_flow_and_matrix_events(self):
        session = Session(preset="tiny")
        seen = []

        class Observer:
            def on_stage_start(self, event):
                seen.append(("start", event.stage, event.seconds))

            def on_stage_end(self, event):
                seen.append(("end", event.stage, event.seconds))

        observer = session.add_observer(Observer())
        Flow.for_config("naive", session=session).source("dec").run()
        assert ("start", "source", None) == seen[0]
        end_events = [e for e in seen if e[0] == "end"]
        assert all(e[2] is not None for e in end_events)
        seen.clear()
        session.run_matrix(["dec"], ["naive"])
        # a table cell runs the same stage sequence inside the matrix
        assert [e[:2] for e in seen] == [
            ("start", "matrix"),
            ("start", "source"), ("end", "source"),
            ("start", "rewrite"), ("end", "rewrite"),
            ("start", "compile"), ("end", "compile"),
            ("end", "matrix"),
        ]
        seen.clear()
        session.remove_observer(observer)
        Flow.for_config("naive", session=session).source("dec").run()
        assert not seen

    def test_end_event_carries_cached_flag(self):
        session = Session(preset="tiny")
        flags = []
        flow = (
            Flow.for_config("naive", session=session)
            .source("dec")
            .on_stage_end(lambda e: flags.append((e.stage, e.cached)))
        )
        flow.run()
        assert ("compile", False) in flags
        flags.clear()
        flow.run()
        assert set(flags) == {
            ("source", True), ("rewrite", True), ("compile", True)
        }

    def test_stage_event_finished_is_pure(self):
        start = StageEvent(stage="compile", flow="x/naive")
        end = start.finished(seconds=1.5, cached=True)
        assert start.seconds is None and end.seconds == 1.5
        assert end.stage == "compile" and end.cached is True


class TestMatrixThroughSession:
    @pytest.mark.slow
    def test_parallel_spec_round_trip(self):
        """Workers rebuilt from the session spec produce bit-identical
        results to the serial path."""
        serial = Session(preset="tiny")
        fanned = Session(preset="tiny", parallel=2)
        a = serial.run_matrix(SUBSET, ["naive", "ea-full"])
        b = fanned.run_matrix(SUBSET, ["naive", "ea-full"])
        for x, y in zip(a, b):
            assert x.name == y.name
            for key in x.results:
                assert (
                    x.results[key].program.write_counts()
                    == y.results[key].program.write_counts()
                )

    def test_evaluate_suite_defaults_to_table1_columns(self):
        session = Session(preset="tiny")
        (ev,) = session.evaluate_suite(["dec"], verify=False)
        assert list(ev.results) == [
            "naive", "dac16", "min-write", "ea-rewrite", "ea-full",
        ]
