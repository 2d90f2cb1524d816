"""Tests for the circuit-source layer (:mod:`repro.source`).

Covers resolution precedence, content-addressed identities, the cache
read-through for external sources, and the acceptance property of the
layer: an imported netlist and a frontend function both run the full
source -> rewrite -> compile -> verify pipeline under multiple
(architecture, optimizer) combinations with the *second* run served
entirely from the disk cache.
"""

import os
import pickle

import pytest

from repro.analysis.runner import ExperimentCache
from repro.flow import Flow, Session
from repro.mig.graph import Mig
from repro.source import (
    FileSource,
    FrontendSource,
    MigSource,
    RegistrySource,
    Source,
    SOURCE_ENV_VAR,
    available_sources,
    get_source,
    register_source,
    resolve_source,
)
from repro.source import registry as source_registry
from repro.synth.frontend import mig_function
from repro.synth.registry import BENCHMARK_ORDER
from .conftest import make_random_mig

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
FULLADDER_BLIF = os.path.join(FIXTURES, "fulladder.blif")
ANDOR_AAG = os.path.join(FIXTURES, "andor.aag")


@mig_function(width=3, name="satsub")
def saturating_sub(a, b):
    return (a - b) & 7 if a >= b else 0


class TestResolveSource:
    def test_registry_names_preregistered(self):
        assert set(BENCHMARK_ORDER) <= set(available_sources())
        source = resolve_source("adder")
        assert source.kind == "registry"
        assert source is get_source("adder")

    def test_path_string(self):
        source = resolve_source(FULLADDER_BLIF)
        assert isinstance(source, FileSource)
        assert source.kind == "file"
        assert source.name == "fulladder"

    def test_mig_and_frontend_objects(self):
        mig = make_random_mig(4, 10, seed=1)
        assert isinstance(resolve_source(mig), MigSource)
        assert isinstance(resolve_source(saturating_sub), FrontendSource)

    def test_source_passthrough(self):
        source = FileSource(ANDOR_AAG)
        assert resolve_source(source) is source

    def test_none_reads_env(self, monkeypatch):
        monkeypatch.setenv(SOURCE_ENV_VAR, "adder")
        assert resolve_source(None).name == "adder"

    def test_none_without_env_raises(self, monkeypatch):
        monkeypatch.delenv(SOURCE_ENV_VAR, raising=False)
        with pytest.raises(ValueError, match="no source selected"):
            resolve_source(None)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown source"):
            resolve_source("not_a_benchmark")

    def test_missing_file_error_names_path(self, tmp_path):
        with pytest.raises(OSError):
            resolve_source(str(tmp_path / "missing.blif"))

    def test_unsupported_type(self):
        with pytest.raises(TypeError, match="cannot interpret"):
            resolve_source(42)

    def test_register_rejects_duplicates(self):
        with pytest.raises(ValueError, match="already registered"):
            register_source(RegistrySource("adder"))

    def test_register_custom_source(self):
        source = FileSource(ANDOR_AAG)
        try:
            register_source(source)
            assert resolve_source("andor") is source
        finally:
            source_registry._REGISTRY.pop("andor", None)


class TestIdentity:
    def test_registry_identity_is_classic_key(self):
        assert RegistrySource("adder").identity("tiny") == ("adder", "tiny")
        assert RegistrySource("adder").label("tiny") == "adder@tiny"

    def test_file_identity_pins_bytes_not_path(self, tmp_path):
        original = FileSource(FULLADDER_BLIF)
        copy_path = tmp_path / "renamed.blif"
        with open(FULLADDER_BLIF) as handle:
            copy_path.write_text(handle.read())
        copy = FileSource(copy_path)
        assert copy.fingerprint() == original.fingerprint()
        assert copy.identity("tiny") == copy.identity("default")

        copy_path.write_text(copy_path.read_text() + "# touched\n")
        assert FileSource(copy_path).fingerprint() != original.fingerprint()

    def test_file_builds_the_bytes_it_hashed(self, tmp_path):
        """Editing a resolved file changes neither its identity nor its
        graph, in the source or in a pickled copy sent to a worker."""
        from repro.mig.simulate import simulate_one

        path = tmp_path / "c.mig"
        gate = "mig c\ninput a\ninput b\nnode n3 = <a b {}>\noutput f = n3\n"
        path.write_text(gate.format(0))  # a AND b
        source = resolve_source(str(path))
        fingerprint = source.fingerprint()
        shipped = pickle.dumps(source)
        path.write_text(gate.format(1))  # a OR b
        assert FileSource(path).fingerprint() != fingerprint

        def assert_and_gate(copy):
            assert copy.fingerprint() == fingerprint
            mig = copy.build("tiny")
            assert mig.name == "c"
            assert simulate_one(mig, {"a": 1, "b": 0})["f"] == 0

        assert_and_gate(source)
        os.remove(path)  # the worker's copy reads no file either
        assert_and_gate(pickle.loads(shipped))

    def test_file_rejects_unknown_extension(self, tmp_path):
        path = tmp_path / "x.v"
        path.write_text("")
        with pytest.raises(ValueError, match="extension"):
            FileSource(path)

    def test_frontend_identity_before_elaboration(self):
        source = FrontendSource(saturating_sub)
        assert source.identity("tiny") == (
            "frontend", saturating_sub.fingerprint
        )

    def test_graph_identity_is_content_fingerprint(self):
        mig = make_random_mig(4, 12, seed=3)
        source = MigSource(mig)
        assert source.identity("tiny") == ("graph", mig.content_fingerprint())
        # bare graph name keeps the historical source_mig flow labels
        assert source.label("tiny") == mig.name


class TestContentFingerprint:
    def test_stable_across_pickle(self):
        mig = make_random_mig(5, 20, seed=9)
        fingerprint = mig.content_fingerprint()
        clone = pickle.loads(pickle.dumps(mig))
        assert clone.content_fingerprint() == fingerprint

    def test_sensitive_to_structure_and_names(self):
        base = Mig("t")
        a, b = base.add_pi("a"), base.add_pi("b")
        base.add_po(base.add_and(a, b), "f")

        renamed = Mig("t")
        a, b = renamed.add_pi("a"), renamed.add_pi("bb")
        renamed.add_po(renamed.add_and(a, b), "f")

        rewired = Mig("t")
        a, b = rewired.add_pi("a"), rewired.add_pi("b")
        rewired.add_po(rewired.add_or(a, b), "f")

        prints = {
            m.content_fingerprint() for m in (base, renamed, rewired)
        }
        assert len(prints) == 3

    def test_identical_builds_share_fingerprint(self):
        assert (
            make_random_mig(5, 20, seed=4).content_fingerprint()
            == make_random_mig(5, 20, seed=4).content_fingerprint()
        )


class TestCacheReadThrough:
    def test_registry_source_shares_benchmark_cache(self):
        cache = ExperimentCache()
        via_source = cache.source_mig(resolve_source("ctrl"), "tiny")
        assert cache.benchmark_mig("ctrl", "tiny") is via_source

    def test_external_source_memoized(self):
        cache = ExperimentCache()
        source = FileSource(FULLADDER_BLIF)
        first = cache.source_mig(source, "tiny")
        assert cache.source_mig(source, "default") is first  # preset-free
        assert cache.cached_source_mig(source, "tiny") is first

    def test_external_source_persists_to_disk(self, tmp_path):
        from repro.analysis.diskcache import DiskCache

        source = FileSource(FULLADDER_BLIF)
        warm = ExperimentCache(DiskCache(tmp_path / "cache"))
        built = warm.source_mig(source, "tiny")

        cold = ExperimentCache(DiskCache(tmp_path / "cache"))
        assert cold.cached_source_mig(source, "tiny") is not None
        assert cold.disk.hits == 1
        loaded = cold.source_mig(source, "tiny")
        assert loaded.num_pis == built.num_pis
        assert loaded.content_fingerprint() == built.content_fingerprint()


class TestSessionSource:
    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(SOURCE_ENV_VAR, "ctrl")
        session = Session(source="adder")
        assert session.default_source.name == "adder"

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(SOURCE_ENV_VAR, "ctrl")
        assert Session().default_source.name == "ctrl"

    def test_no_default_without_selection(self, monkeypatch):
        monkeypatch.delenv(SOURCE_ENV_VAR, raising=False)
        assert Session().default_source is None

    def test_invalid_selection_fails_fast(self):
        with pytest.raises(ValueError, match="unknown source"):
            Session(source="not_a_benchmark")

    def test_spec_round_trip(self):
        session = Session(source="adder", preset="tiny")
        rebuilt = Session.from_spec(session.spec())
        assert rebuilt.default_source.name == "adder"

    def test_flow_uses_session_default(self, monkeypatch):
        monkeypatch.delenv(SOURCE_ENV_VAR, raising=False)
        session = Session(source="ctrl", preset="tiny")
        result = Flow.for_config("naive", session=session).run()
        assert result.mig.name == "ctrl"

    def test_flow_without_source_raises(self, monkeypatch):
        monkeypatch.delenv(SOURCE_ENV_VAR, raising=False)
        with pytest.raises(ValueError, match="no source"):
            Flow.for_config("naive").run()


class TestRunMatrixSources:
    def test_mixed_entries_serial(self):
        mig = make_random_mig(4, 16, seed=11, num_pos=2)
        evaluations = Session(preset="tiny").run_matrix(
            ["ctrl", FULLADDER_BLIF, mig, saturating_sub], configs=["naive"]
        )
        assert [e.name for e in evaluations] == [
            "ctrl", "fulladder", mig.name, "satsub"
        ]
        assert all("naive" in e.results for e in evaluations)

    def test_mixed_entries_parallel_matches_serial(self):
        entries = [FULLADDER_BLIF, saturating_sub]
        serial = Session(preset="tiny").run_matrix(entries, configs=["naive"])
        fanned = Session(preset="tiny").run_matrix(
            entries, configs=["naive"], parallel=2
        )
        assert [e.name for e in serial] == [e.name for e in fanned]
        for a, b in zip(serial, fanned):
            assert a.results["naive"].stats == b.results["naive"].stats
            assert (
                a.results["naive"].program.instructions
                == b.results["naive"].program.instructions
            )


class TestAcceptance:
    """The issue's acceptance criteria: external sources run the full
    pipeline under two (arch, opt) combos; a second cold session is
    served from the disk cache at every stage."""

    COMBOS = (("endurance", "script"), ("blocked", "greedy"))

    def _run_all(self, session, source):
        results = []
        for arch_name, opt_spec in self.COMBOS:
            results.append(
                Flow(session)
                .source(source)
                .compile("ea-full")
                .arch(arch_name)
                .optimize(opt_spec)
                .verify(patterns=16)
                .run()
            )
        return results

    @pytest.mark.parametrize(
        "source_factory",
        [
            lambda: FULLADDER_BLIF,
            lambda: saturating_sub,
        ],
        ids=["blif-file", "frontend-function"],
    )
    def test_second_run_served_from_disk(self, tmp_path, source_factory):
        source = source_factory()
        root = tmp_path / "cache"

        warm_session = Session(cache_dir=root, preset="tiny")
        warm = self._run_all(warm_session, source)
        for result in warm:
            assert result.verified_patterns == 16
            assert not result.stages["source"].cached or result is not warm[0]

        # fresh session, fresh memory tier: everything must come off disk
        cold_session = Session(cache_dir=root, preset="tiny")
        disk = cold_session.cache.disk
        cold = self._run_all(cold_session, source)

        for stage in ("source", "rewrite", "compile", "verify"):
            assert all(r.stages[stage].cached for r in cold), stage
        assert disk.hits > 0
        assert disk.misses == 0

        for before, after in zip(warm, cold):
            assert before.stats == after.stats
            assert (
                before.program.instructions == after.program.instructions
            )
