"""Tests for the cached experiment runner (repro.analysis.runner)."""

import collections
from contextlib import contextmanager

import pytest

from repro.analysis.diskcache import DiskCache
from repro.analysis.runner import (
    BenchmarkEvaluation,
    ExperimentCache,
    config_key,
    experiment_key,
    mig_key,
    resolve_configs,
    resolve_target,
    result_label,
)
from repro.core.manager import PRESETS, full_management
from repro.flow import Session
from repro.mig.signal import make_signal
from repro.source import resolve_source
from repro.synth.arithmetic import build_adder

SUBSET = ["adder", "dec", "ctrl"]


def _result_signature(evaluation):
    """Comparable digest of one evaluation (programs incl. write counts)."""
    return {
        key: (
            res.num_instructions,
            res.num_rrams,
            tuple(res.program.write_counts()),
        )
        for key, res in evaluation.results.items()
    }


class TestConfigKey:
    def test_name_is_not_part_of_identity(self):
        from dataclasses import replace

        base = PRESETS["ea-full"]
        renamed = replace(base, name="relabelled")
        assert renamed.name != base.name
        assert config_key(renamed) == config_key(base)
        # with_cap(None) relabels nothing and keeps the identity too
        assert config_key(base.with_cap(None)) == config_key(base)

    def test_with_cap_changes_identity(self):
        base = PRESETS["ea-full"]
        assert config_key(base.with_cap(100)) != config_key(base)
        assert config_key(base.with_cap(100)) != config_key(base.with_cap(10))

    def test_full_management_matches_with_cap(self):
        assert config_key(full_management(20)) == config_key(
            PRESETS["ea-full"].with_cap(20)
        )

    def test_result_label_strips_cap_prefix(self):
        assert result_label(full_management(50)) == "wmax50"
        assert result_label(PRESETS["naive"]) == "naive"


class TestExperimentCache:
    def test_hit_on_semantically_equal_config(self):
        cache = ExperimentCache()
        mig = build_adder(width=4)
        first = cache.compile(mig, full_management(20))
        assert (cache.hits, cache.misses) == (0, 1)
        # with_cap relabels but does not change semantics
        second = cache.compile(mig, PRESETS["ea-full"].with_cap(20))
        assert (cache.hits, cache.misses) == (1, 1)
        assert first is second

    def test_miss_on_different_cap(self):
        cache = ExperimentCache()
        mig = build_adder(width=4)
        cache.compile(mig, full_management(20))
        cache.compile(mig, full_management(10))
        assert (cache.hits, cache.misses) == (0, 2)

    def test_rewrite_shared_between_configs(self):
        cache = ExperimentCache()
        mig = build_adder(width=4)
        cache.compile(mig, PRESETS["ea-rewrite"])
        cache.compile(mig, PRESETS["ea-full"])  # same rewriting script
        assert len(cache._rewrites) == 1

    def test_benchmark_mig_memoized(self):
        cache = ExperimentCache()
        assert cache.benchmark_mig("adder", "tiny") is cache.benchmark_mig(
            "adder", "tiny"
        )
        assert cache.benchmark_mig("adder", "tiny") is not cache.benchmark_mig(
            "dec", "tiny"
        )

    def test_verification_runs_once_per_entry(self):
        cache = ExperimentCache()
        mig = build_adder(width=3)
        cache.verify(mig, PRESETS["naive"], patterns=16)
        computes = cache.computes()
        # re-requests: served from the stored, certified entry
        cache.verify(mig, PRESETS["naive"], patterns=16)
        cache.compile(mig, PRESETS["naive"])
        assert cache.computes() == computes
        assert (cache.hits, cache.misses) == (1, 1)

    def test_distinct_migs_do_not_collide(self):
        cache = ExperimentCache()
        small = cache.compile(build_adder(width=3), PRESETS["naive"])
        large = cache.compile(build_adder(width=5), PRESETS["naive"])
        assert small.num_instructions != large.num_instructions
        assert cache.misses == 2

    def test_mig_key_distinguishes_widths(self):
        assert mig_key(build_adder(width=3)) != mig_key(build_adder(width=5))


class TestRunMatrix:
    def test_caps_extend_table1_columns(self):
        evaluations = Session(preset="tiny").run_matrix(
            ["adder"], caps=[10], verify=False
        )
        (ev,) = evaluations
        assert isinstance(ev, BenchmarkEvaluation)
        for key in ("naive", "dac16", "min-write", "ea-rewrite", "ea-full",
                    "wmax10"):
            assert key in ev.results

    def test_shared_cache_makes_second_pass_free(self):
        cache = ExperimentCache()
        session = Session(cache=cache, preset="tiny")
        session.run_matrix(SUBSET, verify=False)
        misses = cache.misses
        session.run_matrix(SUBSET, verify=False)
        assert cache.misses == misses  # pure cache hits

    def test_effort_override_changes_identity(self):
        cache = ExperimentCache()
        session = Session(cache=cache, preset="tiny")
        session.run_matrix(["adder"], ["dac16"], effort=1)
        session.run_matrix(["adder"], ["dac16"], effort=2)
        assert cache.misses == 2

    @pytest.mark.slow
    def test_parallel_matches_serial(self):
        serial = Session(preset="tiny").run_matrix(
            SUBSET, caps=[10], verify=False
        )
        fanned = Session(preset="tiny").run_matrix(
            SUBSET, caps=[10], verify=False, parallel=2
        )
        assert [e.name for e in fanned] == [e.name for e in serial]
        for a, b in zip(serial, fanned):
            assert _result_signature(a) == _result_signature(b)

    @pytest.mark.slow
    def test_parallel_cooperates_with_shared_cache(self):
        from repro.analysis.runner import ExperimentCache

        cache = ExperimentCache()
        session = Session(cache=cache, preset="tiny")
        plain = session.run_matrix(SUBSET, verify=False)
        compiled = cache.misses
        # capped pass in parallel: Table I columns come from the cache,
        # only the wmax10 column is dispatched to workers
        capped = session.run_matrix(
            SUBSET, caps=[10], verify=False, parallel=2
        )
        assert cache.misses == compiled  # nothing recompiled in-process
        for a, b in zip(plain, capped):
            assert _result_signature(a).items() <= _result_signature(b).items()
            assert "wmax10" in b.results
        # serial reference run must agree exactly
        reference = Session(preset="tiny").run_matrix(
            SUBSET, caps=[10], verify=False
        )
        for a, b in zip(reference, capped):
            assert _result_signature(a) == _result_signature(b)

    def test_resolve_configs_defaults_to_table1(self):
        jobs = resolve_configs()
        assert [c.name for c in jobs] == [
            "naive", "dac16", "min-write", "ea-rewrite", "ea-full",
        ]


class TestMigKeyStructure:
    def test_same_shape_different_function_distinct(self):
        from repro.mig.graph import Mig

        def build(op):
            mig = Mig()  # anonymous: name and all counts coincide
            a, b = mig.add_pi("a"), mig.add_pi("b")
            mig.add_po(getattr(mig, op)(a, b), "f")
            return mig

        and_mig, or_mig = build("add_and"), build("add_or")
        assert and_mig.num_nodes == or_mig.num_nodes
        assert mig_key(and_mig) != mig_key(or_mig)
        cache = ExperimentCache()
        p1 = cache.verify(and_mig, PRESETS["naive"])
        p2 = cache.verify(or_mig, PRESETS["naive"])
        assert cache.misses == 2  # no cross-function cache hit
        assert p1 is not p2

    def test_digest_memoized_and_invalidated(self):
        mig = build_adder(width=3)
        d = mig.structural_digest()
        assert mig.structural_digest() == d
        mig.add_po(make_signal(mig.pis()[0]), "extra")
        assert mig.structural_digest() != d


def _serial_matrix(session, names, verify):
    session.run_matrix(names, ["naive"], verify=verify)


def _parallel_matrix(session, names, verify):
    session.run_matrix(names, ["naive"], verify=verify, parallel=2)


def _suite(session, names, verify):
    session.evaluate_suite(names, configs=["naive"], verify=verify)


def _grid(session, names, verify):
    session.grid(names, ["naive"], archs=("endurance",), verify=verify)


class TestVerifyWidth:
    """``verify`` is one width at every door: ``True`` certifies
    VERIFY_PATTERNS, an int that many patterns, ``False`` nothing."""

    NAMES = ["adder", "dec"]

    @pytest.mark.parametrize(
        "door",
        [
            pytest.param(_serial_matrix, id="run_matrix"),
            pytest.param(
                _parallel_matrix, id="run_matrix-parallel",
                marks=pytest.mark.slow,
            ),
            pytest.param(_suite, id="evaluate_suite"),
            pytest.param(_grid, id="grid"),
        ],
    )
    @pytest.mark.parametrize(
        "verify, width", [(True, 64), (256, 256), (False, 0)]
    )
    def test_verify_certifies_its_width(self, door, verify, width):
        session = Session(preset="tiny")
        stages = []

        class Observer:
            def on_stage_end(self, event):
                stages.append(event.stage)

        session.add_observer(Observer())
        door(session, self.NAMES, verify)
        cache, cfg = session.cache, PRESETS["naive"]
        for name in self.NAMES:
            mig = cache.cached_mig(name, "tiny")
            assert cache.has(mig, cfg, verified_patterns=width)
            assert not cache.has(mig, cfg, verified_patterns=width + 1)
        if not verify:
            assert "verify" not in stages

    def test_true_means_the_module_width(self):
        from repro.analysis.runner import VERIFY_PATTERNS, verify_width

        assert VERIFY_PATTERNS == 64
        assert verify_width(True) == VERIFY_PATTERNS
        assert verify_width(1) == 1  # an int, not a bool
        assert verify_width(False) == verify_width(0) == 0
        with pytest.raises(ValueError):
            verify_width(-1)

    def test_session_preset_builds_the_sources(self):
        # both doors build the same graph: the session's preset applies
        session = Session(preset="tiny")
        (ev,) = session.run_matrix(["adder"], ["naive"])
        tiny = session.cache.cached_mig("adder", "tiny")
        assert tiny is not None and ev.num_pis == tiny.num_pis
        assert session.cache.cached_mig("adder", "default") is None
        (twin,) = Session(preset="tiny").run_matrix(["adder"], ["naive"])
        assert (twin.num_pis, twin.gates) == (ev.num_pis, ev.gates)


class TestCooperativeVerification:
    @pytest.mark.slow
    def test_verifying_run_dispatches_unverified_entries(self):
        cache = ExperimentCache()
        session = Session(cache=cache, preset="tiny")
        session.run_matrix(["adder", "dec"], ["naive"], verify=False)
        mig = cache.cached_mig("adder", "tiny")
        cfg = PRESETS["naive"]
        assert cache.has(mig, cfg)
        assert not cache.has(mig, cfg, verified_patterns=16)
        # verifying parallel pass: entries count as missing, workers
        # verify, and the adopted certificate upgrades the stored entry
        session.run_matrix(["adder", "dec"], ["naive"], verify=16, parallel=2)
        assert cache.has(mig, cfg, verified_patterns=16)


class TestResolveConfigEffort:
    def test_effort_override_applies_to_names_only(self):
        from repro.core.manager import EnduranceConfig

        custom = EnduranceConfig(name="custom", rewriting="dac16", effort=2)
        jobs = resolve_configs(["naive", custom], caps=[10], effort=3)
        by_name = {c.name: c for c in jobs}
        assert by_name["naive"].effort == 3          # preset: overridden
        assert by_name["custom"].effort == 2         # explicit: preserved
        assert by_name["ea-full+wmax10"].effort == 3  # cap: overridden

    def test_unknown_preset_lists_the_presets(self):
        from repro.flow import Session

        with pytest.raises(ValueError, match="unknown configuration preset"):
            Session(preset="tiny").run_matrix(["dec"], ["turbo"])


class TestDuplicateLabels:
    def test_distinct_configs_sharing_a_label_refused(self):
        from dataclasses import replace

        impostor = replace(PRESETS["dac16"], name="naive")
        with pytest.raises(ValueError, match="share the result label"):
            Session().run_matrix(
                [build_adder(width=3)], [PRESETS["naive"], impostor]
            )

    def test_repeated_identical_config_allowed(self):
        (ev,) = Session().run_matrix(
            [build_adder(width=3)], [PRESETS["naive"], PRESETS["naive"]]
        )
        assert set(ev.results) == {"naive"}


class TestOneWalk:
    """Table rows and grid points run through one per-source walk:
    the job budget, retries and column checks bind on both."""

    def test_job_budget_binds_on_the_grid(self):
        from repro.resilience import StageTimeoutError

        session = Session(preset="tiny", timeouts="job=1e-6")
        with pytest.raises(StageTimeoutError) as excinfo:
            session.grid(["dec"], ["naive"])
        assert excinfo.value.stage == "job"

    def test_refused_column_fails_before_any_work(self):
        from repro.arch import ArchitectureError

        session = Session(preset="tiny", arch="dac16")
        events = []

        class Observer:
            def on_stage_start(self, event):
                events.append(event.stage)

        session.add_observer(Observer())
        with pytest.raises(ArchitectureError) as excinfo:
            session.run_matrix(["adder"], ["naive", "min-write"])
        assert str(excinfo.value) == (
            "architecture 'dac16' has no per-cell wear counters; the "
            "minimum write count strategy needs them (pick the "
            "'endurance' architecture or strategy='naive')"
        )
        assert events == []
        assert session.cache.misses == 0

    def test_grid_and_table_share_the_walk(self, monkeypatch):
        from repro.analysis import runner

        walked = []
        walk = runner.walk_source

        def recording(session, source, targets, configs, **kwargs):
            walked.append((source.name, kwargs["keep_rewritten"]))
            return walk(session, source, targets, configs, **kwargs)

        monkeypatch.setattr(runner, "walk_source", recording)
        session = Session(preset="tiny")
        points = session.grid(["adder", "dec"], ["naive"])
        (row,) = session.run_matrix(["dec"], ["naive"])
        assert walked == [("adder", True), ("dec", True), ("dec", False)]
        # the row is the grid's cell, served from the shared cache
        assert row.results["naive"] is points[1].result.compilation


class TestWorkerCounterAggregation:
    """run_matrix(parallel=N) folds each worker's cache counters into
    the shared cache, so BENCH_suite.json reports the fan-out's cache
    behaviour instead of only the parent process's view."""

    @pytest.mark.slow
    def test_parallel_aggregates_worker_counters(self, tmp_path):
        from repro.flow import Session

        session = Session(cache_dir=tmp_path, preset="tiny")
        session.run_matrix(
            ["adder", "ctrl", "int2float"], ["naive", "dac16"], parallel=2
        )
        counters = session.cache.worker_counters
        assert counters["workers"] == 3  # one per dispatched benchmark
        # each worker compiled its two configurations locally...
        assert counters["misses"] == 6
        assert counters["hits"] == 0
        # ...and persisted them through the shared disk root
        assert counters["disk_misses"] > 0

    @pytest.mark.slow
    def test_warm_rerun_reports_worker_disk_hits(self, tmp_path):
        from repro.flow import Session

        cold = Session(cache_dir=tmp_path, preset="tiny")
        cold.run_matrix(["adder", "ctrl"], ["naive"], parallel=2)
        # The verification upgrade makes the persisted (uncertified)
        # entries count as missing, so workers are dispatched — and find
        # their builds and compilations already on the shared root.
        warm = Session(cache_dir=tmp_path, preset="tiny")
        warm.run_matrix(["adder", "ctrl"], ["naive"], parallel=2, verify=16)
        counters = warm.cache.worker_counters
        assert counters["workers"] == 2
        assert counters["disk_hits"] > 0  # served from the shared root

    def test_serial_runs_leave_worker_counters_zero(self):
        from repro.analysis.runner import ExperimentCache

        cache = ExperimentCache()
        Session(cache=cache, preset="tiny").run_matrix(["adder"], ["naive"])
        assert cache.worker_counters["workers"] == 0
        assert all(v == 0 for v in cache.worker_counters.values())

    def test_worker_counters_share_the_counters_schema(self, tmp_path):
        for cache in (ExperimentCache(), ExperimentCache(DiskCache(tmp_path))):
            assert set(cache.worker_counters) == {
                "workers", *cache.counters()
            }


class TestRegistryDiskKeys:
    """Registry benchmarks persist under their classic ``(name, preset)``
    keys on every path: the serial matrix, the worker fan-out, and the
    flow layer.  Each stored key lands at ``sha256(repr(key))``, so the
    entry files under the root are exactly the keys ``DiskCache.store``
    received, whichever process stored them."""

    CONFIGS = ["naive", "ea-full"]

    @staticmethod
    def _expected(names):
        from repro.arch import resolve_architecture
        from repro.opt import resolve_optimizer

        semantic = {
            cfg: experiment_key(
                PRESETS[cfg], resolve_architecture(None), resolve_optimizer(None)
            )
            for cfg in TestRegistryDiskKeys.CONFIGS
        }
        keys = set()
        for name in names:
            keys.add(("mig", name, "tiny"))
            # 'naive' rewrites with the 'none' script, which never persists
            keys.add(("rewrite", name, "tiny", ("script", "endurance", 5)))
            keys.update(
                ("result", name, "tiny", semantic[cfg]) for cfg in semantic
            )
        return keys

    @staticmethod
    def _assert_stored(root, keys):
        from repro.analysis.diskcache import DiskCache

        disk = DiskCache(root)
        stored = {path.name for path in disk.root.rglob("*.pkl")}
        assert stored == {disk.entry_path(key).name for key in keys}

    def test_serial_matrix(self, tmp_path, monkeypatch):
        from repro.analysis.diskcache import DiskCache

        received = []
        store = DiskCache.store

        def recording(self, key, *args, **kwargs):
            received.append(key)
            return store(self, key, *args, **kwargs)

        monkeypatch.setattr(DiskCache, "store", recording)
        cache = ExperimentCache(disk=DiskCache(tmp_path))
        Session(cache=cache, preset="tiny").run_matrix(
            ["adder"], self.CONFIGS
        )
        assert len(received) == len(set(received))
        assert set(received) == self._expected(["adder"])
        self._assert_stored(tmp_path, received)

    @pytest.mark.slow
    def test_parallel_matrix_with_shared_cache(self, tmp_path):
        from repro.analysis.diskcache import DiskCache

        cache = ExperimentCache(disk=DiskCache(tmp_path))
        Session(cache=cache, preset="tiny").run_matrix(
            ["adder", "dec"], self.CONFIGS, parallel=2
        )
        assert cache.worker_counters["workers"] == 2
        self._assert_stored(tmp_path, self._expected(["adder", "dec"]))

    def test_flow_for_job(self, tmp_path):
        from repro.flow import Flow, Session

        session = Session(cache_dir=tmp_path, preset="tiny")
        for cfg in self.CONFIGS:
            Flow.for_job("adder", cfg, preset="tiny", session=session).run()
        self._assert_stored(tmp_path, self._expected(["adder"]))



class RecordingDisk(DiskCache):
    """A local disk tier that logs every ``load``/``flight``/``store``
    as ``(call, key kind)``.  Its ``flight`` window yields
    ``flown[kind]`` when set — the way a cache-server waiter adopts the
    payload another process stored — and is the real window otherwise,
    whose one read is a logged ``load``."""

    def __init__(self, root):
        super().__init__(root)
        self.calls = []
        self.flown = {}
        self.certificates = []

    def load(self, key):
        self.calls.append(("load", key[0]))
        return super().load(key)

    @contextmanager
    def flight(self, key):
        self.calls.append(("flight", key[0]))
        if key[0] in self.flown:
            yield self.flown.pop(key[0])
        else:
            with super().flight(key) as entry:
                yield entry

    def store(self, key, payload, *, certificate=0, manifest=None):
        self.calls.append(("store", key[0]))
        self.certificates.append((key, certificate))
        super().store(
            key, payload, certificate=certificate, manifest=manifest
        )


def _read(kind):
    """The tier calls of one stage's disk read: the window and its load."""
    return [("flight", kind), ("load", kind)]


COLD_RESULT = [
    *_read("result"), *_read("rewrite"), ("store", "rewrite"),
    ("store", "result"),
]


class TestTierContract:
    """Every stage of ExperimentCache walks the same tiers: memory, then
    the disk tier's single-flight window (``flight``), whose one read is
    the stage's only ``load``, then the compute, then the write-back
    (``store``).

    Each case primes one state — a memory hit, a disk hit, a payload
    adopted from the flight window, a cold key, or a key that never
    reaches the registry or the disk (a hand-built graph, the ``"none"``
    script) — runs one stage, and pins the tier calls it makes, the
    computes it runs, the counters it moves, and the certificate it
    leaves in memory.  A compile counts a miss exactly when it compiled
    and, unless it is the verify stage, a hit otherwise.  The
    compile-stage states start from an unverified entry."""

    CONFIG = PRESETS["ea-full"]
    PATTERNS = 16

    # (stage, state) -> (tier calls, computes, counter deltas,
    # certificate of the compiled pair in memory or None)
    EXPECTED = {
        ("source", "memory"): ([], {}, {}, None),
        ("source", "disk"): (_read("mig"), {}, {"disk_hits": 1}, None),
        ("source", "flight"): ([("flight", "mig")], {}, {}, None),
        ("source", "cold"): (
            [*_read("mig"), ("store", "mig")],
            {"build": 1}, {"disk_misses": 1}, None,
        ),
        # A hand-built graph persists under its content fingerprint and
        # is built by its source, never by the registry.
        ("source", "local"): (
            [*_read("mig"), ("store", "mig")],
            {}, {"disk_misses": 1}, None,
        ),
        ("rewrite", "memory"): ([], {}, {}, None),
        ("rewrite", "disk"): (
            _read("rewrite"), {}, {"disk_hits": 1}, None,
        ),
        ("rewrite", "flight"): ([("flight", "rewrite")], {}, {}, None),
        ("rewrite", "cold"): (
            [*_read("rewrite"), ("store", "rewrite")],
            {"rewrite": 1}, {"disk_misses": 1}, None,
        ),
        # The "none" script's result is a cleanup copy: memory only.
        ("rewrite", "local"): ([], {"rewrite": 1}, {}, None),
        ("compile", "memory"): ([], {}, {"hits": 1}, 0),
        ("compile", "disk"): (
            _read("result"), {}, {"hits": 1, "disk_hits": 1}, 0,
        ),
        # An adopted payload keeps its certificate.
        ("compile", "flight"): (
            [("flight", "result")], {}, {"hits": 1}, 16,
        ),
        ("compile", "cold"): (
            COLD_RESULT, {"rewrite": 1, "compile": 1},
            {"misses": 1, "disk_misses": 2}, 0,
        ),
        # A hand-built graph has no persistent identity: memory only.
        ("compile", "local"): (
            [], {"rewrite": 1, "compile": 1}, {"misses": 1}, 0,
        ),
        # verify counts no hit ...
        ("verify", "memory"): ([("store", "result")], {"verify": 1}, {}, 16),
        ("verify", "disk"): (
            [*_read("result"), ("store", "result")], {"verify": 1},
            {"disk_hits": 1}, 16,
        ),
        ("verify", "flight"): (
            [("flight", "result"), ("store", "result")],
            {"verify": 1}, {}, 16,
        ),
        # ... and a miss only when it compiles.
        ("verify", "cold"): (
            COLD_RESULT, {"rewrite": 1, "compile": 1, "verify": 1},
            {"misses": 1, "disk_misses": 2}, 16,
        ),
        ("verify", "local"): (
            [], {"rewrite": 1, "compile": 1, "verify": 1}, {"misses": 1}, 16,
        ),
    }

    # (stage, state) -> (probe answer, probe tier calls, counter deltas,
    # tier calls of the stage call that follows the probe).  Probes never
    # compute; a satisfying disk entry is adopted into memory, so the
    # stage that follows is a pure memory hit.
    PROBES = {
        ("source", "memory"): (True, [], {}, []),
        ("source", "disk"): (True, [("load", "mig")], {"disk_hits": 1}, []),
        ("source", "cold"): (
            False, [("load", "mig")], {"disk_misses": 1},
            [*_read("mig"), ("store", "mig")],
        ),
        ("rewrite", "memory"): (True, [], {}, []),
        ("rewrite", "disk"): (
            True, [("load", "rewrite")], {"disk_hits": 1}, [],
        ),
        ("rewrite", "cold"): (
            False, [("load", "rewrite")], {"disk_misses": 1},
            [*_read("rewrite"), ("store", "rewrite")],
        ),
        ("rewrite", "local"): (False, [], {}, []),
        ("compile", "memory"): (True, [], {}, []),
        ("compile", "disk"): (
            True, [("load", "result")], {"disk_hits": 1}, [],
        ),
        ("compile", "cold"): (
            False, [("load", "result")], {"disk_misses": 1}, COLD_RESULT,
        ),
        ("compile", "local"): (False, [], {}, []),
        # A certificate narrower than requested does not satisfy a
        # verifying probe: memory answers without reading disk, and a
        # narrow disk entry is not adopted.
        ("verify", "memory"): (False, [], {}, [("store", "result")]),
        ("verify", "disk"): (
            False, [("load", "result")], {"disk_hits": 1},
            [*_read("result"), ("store", "result")],
        ),
        ("verify", "cold"): (
            False, [("load", "result")], {"disk_misses": 1}, COLD_RESULT,
        ),
        ("verify", "local"): (False, [], {}, []),
    }

    @pytest.fixture
    def computes(self, monkeypatch):
        """Count the runner's compute entry points, which it looks up
        at call time: registry builds, rewriting, compilation and
        co-simulation."""
        import repro.analysis.runner as runner
        from repro.opt import Optimizer

        counts = collections.Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for attr, name in (
            ("build_benchmark", "build"),
            ("compile_pipeline", "compile"),
            ("verify_program", "verify"),
        ):
            monkeypatch.setattr(
                runner, attr, counting(name, getattr(runner, attr))
            )
        monkeypatch.setattr(
            Optimizer, "run", counting("rewrite", Optimizer.run)
        )
        return counts

    def _stage(self, cache, stage, state):
        """(graph, stage call, probe call, priming call) of *stage*."""
        cfg = self.CONFIG
        hand = build_adder(width=3)
        if stage == "source":
            if state == "local":
                source = resolve_source(hand)
                run = lambda: cache.source_mig(source, "tiny")
                probe = lambda: cache.cached_source_mig(source, "tiny")
            else:
                run = lambda: cache.benchmark_mig("adder", "tiny")
                probe = lambda: cache.cached_mig("adder", "tiny")
            return None, run, probe, run
        graph = (
            hand
            if state == "local" and stage != "rewrite"
            else cache.benchmark_mig("adder", "tiny")
        )
        gid = mig_key(graph)
        if stage == "rewrite":
            script = "none" if state == "local" else cfg.rewriting
            _, opt = resolve_target()
            run = lambda: cache.rewritten(
                graph, script, cfg.effort, key=gid, optimizer=opt
            )
            probe = lambda: cache.has_rewritten(
                gid, script, cfg.effort, optimizer=opt
            )
            return graph, run, probe, run
        patterns = self.PATTERNS
        run = {
            "compile": lambda: cache.compile(graph, cfg, key=gid),
            "verify": lambda: cache.verify(
                graph, cfg, key=gid, patterns=patterns
            ),
        }[stage]
        needed = 0 if stage == "compile" else patterns
        probe = lambda: cache.has(gid, cfg, verified_patterns=needed)
        return graph, run, probe, lambda: cache.compile(graph, cfg, key=gid)

    def _flown(self, stage, graph):
        """(key kind, payload) another process stores for *stage*."""
        donor = ExperimentCache()
        if stage == "source":
            return "mig", donor.benchmark_mig("adder", "tiny")
        if stage == "rewrite":
            return "rewrite", donor.benchmark_mig("adder", "tiny")
        certificate = 0 if stage == "verify" else self.PATTERNS
        return "result", (donor.compile(graph, self.CONFIG), certificate)

    def _prime(self, tmp_path, stage, state):
        """A cache on a fresh recording disk, in *state* for *stage*."""
        root = tmp_path / "root"
        if state == "disk":
            warm = ExperimentCache(disk=DiskCache(root))
            self._stage(warm, stage, state)[3]()
        disk = RecordingDisk(root)
        cache = ExperimentCache(disk=disk)
        graph, run, probe, prime = self._stage(cache, stage, state)
        if state == "memory":
            prime()
        elif state == "flight":
            kind, payload = self._flown(stage, graph)
            disk.flown[kind] = payload
        disk.calls.clear()
        disk.certificates.clear()
        return cache, disk, graph, run, probe

    @staticmethod
    def _moved(before, after):
        return {k: v - before[k] for k, v in after.items() if v != before[k]}

    def _certificate(self, cache, graph):
        from repro.arch import resolve_architecture
        from repro.opt import resolve_optimizer

        semantic = experiment_key(
            self.CONFIG, resolve_architecture(None), resolve_optimizer(None)
        )
        return cache._results[mig_key(graph), semantic][1]

    @pytest.mark.parametrize("stage,state", sorted(EXPECTED))
    def test_stage(self, stage, state, tmp_path, computes):
        cache, disk, graph, run, _probe = self._prime(tmp_path, stage, state)
        flown = list(disk.flown.values())
        computes.clear()
        before = cache.counters()
        value = run()
        calls, work, moved, certificate = self.EXPECTED[stage, state]
        assert disk.calls == calls
        assert dict(computes) == work
        assert self._moved(before, cache.counters()) == moved
        for payload in flown:
            # the stage returns the payload it adopted
            adopted = payload if stage in ("source", "rewrite") else payload[0]
            assert value is adopted
        if certificate is not None:
            assert self._certificate(cache, graph) == certificate
        results = []
        for key, written in disk.certificates:
            if key[0] == "result":
                results.append((key, written))
            else:
                assert written == 0  # only a result carries a certificate
        if ("store", "result") in calls:
            # the write-back carries the entry's certificate ...
            ((key, written),) = results
            assert written == certificate
            entry = disk.load(key)
            assert entry[1] == certificate
            # ... an upgrade lands on the real root ...
            wider = (entry[0], certificate + 1)
            disk.store(key, wider, certificate=certificate + 1)
            assert disk.load(key)[1] == certificate + 1
            # ... and the same write-back never downgrades a wider one
            disk.store(key, entry, certificate=certificate)
            assert disk.load(key)[1] == certificate + 1
        else:
            assert results == []

    @pytest.mark.parametrize("stage,state", sorted(PROBES))
    def test_probe(self, stage, state, tmp_path, computes):
        cache, disk, _graph, run, probe = self._prime(tmp_path, stage, state)
        computes.clear()
        before = cache.counters()
        answer, calls, moved, then = self.PROBES[stage, state]
        found = probe()
        assert (found is not None and found is not False) is answer
        assert disk.calls == calls
        assert self._moved(before, cache.counters()) == moved
        assert not computes
        disk.calls.clear()
        run()
        assert disk.calls == then
