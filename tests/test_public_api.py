"""Public-API snapshot: guards ``repro.__all__`` and ``repro.flow``.

Downstream code (notebooks, the examples, the CI smoke jobs) imports
these names; accidental removals or renames must fail a test, not a
user.  Extending the API is fine — update the snapshot in the same
change, deliberately.
"""

import repro
import repro.analysis
import repro.arch
import repro.cachesvc
import repro.flow
import repro.opt
import repro.resilience
import repro.serve

#: The blessed root namespace.  Additions are appended deliberately;
#: removals are breaking changes and need a deprecation cycle.
ROOT_API = [
    "Architecture",
    "BENCHMARKS",
    "CompilationResult",
    "EnduranceConfig",
    "Flow",
    "FlowResult",
    "Mig",
    "Optimizer",
    "OptimizerSpec",
    "PRESETS",
    "PermanentFault",
    "PlimController",
    "Program",
    "RemoteCache",
    "ReproError",
    "ReproServer",
    "RetryPolicy",
    "RramArray",
    "Session",
    "Source",
    "Timeouts",
    "TransientFault",
    "WriteTrafficStats",
    "available_architectures",
    "available_objectives",
    "available_sources",
    "available_strategies",
    "build_benchmark",
    "create_cache_server",
    "create_server",
    "equivalent",
    "full_management",
    "get_architecture",
    "iter_manifests",
    "mig_function",
    "parse_faults",
    "register_architecture",
    "register_objective",
    "register_source",
    "resolve_cache_url",
    "resolve_optimizer",
    "resolve_source",
    "simulate",
    "truth_tables",
    "verify_manifest",
    "verify_program",
]

#: The blessed repro.arch namespace (the machine-model layer).
ARCH_API = [
    "ARCH_ENV_VAR",
    "Architecture",
    "ArchitectureError",
    "CostModel",
    "DEFAULT_ARCHITECTURE",
    "EnduranceModel",
    "Geometry",
    "arch_from_env",
    "available_architectures",
    "get_architecture",
    "register_architecture",
    "resolve_architecture",
]

#: The blessed repro.opt namespace (the cost-guided optimizer layer).
OPT_API = [
    "ALGORITHM1_STEPS",
    "ALGORITHM2_STEPS",
    "DEFAULT_EFFORT",
    "DEFAULT_LOOKAHEAD",
    "DEFAULT_OBJECTIVE",
    "DEFAULT_OPTIMIZER",
    "OPT_ENV_VAR",
    "Objective",
    "OptLike",
    "Optimizer",
    "OptimizerSpec",
    "RewritePass",
    "SCRIPTS",
    "Strategy",
    "atomic_passes",
    "available_objectives",
    "available_passes",
    "available_strategies",
    "candidate_passes",
    "estimated_write_cost",
    "get_objective",
    "get_pass",
    "get_strategy",
    "opt_from_env",
    "register_objective",
    "register_pass",
    "register_strategy",
    "resolve_optimizer",
    "rewrite",
    "rewrite_dac16",
    "rewrite_endurance_aware",
]

#: The blessed repro.source namespace (the circuit-source layer).
SOURCE_API = [
    "FileSource",
    "FrontendSource",
    "MigSource",
    "RegistrySource",
    "SOURCE_ENV_VAR",
    "Source",
    "SourceLike",
    "available_sources",
    "get_source",
    "register_source",
    "resolve_source",
    "source_from_env",
]

#: The blessed repro.resilience namespace (the reliability substrate).
RESILIENCE_API = [
    "DEFAULT_POLICY",
    "FAULTS_ENV_VAR",
    "FaultDirective",
    "FaultInjected",
    "FaultPlan",
    "MANIFEST_SCHEMA",
    "PermanentFault",
    "RETRY_ENV_VAR",
    "ReproError",
    "RetriesExhaustedError",
    "RetryPolicy",
    "StageTimeoutError",
    "TIMEOUT_ENV_VAR",
    "Timeouts",
    "TransientFault",
    "WorkerCrashError",
    "active_plan",
    "append_manifest_events",
    "call_with_retry",
    "classify_transient",
    "events",
    "inject",
    "iter_manifests",
    "load_manifest",
    "manifest_path",
    "parse_faults",
    "resolve_retry",
    "resolve_timeouts",
    "time_limit",
    "timeouts_from_env",
    "verify_manifest",
    "write_manifest",
]

#: The blessed repro.serve namespace (compilation-as-a-service).
SERVE_API = [
    "Job",
    "JobQueue",
    "JobSpec",
    "JobStore",
    "ReproServer",
    "Response",
    "SchemaError",
    "create_server",
    "handle",
    "job_payload",
    "parse_job",
    "stats_payload",
    "summarize_compilation",
]

#: The blessed repro.cachesvc namespace (the shared compile cache).
CACHESVC_API = [
    "CACHE_URL_ENV_VAR",
    "CacheServer",
    "DEFAULT_LEASE_SECONDS",
    "DEFAULT_MEMORY_BYTES",
    "DEFAULT_PORT",
    "MemoryTier",
    "RemoteCache",
    "create_cache_server",
    "resolve_cache_url",
]

#: The blessed repro.analysis namespace (tables, figures, sweeps).
ANALYSIS_API = [
    "BenchmarkEvaluation",
    "SweepPoint",
    "TABLE1_CONFIGS",
    "TABLE3_CAPS",
    "average_row",
    "by_config",
    "fig1_chain",
    "fig1_mig",
    "fig2_ladder",
    "fig2_mig",
    "headline_metrics",
    "render_headline",
    "render_sweep",
    "render_table1",
    "render_table2",
    "render_table3",
    "scaling_exponent",
    "storage_pressure",
    "sweep_widths",
]

#: The blessed repro.flow namespace.
FLOW_API = [
    "Flow",
    "FlowResult",
    "PRESET_CHOICES",
    "STAGES",
    "Session",
    "SessionSpec",
    "StageArtifact",
    "StageEvent",
    "resolve_cache_dir",
]


class TestRootNamespace:
    def test_all_snapshot(self):
        assert sorted(repro.__all__) == sorted(ROOT_API)

    def test_every_name_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_flow_types_exported_at_root(self):
        assert repro.Session is repro.flow.Session
        assert repro.Flow is repro.flow.Flow


class TestArchNamespace:
    def test_all_snapshot(self):
        assert sorted(repro.arch.__all__) == sorted(ARCH_API)

    def test_every_name_resolves(self):
        for name in repro.arch.__all__:
            assert getattr(repro.arch, name) is not None

    def test_arch_types_exported_at_root(self):
        assert repro.Architecture is repro.arch.Architecture
        assert repro.get_architecture is repro.arch.get_architecture

    def test_builtin_registry_stable(self):
        """The three shipped machines (and the default) are API."""
        for name in ("dac16", "endurance", "blocked"):
            assert name in repro.arch.available_architectures()
        assert repro.arch.DEFAULT_ARCHITECTURE == "endurance"


class TestOptNamespace:
    def test_all_snapshot(self):
        assert sorted(repro.opt.__all__) == sorted(OPT_API)

    def test_every_name_resolves(self):
        for name in repro.opt.__all__:
            assert getattr(repro.opt, name) is not None

    def test_opt_types_exported_at_root(self):
        assert repro.OptimizerSpec is repro.opt.OptimizerSpec
        assert repro.resolve_optimizer is repro.opt.resolve_optimizer

    def test_builtin_registries_stable(self):
        """The shipped strategies/objectives (and defaults) are API."""
        for name in ("script", "greedy", "budget"):
            assert name in repro.opt.available_strategies()
        for name in ("node_count", "depth", "write_cost"):
            assert name in repro.opt.available_objectives()
        assert repro.opt.DEFAULT_OPTIMIZER == "script"
        assert repro.opt.DEFAULT_OBJECTIVE == "write_cost"


class TestSourceNamespace:
    def test_all_snapshot(self):
        assert sorted(repro.source.__all__) == sorted(SOURCE_API)

    def test_every_name_resolves(self):
        for name in repro.source.__all__:
            assert getattr(repro.source, name) is not None

    def test_source_kinds_stable(self):
        kinds = {
            cls.kind
            for cls in (
                repro.source.RegistrySource,
                repro.source.FileSource,
                repro.source.FrontendSource,
                repro.source.MigSource,
            )
        }
        assert kinds == {"registry", "file", "frontend", "graph"}


class TestResilienceNamespace:
    def test_all_snapshot(self):
        assert sorted(repro.resilience.__all__) == sorted(RESILIENCE_API)

    def test_every_name_resolves(self):
        for name in repro.resilience.__all__:
            assert getattr(repro.resilience, name) is not None

    def test_resilience_types_exported_at_root(self):
        assert repro.RetryPolicy is repro.resilience.RetryPolicy
        assert repro.Timeouts is repro.resilience.Timeouts
        assert repro.verify_manifest is repro.resilience.verify_manifest

    def test_fault_points_stable(self):
        """The injection-point vocabulary is API for $REPRO_FAULTS."""
        from repro.resilience import faults

        assert faults.POINTS == (
            "worker_crash",
            "worker_hang",
            "job_fail",
            "cache_corrupt",
            "cache_io",
        )

    def test_error_taxonomy(self):
        """Transience is carried on the error type, permanently."""
        assert repro.resilience.TransientFault("x").transient
        assert not repro.resilience.PermanentFault("x").transient
        assert issubclass(
            repro.resilience.WorkerCrashError, repro.resilience.ReproError
        )


class TestServeNamespace:
    def test_all_snapshot(self):
        assert sorted(repro.serve.__all__) == sorted(SERVE_API)

    def test_every_name_resolves(self):
        for name in repro.serve.__all__:
            assert getattr(repro.serve, name) is not None

    def test_serve_types_exported_at_root(self):
        assert repro.ReproServer is repro.serve.ReproServer
        assert repro.create_server is repro.serve.create_server

    def test_env_var_names_stable(self):
        """Environment knobs are API for scripts and CI jobs."""
        assert repro.resilience.RETRY_ENV_VAR == "REPRO_RETRIES"
        assert repro.resilience.TIMEOUT_ENV_VAR == "REPRO_TIMEOUT"


class TestCachesvcNamespace:
    def test_all_snapshot(self):
        assert sorted(repro.cachesvc.__all__) == sorted(CACHESVC_API)

    def test_every_name_resolves(self):
        for name in repro.cachesvc.__all__:
            assert getattr(repro.cachesvc, name) is not None

    def test_cachesvc_types_exported_at_root(self):
        assert repro.RemoteCache is repro.cachesvc.RemoteCache
        assert repro.create_cache_server is repro.cachesvc.create_cache_server
        assert repro.resolve_cache_url is repro.cachesvc.resolve_cache_url

    def test_env_var_name_stable(self):
        """$REPRO_CACHE_URL is API for scripts and CI jobs."""
        assert repro.cachesvc.CACHE_URL_ENV_VAR == "REPRO_CACHE_URL"


class TestFlowNamespace:
    def test_all_snapshot(self):
        assert sorted(repro.flow.__all__) == sorted(FLOW_API)

    def test_every_name_resolves(self):
        for name in repro.flow.__all__:
            assert getattr(repro.flow, name) is not None

    def test_stage_vocabulary_stable(self):
        assert repro.flow.STAGES == ("source", "rewrite", "compile", "verify")

    def test_choice_lists_stable(self):
        assert repro.flow.PRESET_CHOICES == ["tiny", "default", "paper"]


class TestAnalysisNamespace:
    def test_all_snapshot(self):
        assert sorted(repro.analysis.__all__) == sorted(ANALYSIS_API)

    def test_every_name_resolves(self):
        for name in repro.analysis.__all__:
            assert getattr(repro.analysis, name) is not None


class TestBenchmarkTracePoints:
    """``perfbench/layers.py`` wraps layer entry points by name: module
    globals, registry entries and class attributes, some of which
    (``ExperimentCache.has_rewritten``, ``cached_mig``) have no caller
    in ``src/``.  Deleting or renaming one breaks the traced benchmark,
    so the tier-1 suite installs and removes every wrapper once."""

    def test_install_wraps_every_name_and_restore_undoes_it(self):
        from perfbench import layers
        from perfbench.tracer import Tracer

        from repro.analysis import runner

        before = dict(vars(runner.ExperimentCache))
        compile_pipeline = runner.compile_pipeline
        tracer = Tracer()
        try:
            layers.install(tracer)
            assert runner.compile_pipeline is not compile_pipeline
        finally:
            tracer.restore()
        assert runner.compile_pipeline is compile_pipeline
        assert dict(vars(runner.ExperimentCache)) == before

    def test_one_simulate_call_counts_once(self):
        """The kernel's ``simulate`` is wrapped exactly once and
        ``simulate()`` reaches it: a wrapped name stub would count the
        call twice, a bypass would count it zero times."""
        from perfbench import layers
        from perfbench.tracer import Tracer

        from repro.mig.simulate import simulate

        from .conftest import make_random_mig

        mig = make_random_mig(5, 20, seed=3)
        tracer = Tracer()
        try:
            layers.install(tracer)
            simulate(mig, [0b1010] * mig.num_pis, 0b1111)
        finally:
            tracer.restore()
        assert tracer.counts["kernel.simulate.calls"] == 1


class TestDependencies:
    def test_repro_never_imports_numpy(self):
        """The package needs nothing beyond CPython: importing it and
        every module under it (in a fresh interpreter, so no other test
        has loaded numpy) leaves numpy unloaded."""
        import os
        import subprocess
        import sys

        script = (
            "import pkgutil, sys, repro\n"
            "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
            "    if not info.name.endswith('__main__'):\n"
            "        __import__(info.name)\n"
            "print('numpy' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=60, check=True,
        ).stdout
        assert out.strip() == "False"
