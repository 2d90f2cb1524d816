"""repro — Endurance management for resistive Logic-in-Memory computing.

A from-scratch Python reproduction of

    S. Shirinzadeh, M. Soeken, P.-E. Gaillardon, G. De Micheli,
    R. Drechsler, "Endurance Management for Resistive Logic-In-Memory
    Computing Architectures", DATE 2017.

The package provides:

* :mod:`repro.mig` — Majority-Inverter Graphs: data structure, Boolean
  algebra, rewriting engine, bit-parallel simulation;
* :mod:`repro.plim` — the PLiM computer: RM3 ISA, behavioural RRAM array
  with endurance tracking, controller, MIG-to-RM3 compiler, verifier;
* :mod:`repro.core` — the paper's contribution: endurance-management
  policies, endurance-aware rewriting (Algorithm 2) and node selection
  (Algorithm 3), configuration presets, write-traffic statistics;
* :mod:`repro.synth` — benchmark circuit generators standing in for the
  EPFL suite used by the paper;
* :mod:`repro.imp` — material-implication (IMPLY) baseline from the
  paper's Section II;
* :mod:`repro.arch` — the pluggable PLiM machine-model layer: named
  :class:`~repro.arch.Architecture` variants (``dac16``, ``endurance``,
  ``blocked``) describing the cost table, array geometry, and endurance
  semantics the compiler targets, selected per run via ``--arch`` /
  ``$REPRO_ARCH``;
* :mod:`repro.opt` — the cost-guided rewriting optimizer: registries of
  :class:`~repro.opt.RewritePass` transformations, compile-free
  :class:`~repro.opt.Objective` cost functions (including the
  architecture-aware estimated write cost), and search strategies
  (``script``, ``greedy``, ``budget``) selected per run via ``--opt`` /
  ``$REPRO_OPT``;
* :mod:`repro.source` — the circuit-source layer: one
  :class:`~repro.source.Source` abstraction spanning registry
  benchmarks, imported netlists (``.mig``/``.blif``/``.aag``), Python
  functions compiled by :func:`~repro.synth.mig_function`, and bare
  graphs — each with a stable content fingerprint keying the caches,
  selected per run via ``--source`` / ``$REPRO_SOURCE``;
* :mod:`repro.analysis` — table/figure harnesses regenerating the paper's
  experimental evaluation;
* :mod:`repro.resilience` — fault-tolerant experiment execution: the
  transient/permanent :class:`~repro.resilience.ReproError` taxonomy,
  deterministic retry (:class:`~repro.resilience.RetryPolicy`),
  per-stage wall-clock timeouts (``--timeout`` / ``$REPRO_TIMEOUT``),
  ``run_manifest.json`` provenance sidecars, and the deterministic
  fault-injection harness (``$REPRO_FAULTS``);
* :mod:`repro.flow` — the Session + pass-pipeline API every harness entry
  point routes through: :class:`~repro.flow.Session` resolves backend,
  cache, parallelism, and preset once; :class:`~repro.flow.Flow` runs the
  source → rewrite → compile → verify pipeline with per-stage caching and
  observer hooks;
* :mod:`repro.serve` — compilation-as-a-service: a dependency-free REST
  front (``repro serve`` / :func:`~repro.serve.create_server`) that
  queues (source, config, arch, opt) jobs behind one warm Session,
  coalesces duplicate in-flight submissions, streams per-stage events,
  and serves artefacts with verifiable provenance manifests;
* :mod:`repro.cachesvc` — the shared compile-cache service: a
  cache-manager daemon (``repro cachesvc serve`` /
  :func:`~repro.cachesvc.create_cache_server`) owning a warm in-memory
  LRU tier and cross-process single-flight leases over a
  ``DiskCache`` root, with the :class:`~repro.cachesvc.RemoteCache`
  client selected via ``Session(cache_url=...)`` / ``--cache-url`` /
  ``$REPRO_CACHE_URL``.
"""

from .mig import Mig, equivalent, simulate, truth_tables
from .arch import (
    Architecture,
    available_architectures,
    get_architecture,
    register_architecture,
)
from .core.manager import (
    CompilationResult,
    EnduranceConfig,
    PRESETS,
    full_management,
)
from .core.stats import WriteTrafficStats
from .opt import (
    Optimizer,
    OptimizerSpec,
    available_objectives,
    available_strategies,
    register_objective,
    resolve_optimizer,
)
from .plim.isa import Program
from .plim.memory import RramArray
from .plim.controller import PlimController
from .plim.verify import verify_program
from .synth.registry import BENCHMARKS, build_benchmark
from .synth.frontend import mig_function
from .source import (
    Source,
    available_sources,
    register_source,
    resolve_source,
)
from .flow import Flow, FlowResult, Session
from .serve import ReproServer, create_server
from .cachesvc import RemoteCache, create_cache_server, resolve_cache_url
from .resilience import (
    PermanentFault,
    ReproError,
    RetryPolicy,
    Timeouts,
    TransientFault,
    iter_manifests,
    parse_faults,
    verify_manifest,
)

__version__ = "1.4.0"

__all__ = [
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
