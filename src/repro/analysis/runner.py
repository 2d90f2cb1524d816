"""Keyed, session-scoped experiment runner for the evaluation harness.

Every table, figure, sweep, and benchmark module of the harness compiles
the same (benchmark, configuration) pairs.  This module makes those
compilations *shared work*:

* :class:`ExperimentCache` memoizes the three expensive stages
  independently — circuit construction, MIG rewriting, and compilation
  — keyed by the *semantics* of an :class:`EnduranceConfig` (rewriting
  script, selection strategy, allocation policy, write cap, effort), the
  target machine and the rewriting optimizer, not display names.  Two
  configs that differ only in ``name`` (e.g. ``with_cap`` relabels) hit
  the same cache line; every configuration sharing a rewriting script
  reuses one rewriting run.
* :func:`run_stages` is the one stage sequence — source → rewrite →
  compile → verify for one (source, configuration) cell — that
  :meth:`repro.flow.Flow.run` and every evaluation cell run.
* :func:`walk_source` is the one per-source cell loop: a source's
  (machine x optimizer x configuration) cells, each a gap the machine
  refuses or one :func:`run_stages` call, under one degradation scope.
  :func:`run_job` runs it as one serial job — the session's ``job``
  budget, the serial fault-injection site, retries — for
  :meth:`repro.flow.Session.grid`,
  :meth:`~repro.flow.Session.run_matrix`, :meth:`repro.flow.Flow.run`
  (one cell) and every ``repro serve`` job; a worker process of
  :func:`dispatch_jobs` runs it under its own ``job`` budget while the
  supervisor retries.  Every source — a registry name, a netlist path,
  a graph — is a :class:`~repro.source.Source` and travels as one
  through the cache, the worker processes, and the disk keys (registry
  benchmarks keep their classic ``(name, preset)`` identity).  A
  parallel matrix fans the pairs its cache is missing out to workers
  and adopts the results back; its rows are then walked in order from
  the warm cache, so the parallel path is bit-for-bit identical to the
  serial one.  ``repro serve``'s isolated mode dispatches a missing
  job the same way, then walks it from the warm cache.
* One verification knob: every entry point takes ``verify`` —
  ``True`` certifies :data:`VERIFY_PATTERNS` patterns, an int *N*
  certifies *N*, and ``False`` or ``0`` runs no verify stage
  (:func:`verify_width`).  The width crosses the worker boundary as one
  pattern count.

**The tier path.**  Every stage reads memory, then the single-flight
window of the attached disk cache (a local
:class:`~repro.analysis.diskcache.DiskCache` or a
:class:`~repro.cachesvc.RemoteCache`), which is its one disk read, and
only then computes.  Against a shared cache server exactly one process
computes a cold key while concurrent requesters block in the window and
adopt its payload.  Whatever a tier returns is adopted into memory,
where the first stored entry wins, and a computed entry is written back
to disk before the window closes.  Each thread's computes are counted
(a ``make()`` after every tier missed, or a certificate widening): a
stage whose work ran none is cached, and a compile counts a miss
exactly when it compiled.  The probes (``cached_source_mig``,
``has_rewritten``, ``has``), for callers that decide before any stage
runs, walk memory and disk only and never compute; a satisfying disk
entry is adopted, so the stage call that follows is a pure memory hit.
Graphs persist under their source's identity (a built graph's is its
content fingerprint, as a :class:`~repro.source.MigSource`) and their
rewrites and results under that identity too; graphs handed straight to
:class:`ExperimentCache` and the ``"none"`` script's rewrite (a cleanup
copy) stay in memory.  Every rewrite runs through a bound
:class:`~repro.opt.Optimizer`: the fixed scripts are
``Optimizer("script", arch)``.

**Certificates.**  A compiled result carries a verification
certificate: the number of patterns it was co-simulated against.  The
compile stage stores a result at certificate 0; a verify-stage request
(:meth:`ExperimentCache.verify`) for a wider certificate co-simulates
the stored program once and writes the widened certificate back.
Certificates never narrow, in memory or on disk, whatever the writer
interleaving: the write-back carries the certificate in the entry
header, and every disk tier — a local root, a cache server, a client's
fallback root — writes through
:meth:`~repro.analysis.diskcache.DiskCache.store_blob`, which refuses a
narrower certificate than the stored one inside the entry's writer
lock.

:class:`repro.flow.Session` is the one door into an evaluation: its
``run_matrix`` (under ``evaluate_suite``/``full_report``) and ``grid``
drive this runner with the session's cache, preset, machine, optimizer
and budgets (an existing cache enters as ``Session(cache=...)``).  The
table/report layer (:mod:`repro.analysis.tables`,
:mod:`repro.analysis.report`) keeps the table vocabulary and the
renderers.
"""

from __future__ import annotations

import os
import pathlib
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from itertools import product
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..arch import (
    DEFAULT_ARCHITECTURE,
    Architecture,
    ArchitectureError,
    resolve_architecture,
)
from ..core.manager import (
    CompilationResult,
    EnduranceConfig,
    PRESETS,
    compile_pipeline,
    full_management,
)
from ..core.stats import WriteTrafficStats, improvement_percent
from ..opt import DEFAULT_EFFORT, OptLike, Optimizer, OptimizerSpec
from ..mig.graph import Mig
from ..mig.kernel import degradation_scope
from ..plim.isa import Program
from ..plim.verify import verify_program
from ..resilience import (
    DEFAULT_POLICY,
    RetriesExhaustedError,
    RetryPolicy,
    StageTimeoutError,
    WorkerCrashError,
    call_with_retry,
    classify_transient,
    time_limit,
)
from ..resilience import events as res_events
from ..resilience import faults as res_faults
from ..source import RegistrySource, Source
from ..synth.registry import build_benchmark
from .diskcache import TIER_COUNTER_KEYS, DiskCache

#: An architecture request: a registry name, an explicit
#: :class:`~repro.arch.Architecture`, or ``None`` for the ambient
#: (``$REPRO_ARCH``, else default) selection.
ArchLike = Union[str, Architecture, None]

#: A configuration request: a preset name or an explicit config object.
ConfigLike = Union[str, EnduranceConfig]

#: The pattern count ``verify=True`` certifies: every compiled program is
#: co-simulated against its source graph on this many input patterns
#: (small graphs exhaustively).
VERIFY_PATTERNS = 64


def verify_width(verify: "bool | int") -> int:
    """The pattern count a ``verify`` argument certifies.

    ``True`` means :data:`VERIFY_PATTERNS`, ``False`` or ``0`` no
    verification, and an int *N* certifies *N* patterns.
    """
    if verify is True:  # first: True == 1
        return VERIFY_PATTERNS
    if verify < 0:
        raise ValueError(f"verify takes a pattern count >= 0, not {verify}")
    return int(verify)


#: The five incremental Table I configuration presets, in column order —
#: the default matrix columns.  Deliberately an explicit list rather than
#: ``list(PRESETS)``: the preset registry may grow aliases without every
#: default table silently changing shape.
TABLE1_PRESETS: List[str] = [
    "naive",
    "dac16",
    "min-write",
    "ea-rewrite",
    "ea-full",
]


def config_key(config: EnduranceConfig) -> Tuple:
    """Semantic identity of a configuration (display name excluded).

    Two configurations with equal keys compile any MIG to the identical
    program, so cached results may be shared between them — in particular
    across :meth:`EnduranceConfig.with_cap` relabellings.
    """
    return (
        config.rewriting,
        config.selection,
        config.allocation.strategy,
        config.allocation.w_max,
        config.effort,
        config.allow_pi_overwrite,
    )


def experiment_key(
    config: EnduranceConfig,
    arch: Architecture,
    opt: Optional[OptimizerSpec] = None,
) -> Tuple:
    """Joint semantic identity of a (configuration, machine, optimizer)
    triple.

    Compiled artefacts are keyed by all three: the same configuration on
    a different machine model (cost table, geometry, endurance
    semantics) — or through a different rewriting optimizer — compiles
    to a different program, so cache lines must never be shared across
    them.  ``opt=None`` means the default ``script`` optimizer, whose
    rewriting is fully determined by the configuration key.
    """
    opt_key = opt.key() if opt is not None else ("script",)
    return (config_key(config), arch.key(), opt_key)


def mig_key(mig: Mig) -> Tuple:
    """Default cache identity of a MIG.

    Name, interface, size, *and* a structural digest over the fanin/PO
    lists — so two hand-built graphs that merely coincide in name and
    node counts never share cache lines.  The digest is process-local
    (plain ``hash``); worker processes re-derive keys from the actual
    graph objects they adopt, so this never crosses a process boundary.
    """
    return (
        mig.name,
        mig.num_pis,
        mig.num_pos,
        mig.num_nodes,
        mig.num_gates,
        mig.structural_digest(),
    )


def result_label(config: EnduranceConfig) -> str:
    """Result-dictionary key used by the tables (``wmaxN`` for caps)."""
    if config.name.startswith("ea-full+wmax"):
        return "wmax" + config.name.split("wmax")[1]
    return config.name


@dataclass
class BenchmarkEvaluation:
    """All configurations of one benchmark, verified and summarised."""

    name: str
    num_pis: int
    num_pos: int
    gates: int
    results: Dict[str, CompilationResult] = field(default_factory=dict)

    @classmethod
    def from_points(
        cls, mig: Mig, points: Sequence["GridPoint"]
    ) -> "BenchmarkEvaluation":
        """The table row of *mig*: its cells' compilations, keyed by
        :func:`result_label`."""
        return cls(
            name=mig.name,
            num_pis=mig.num_pis,
            num_pos=mig.num_pos,
            gates=mig.num_live_gates(),
            results={
                result_label(point.config): point.result.compilation
                for point in points
            },
        )

    def stats(self, config: str):
        return self.results[config].stats

    def improvement(self, config: str, baseline: str = "naive") -> float:
        """Stdev improvement of *config* over *baseline*, percent."""
        return improvement_percent(
            self.stats(baseline).stdev, self.stats(config).stdev
        )


#: Stage names in pipeline order.
STAGES: Tuple[str, ...] = ("source", "rewrite", "compile", "verify")


@dataclass(frozen=True)
class StageEvent:
    """One observer notification (start or end of a pipeline stage)."""

    stage: str
    flow: Optional[str] = None
    benchmark: Optional[str] = None
    config: Optional[str] = None
    #: Filled on end events only.
    cached: Optional[bool] = None
    seconds: Optional[float] = None

    def finished(self, *, seconds: float, cached: bool) -> "StageEvent":
        """The matching end event for this start event."""
        # Built directly: dataclasses.replace costs several times more,
        # and every stage of every table cell ends with one.
        return StageEvent(
            self.stage, self.flow, self.benchmark, self.config, cached, seconds
        )


@dataclass(frozen=True)
class StageArtifact:
    """What one stage produced: the value, provenance, and timing."""

    stage: str
    value: object
    #: Whether the stage ran no compute: its artefact came from the
    #: session cache (memory, or the attached disk cache) or from another
    #: process through the cache server.
    cached: bool
    seconds: float


@dataclass
class FlowResult:
    """Typed per-stage artefacts of one :func:`run_stages` cell."""

    mig: Mig
    rewritten: Optional[Mig]
    compilation: CompilationResult
    verified_patterns: int = 0
    stages: Dict[str, StageArtifact] = field(default_factory=dict)
    #: The machine model the compile stage targeted.
    architecture: Optional[Architecture] = None
    #: The rewriting optimizer the rewrite stage ran.
    optimizer: Optional[OptimizerSpec] = None

    @property
    def program(self) -> Program:
        return self.compilation.program

    @property
    def stats(self) -> WriteTrafficStats:
        return self.compilation.stats

    @property
    def config(self) -> EnduranceConfig:
        return self.compilation.config


@dataclass(frozen=True)
class GridPoint:
    """One (source, machine, optimizer, configuration) cell of
    :meth:`repro.flow.Session.grid`.

    ``result`` is ``None`` when the machine refuses the configuration;
    ``reason`` then says why (e.g. the ``dac16`` machine has no wear
    counters for ``min_write``).
    """

    source: Source
    config: EnduranceConfig
    arch: Architecture
    optimizer: OptimizerSpec
    result: Optional[FlowResult]
    reason: str = ""


def _graph_id(mig_or_key) -> Tuple:
    """The graph key of a :class:`Mig` or an already-computed key."""
    return mig_or_key if isinstance(mig_or_key, tuple) else mig_key(mig_or_key)


def resolve_target(
    arch: ArchLike = None,
    opt: "OptLike | Optimizer" = None,
    session=None,
) -> Tuple[Architecture, Optimizer]:
    """The machine and bound optimizer one compilation targets.

    Each resolves explicit > *session*'s > ambient (``$REPRO_ARCH`` /
    ``$REPRO_OPT``, else the defaults).  An explicit
    :class:`~repro.opt.Optimizer` is used as bound.
    """
    if session is not None:
        arch = session.architecture if arch is None else arch
        opt = session.optimizer if opt is None else opt
    machine = resolve_architecture(arch)
    if isinstance(opt, Optimizer):
        return machine, opt
    return machine, Optimizer(opt, machine)


class _Memo(dict):
    """One in-memory tier of :class:`ExperimentCache`: the first stored
    entry wins."""

    def adopt(self, key, entry):
        return self.setdefault(key, entry)


class _CertifiedMemo(_Memo):
    """Compiled ``(result, certificate)`` entries: the first stored
    result wins and its certificate never narrows."""

    def adopt(self, key, entry):
        stored = self.get(key)
        if stored is not None:
            entry = (stored[0], max(entry[1], stored[1]))
        self[key] = entry
        return entry


class ExperimentCache:
    """Session-scoped memo of built, rewritten, and compiled artefacts.

    Each stage reads through memory and the single-flight window of the
    attached *disk*, as the module docstring describes; results keep
    the certificate rule stated there.  The cache is lock-protected, so
    one instance may be shared by threads; worker *processes* get their
    own instance.
    """

    def __init__(self, disk: Optional[DiskCache] = None) -> None:
        # source identity -> graph; (graph key, rewrite key) -> graph;
        # (graph key, experiment key) -> (result, certificate)
        self._migs = _Memo()
        self._rewrites = _Memo()
        self._results = _CertifiedMemo()
        # graph key -> source identity: the persistent key under which
        # the graph's artefacts may go to disk.
        self._bench_keys: Dict[Tuple, Tuple] = {}
        # source identity -> the source's name, which its jobs' events
        # are recorded under (see _certify).
        self._job_names: Dict[Tuple, str] = {}
        self.disk = disk
        self._lock = threading.RLock()
        self._local = threading.local()  # this thread's computes()
        #: Compile requests served from any tier without compiling.
        self.hits = 0
        #: Compile and verify requests that compiled.
        self.misses = 0
        #: Aggregated counters of the ``run_matrix(parallel=N)`` worker
        #: processes that fed this cache (each worker has its own
        #: in-memory cache and disk handle, so the parent's counters
        #: alone under-report what the fan-out actually did).
        self.worker_counters: Dict[str, int] = {
            "workers": 0, **dict.fromkeys(self.counters(), 0)
        }

    def counters(self) -> Dict[str, int]:
        """This cache's own hit/miss counters (memory and disk).

        Always includes the remote-tier keys (zero without a
        :class:`~repro.cachesvc.RemoteCache` attached), so counter
        deltas and worker aggregation never branch on the disk kind.
        """
        disk = self.disk
        counters = {
            "hits": self.hits,
            "misses": self.misses,
            "disk_hits": disk.hits if disk is not None else 0,
            "disk_misses": disk.misses if disk is not None else 0,
            "disk_lock_skips": disk.lock_skips if disk is not None else 0,
            **dict.fromkeys(TIER_COUNTER_KEYS, 0),
        }
        if disk is not None:
            counters.update(disk.tier_counters())
        return counters

    def absorb_worker_counters(self, counters: Dict[str, int]) -> None:
        """Fold one worker's :meth:`counters` into
        :attr:`worker_counters` (thread-safe)."""
        with self._lock:
            self.worker_counters["workers"] += 1
            for key, value in counters.items():
                if key in self.worker_counters:
                    self.worker_counters[key] += value

    def computes(self) -> int:
        """This thread's computes through the cache so far: each
        ``make()`` after every tier missed, and each certificate widening."""
        return getattr(self._local, "computes", 0)

    # -- the tier path ---------------------------------------------------

    def _keep(self, table, mem_key, entry):
        """Adopt *entry* into *table*; returns the entry that won."""
        with self._lock:
            return table.adopt(mem_key, entry)

    def _disk_key(self, kind, graph_id, tail) -> Optional[Tuple]:
        """The persistent key of *graph_id*'s *kind* artefact, or
        ``None`` without a disk tier or a source identity for the
        graph."""
        if self.disk is None:
            return None
        with self._lock:
            identity = self._bench_keys.get(graph_id)
        return None if identity is None else (kind, *identity, tail)

    def _lookup(self, table, mem_key, disk_key, accept=None):
        """*mem_key*'s entry from memory, else from disk, else ``None``.

        Never computes.  A disk entry is adopted into memory unless
        *accept* refuses it (a refused entry is still returned).
        """
        with self._lock:
            entry = table.get(mem_key)
        if entry is None and disk_key is not None:
            entry = self.disk.load(disk_key)
            if entry is not None and (accept is None or accept(entry)):
                entry = self._keep(table, mem_key, entry)
        return entry

    def _through(self, table, mem_key, disk_key, make, store=None):
        """*mem_key*'s entry from memory, else from the disk tier's
        single-flight window (its one read), else computed by *make()*.

        The computed entry is adopted into memory and written back by
        ``store(disk_key, entry)`` (a plain disk store by default) while
        the single-flight window is still open, so a failed compute
        hands the lease to the next waiter.
        """
        entry = self._lookup(table, mem_key, None)
        if entry is not None:
            return entry
        flight = (
            nullcontext() if disk_key is None else self.disk.flight(disk_key)
        )
        with flight as entry:
            if entry is not None:
                return self._keep(table, mem_key, entry)
            self._local.computes = self.computes() + 1
            entry = self._keep(table, mem_key, make())
            if disk_key is not None:
                (store or self.disk.store)(disk_key, entry)
        return entry

    # -- source ----------------------------------------------------------

    def _remember(self, identity: Tuple, mig: Mig, job: str) -> Mig:
        """Keep *mig* as *identity*'s graph (first stored wins) and map
        its graph key back to *identity*; *job* is the source's name."""
        with self._lock:
            mig = self._migs.adopt(identity, mig)
            self._bench_keys[mig_key(mig)] = identity
            self._job_names.setdefault(identity, job)
        return mig

    def _graph(self, identity: Tuple, job: str, build=None) -> Optional[Mig]:
        """The graph of *identity*, built by *build()* on a full miss;
        without *build* a probe that returns ``None`` instead."""
        disk_key = ("mig", *identity) if self.disk is not None else None
        if build is None:
            mig = self._lookup(self._migs, identity, disk_key)
        else:
            mig = self._through(self._migs, identity, disk_key, build)
        return None if mig is None else self._remember(identity, mig, job)

    def cached_mig(self, name: str, preset: str) -> Optional[Mig]:
        """Fetch an already-built registry benchmark, or ``None``
        (never builds)."""
        return self._graph((name, preset), name)

    def cached_source_mig(self, source: Source, preset: str) -> Optional[Mig]:
        """Fetch an already-built source, or ``None`` (never builds)."""
        return self._graph(tuple(source.identity(preset)), source.name)

    def benchmark_mig(self, name: str, preset: str) -> Mig:
        """Build (or fetch) a registry benchmark."""
        return self._graph(
            (name, preset), name, lambda: build_benchmark(name, preset)
        )

    def source_mig(self, source: Source, preset: str) -> Mig:
        """Build (or fetch) any :class:`~repro.source.Source`.

        Registry sources build through this module's
        :func:`~repro.synth.registry.build_benchmark` (the one entry
        point that source-layer tracing wraps); every other kind through
        :meth:`~repro.source.Source.build`.
        """
        if isinstance(source, RegistrySource):
            return self.benchmark_mig(source.name, preset)
        return self._graph(
            tuple(source.identity(preset)),
            source.name,
            lambda: source.build(preset),
        )

    # -- rewrite ---------------------------------------------------------

    def _rewrite_keys(
        self, graph_id: Tuple, script: str, effort: int, optimizer: Optimizer
    ) -> Tuple[Tuple, Optional[Tuple]]:
        """(memory key, disk key) of one rewriting result.  Results are
        keyed by :meth:`repro.opt.Optimizer.rewrite_key`, so script
        rewrites are shared across machines and architecture-sensitive
        search results are kept per machine."""
        tail = optimizer.rewrite_key(script, effort)
        disk_key = (
            None if script == "none"
            else self._disk_key("rewrite", graph_id, tail)
        )
        return (graph_id, tail), disk_key

    def has_rewritten(
        self, mig_or_key, script: str, effort: int, *, optimizer: Optimizer
    ) -> bool:
        """Whether the rewriting result is already available (never
        computes)."""
        keys = self._rewrite_keys(
            _graph_id(mig_or_key), script, effort, optimizer
        )
        return self._lookup(self._rewrites, *keys) is not None

    def rewritten(
        self,
        mig: Mig,
        script: str,
        effort: int,
        key: Optional[Tuple] = None,
        *,
        optimizer: Optimizer,
    ) -> Mig:
        """Rewriting result shared by every config running *script*
        through *optimizer* (``Optimizer("script", arch)`` for the fixed
        script pipelines)."""
        keys = self._rewrite_keys(
            key or mig_key(mig), script, effort, optimizer
        )
        return self._through(
            self._rewrites, *keys,
            lambda: optimizer.run(mig, script, effort=effort),
        )

    # -- compile and verify ----------------------------------------------

    def _result_keys(
        self,
        graph_id: Tuple,
        config: EnduranceConfig,
        arch: Architecture,
        optimizer: Optimizer,
    ) -> Tuple[Tuple, Optional[Tuple]]:
        """(memory key, disk key) of one compiled result."""
        semantic = experiment_key(config, arch, optimizer.spec)
        disk_key = self._disk_key("result", graph_id, semantic)
        return (graph_id, semantic), disk_key

    def _certify(
        self,
        disk_key: Tuple,
        entry: Tuple[CompilationResult, int],
        mig: Mig,
        config: EnduranceConfig,
        arch: Architecture,
        optimizer: Optimizer,
    ) -> None:
        """Write compiled *entry* back to disk with its certificate
        (``entry[1]``) and manifest; the disk tier refuses it when it
        already holds a wider certificate.

        The ``run_manifest.json`` fields name what produced the
        artefact (source, config, machine, optimizer, certificate
        width); ``events`` carries this process's resilience log for
        the job (retries, degradations, injected faults), filtered by
        job name so sibling benchmarks' events stay out of each other's
        manifests.  Jobs record events under their source's name, which
        need not be the graph's (a netlist's ``.model`` name differs
        from its file stem).
        """
        identity = disk_key[1:-1]
        names = {mig.name, self._job_names.get(identity, mig.name)}
        self.disk.store(
            disk_key,
            entry,
            certificate=entry[1],
            manifest={
                "source": [str(part) for part in identity],
                "benchmark": mig.name,
                "config": config.name,
                "config_key": repr(config_key(config)),
                "arch": arch.name,
                "opt": optimizer.spec.label(),
                "verified_patterns": entry[1],
                "events": [
                    e for e in res_events.snapshot() if e.get("job") in names
                ],
            },
        )

    def _compile(
        self,
        mig: Mig,
        config: EnduranceConfig,
        key: Optional[Tuple],
        patterns: int,
        arch: ArchLike,
        optimizer: "OptLike | Optimizer",
        count_hit: bool,
    ) -> CompilationResult:
        """The compiled result of *mig* under *config*, certified for at
        least *patterns* (0: no verification); see :meth:`compile`."""
        graph_id = key or mig_key(mig)
        arch, optimizer = resolve_target(arch, optimizer)
        mem_key, disk_key = self._result_keys(
            graph_id, config, arch, optimizer
        )

        def certify(disk_key, entry) -> None:
            self._certify(disk_key, entry, mig, config, arch, optimizer)

        def make() -> Tuple[CompilationResult, int]:
            rewritten = self.rewritten(
                mig, config.rewriting, config.effort, key=graph_id,
                optimizer=optimizer,
            )
            result = compile_pipeline(
                mig, config, rewritten=rewritten, arch=arch
            )
            if patterns:
                verify_program(result.program, mig, patterns=patterns)
            return result, patterns

        computes = self.computes()
        result, verified = self._through(
            self._results, mem_key, disk_key, make, certify
        )
        with self._lock:
            if self.computes() != computes:
                self.misses += 1
            elif count_hit:
                self.hits += 1
        if patterns > verified:
            self._local.computes = self.computes() + 1
            verify_program(result.program, mig, patterns=patterns)
            entry = self._keep(self._results, mem_key, (result, patterns))
            if disk_key is not None:
                certify(disk_key, entry)
            result = entry[0]
        return result

    def compile(
        self,
        mig: Mig,
        config: EnduranceConfig,
        *,
        key: Optional[Tuple] = None,
        arch: ArchLike = None,
        optimizer: "OptLike | Optimizer" = None,
    ) -> CompilationResult:
        """Compile *mig* under *config* for *arch* through *optimizer*.

        A computed result is stored at certificate 0; :meth:`verify`
        certifies it.  Entries are keyed by the target machine and
        optimizer (:func:`experiment_key`), so one cache serves every
        machine model and optimizer spec without cross-talk.  Counts a
        miss when it compiles and a hit otherwise.
        """
        return self._compile(
            mig, config, key, 0, arch, optimizer, count_hit=True
        )

    def verify(
        self,
        mig: Mig,
        config: EnduranceConfig,
        *,
        key: Optional[Tuple] = None,
        patterns: int = VERIFY_PATTERNS,
        arch: ArchLike = None,
        optimizer: "OptLike | Optimizer" = None,
    ) -> CompilationResult:
        """Ensure the stored result carries a certificate >= *patterns*.

        The verify stage of :func:`run_stages`: co-simulates the stored
        program (compiling it first on a miss) and writes the widened
        certificate back.  It counts no hit: the compile stage before it
        counted the request.
        """
        return self._compile(
            mig, config, key, patterns, arch, optimizer, count_hit=False
        )

    def has(
        self,
        mig_or_key,
        config: EnduranceConfig,
        *,
        verified_patterns: int = 0,
        arch: ArchLike = None,
        optimizer: "OptLike | Optimizer" = None,
    ) -> bool:
        """Whether a stored result satisfies this pair's requirements
        (never computes).

        With a nonzero *verified_patterns* the entry must also carry a
        certificate at least that wide; a narrower disk entry is not
        adopted.
        """
        arch, optimizer = resolve_target(arch, optimizer)
        keys = self._result_keys(
            _graph_id(mig_or_key), config, arch, optimizer
        )

        def satisfies(entry) -> bool:
            return entry[1] >= verified_patterns

        entry = self._lookup(self._results, *keys, accept=satisfies)
        return entry is not None and satisfies(entry)

    def adopt(
        self,
        identity: Tuple,
        job: str,
        mig: Mig,
        configs: Sequence[EnduranceConfig],
        evaluation: "BenchmarkEvaluation",
        verified_patterns: int = 0,
        arch: ArchLike = None,
        optimizer: "OptLike | Optimizer" = None,
    ) -> None:
        """Merge results computed elsewhere (a worker process) into this
        cache.

        *identity* is the source's persistent identity and *job* its
        name (see :meth:`source_mig`).  Existing result objects are kept
        (first stored wins), but their verification certificates are
        upgraded: compilation is deterministic, so a worker verifying
        its recompilation certifies the identical stored program too.
        *arch* and *optimizer* must name the machine and optimizer the
        worker targeted — adopted entries land under their keys.
        """
        arch, optimizer = resolve_target(arch, optimizer)
        with self._lock:
            graph_id = mig_key(self._remember(identity, mig, job))
            for cfg in configs:
                self._results.adopt(
                    (graph_id, experiment_key(cfg, arch, optimizer.spec)),
                    (evaluation.results[result_label(cfg)], verified_patterns),
                )

    def annotate_manifests(
        self,
        identity: Tuple,
        configs: Sequence[EnduranceConfig],
        events: Sequence[Dict],
        *,
        arch: ArchLike = None,
        optimizer: "OptLike | Optimizer" = None,
    ) -> None:
        """Fold recovery *events* into the persisted manifests of
        *identity*'s experiments.

        The parallel supervisor's half of the manifest audit log: worker
        crashes, pool respawns, and retries are observed in the *parent*
        — after the worker's manifests are already on disk — so they are
        appended here once the job's results are adopted.  Best-effort
        like all manifest writes; experiments without a sidecar (no disk
        cache, store lost its lock) are skipped silently.
        """
        if self.disk is None or not events:
            return
        from ..resilience.manifest import append_manifest_events

        arch, optimizer = resolve_target(arch, optimizer)
        for cfg in configs:
            semantic = experiment_key(cfg, arch, optimizer.spec)
            entry = self.disk.entry_path(("result", *identity, semantic))
            append_manifest_events(entry, list(events))


def resolve_config(config: ConfigLike) -> EnduranceConfig:
    """The configuration of a preset name (explicit configs pass
    through); an unknown name raises a :class:`ValueError` that lists
    the presets."""
    if not isinstance(config, str):
        return config
    try:
        return PRESETS[config]
    except KeyError:
        raise ValueError(
            f"unknown configuration preset {config!r}; "
            f"choose one of: {', '.join(PRESETS)}"
        ) from None


def resolve_configs(
    configs: Optional[Sequence[ConfigLike]] = None,
    caps: Optional[Sequence[int]] = None,
    effort: int = DEFAULT_EFFORT,
) -> List[EnduranceConfig]:
    """Expand preset names / explicit configs / write caps into one list.

    The *effort* override applies to preset names and caps; explicit
    :class:`EnduranceConfig` objects already carry their own effort and
    pass through untouched.
    """
    named = [
        (isinstance(entry, str), resolve_config(entry))
        for entry in (configs if configs is not None else TABLE1_PRESETS)
    ] + [(True, full_management(cap)) for cap in caps or []]
    return [
        replace(cfg, effort=effort) if override and cfg.effort != effort else cfg
        for override, cfg in named
    ]


def run_stages(
    session,
    source: Source,
    config: EnduranceConfig,
    *,
    preset: str,
    arch: Architecture,
    optimizer: Optimizer,
    verify: "bool | int" = False,
    keep_rewritten: bool = True,
    hooks: Tuple[Sequence[Callable], Sequence[Callable]] = ((), ()),
) -> FlowResult:
    """Run one (source, configuration) cell through *session*.

    Each stage runs under the session's budget for it, on any thread,
    and sends a start and an end :class:`StageEvent` to the *hooks*
    (start, end) and the session's observers; it is ``cached`` when it
    ran no compute.  *source* is a :class:`~repro.source.Source` built
    at *preset* (a built graph enters as a
    :class:`~repro.source.MigSource`).  The compile stage stores the
    result at certificate 0; the verify stage, run when *verify* asks
    for patterns (see :func:`verify_width`), co-simulates and certifies
    it.
    ``keep_rewritten=False`` skips the rewrite when the result is already
    held (the probe adopts a disk hit), leaving ``rewritten`` ``None``.
    """
    cache = session.cache
    timeouts = session.timeouts
    patterns = verify_width(verify)
    label = f"{source.label(preset)}/{config.name}"
    if arch.name != DEFAULT_ARCHITECTURE:
        label += f"#{arch.name}"
    if optimizer.spec.strategy != "script":
        label += f"!{optimizer.spec.label()}"
    starts, ends = hooks
    stages: Dict[str, StageArtifact] = {}

    def stage(name: str, benchmark: str, work):
        event = StageEvent(name, label, benchmark, config.name)
        for hook in starts:
            hook(event)
        session.emit("on_stage_start", event)
        start = time.perf_counter()
        computes = cache.computes()
        # The session's budget for this stage binds on any thread; a
        # blown one raises StageTimeoutError instead of wedging the run.
        with time_limit(timeouts.limit(name), stage=name, job=benchmark):
            value = work()
        cached = cache.computes() == computes
        seconds = time.perf_counter() - start
        stages[name] = StageArtifact(name, value, cached, seconds)
        event = event.finished(seconds=seconds, cached=cached)
        for hook in ends:
            hook(event)
        session.emit("on_stage_end", event)
        return value

    # source: build (or fetch) the graph under evaluation — registry
    # benchmarks through their classic (name, preset) keys, external
    # sources under their content fingerprints
    mig = stage(
        "source", source.name, lambda: cache.source_mig(source, preset)
    )
    graph_id = mig_key(mig)
    target = dict(arch=arch, optimizer=optimizer)

    def rewrite() -> Optional[Mig]:
        if not keep_rewritten and cache.has(graph_id, config, **target):
            return None
        return cache.rewritten(
            mig, config.rewriting, config.effort, key=graph_id,
            optimizer=optimizer,
        )

    # rewrite: shared by every config running the same script through
    # the same optimizer
    rewritten = stage("rewrite", mig.name, rewrite)
    # compile: selection + allocation + RM3 emission + stats, targeting
    # the resolved machine model; stored at certificate 0
    compilation = stage(
        "compile", mig.name,
        lambda: cache.compile(mig, config, key=graph_id, **target),
    )
    # verify: co-simulate program vs MIG and certify the stored result
    if patterns:
        stage(
            "verify", mig.name,
            lambda: cache.verify(
                mig, config, key=graph_id, patterns=patterns, **target
            ),
        )
    return FlowResult(
        mig=mig,
        rewritten=rewritten,
        compilation=compilation,
        verified_patterns=patterns,
        stages=stages,
        architecture=arch,
        optimizer=optimizer.spec,
    )


def _refusal(machine: Architecture, config: EnduranceConfig) -> str:
    """Why *machine* refuses *config* (empty when it supports it)."""
    try:
        machine.validate_config(config)
    except ArchitectureError as error:
        return str(error)
    return ""


def check_columns(
    machine: Architecture, configs: Sequence[EnduranceConfig]
) -> None:
    """Refuse table columns before any of their cells runs.

    A configuration *machine* refuses raises its
    :class:`~repro.arch.ArchitectureError`; distinct configurations
    sharing a :func:`result_label` raise :class:`ValueError` — a silent
    last-wins overwrite would also poison the shared cache through
    :meth:`ExperimentCache.adopt`, which maps labels back to
    configurations.
    """
    labels: Dict[str, Tuple] = {}
    for config in configs:
        machine.validate_config(config)
        label, semantic = result_label(config), config_key(config)
        if labels.setdefault(label, semantic) != semantic:
            raise ValueError(
                f"distinct configurations share the result label "
                f"{label!r}; rename one of them"
            )


def walk_source(
    session,
    source: Source,
    targets: Sequence[Tuple[Architecture, Optimizer]],
    configs: Sequence[EnduranceConfig],
    *,
    preset: str,
    verify: "bool | int" = False,
    keep_rewritten: bool = True,
    hooks: Tuple[Sequence[Callable], Sequence[Callable]] = ((), ()),
) -> List[GridPoint]:
    """One source's cells: every (machine, optimizer) of *targets* x
    every configuration, in that nesting order.

    A cell the machine refuses
    (:meth:`~repro.arch.Architecture.supports_config`) is a gap point
    carrying the refusal reason and runs no stage; every other cell is
    one :func:`run_stages` call, its stage events sent to *hooks*.  The
    cells share one degradation scope:
    a numpy-kernel failure demotes the rest of *this* source's cells to
    the (bit-identical) bigint engine and is recorded in their
    manifests; the next source tries the numpy engine again.
    """
    points: List[GridPoint] = []
    with degradation_scope(source.name):
        for (machine, optimizer), config in product(targets, configs):
            reason = _refusal(machine, config)
            result = None if reason else run_stages(
                session, source, config, preset=preset, arch=machine,
                optimizer=optimizer, verify=verify,
                keep_rewritten=keep_rewritten, hooks=hooks,
            )
            points.append(
                GridPoint(
                    source, config, machine, optimizer.spec, result, reason
                )
            )
    return points


def run_job(
    session,
    source: Source,
    targets: Sequence[Tuple[Architecture, Optimizer]],
    configs: Sequence[EnduranceConfig],
    *,
    preset: Optional[str] = None,
    verify: "bool | int" = False,
    keep_rewritten: bool = True,
    hooks: Tuple[Sequence[Callable], Sequence[Callable]] = ((), ()),
    policy: Optional[RetryPolicy] = None,
    on_retry: Optional[Callable[[int, BaseException], None]] = None,
) -> List[GridPoint]:
    """:func:`walk_source` as one serial job of *session*.

    The one serial job wrapper: :meth:`repro.flow.Session.grid`,
    :meth:`~repro.flow.Session.run_matrix`, :meth:`repro.flow.Flow.run`
    and every ``repro serve`` job run through it.  The job runs under
    the session's ``job`` budget and the serial fault-injection site
    (the worker entry minus the process-killing faults), so the retry
    taxonomy behaves as in a pool worker; transient failures are
    retried under *policy* (default :data:`DEFAULT_POLICY`), each retry
    recorded in the resilience log and passed to *on_retry* as
    ``(attempt, error)``.  *preset* defaults to the session's.
    """
    job = source.name
    job_timeout = session.timeouts.limit("job")
    preset = preset or session.preset

    def attempt() -> List[GridPoint]:
        with time_limit(job_timeout, stage="job", job=job):
            res_faults.serial_entry(job)
            return walk_source(
                session, source, targets, configs, preset=preset,
                verify=verify, keep_rewritten=keep_rewritten, hooks=hooks,
            )

    def retried(n: int, error: BaseException) -> None:
        res_events.record("retry", job=job, attempt=n, error=repr(error))
        if on_retry is not None:
            on_retry(n, error)

    return call_with_retry(
        attempt, policy=policy or DEFAULT_POLICY, key=(job,), job=job,
        on_retry=retried,
    )


#: Directory containing the ``repro`` package, for worker bootstrap.
_PACKAGE_ROOT = str(pathlib.Path(__file__).resolve().parents[2])

# Refcounted PYTHONPATH patch: os.environ is process-global, so
# concurrent pools must not restore it while a sibling is still
# spawning workers.
_ENV_LOCK = threading.Lock()
_ENV_DEPTH = 0
_ENV_SAVED: object = None
_ENV_UNTOUCHED = object()  # sentinel: nothing to restore

#: How long the supervisor waits for a terminated worker to exit so it
#: can be reaped; a SIGTERM'd worker normally exits in milliseconds.
_REAP_SECONDS = 5.0


@contextmanager
def _importable_in_workers():
    """Make ``repro`` importable in spawned worker processes.

    Under the ``fork`` start method children inherit the parent's
    ``sys.path``, but ``spawn`` (Windows, macOS default) re-executes the
    interpreter, which only sees ``PYTHONPATH`` — and the pytest
    ``pythonpath`` ini option patches the test process, not the
    environment.  The package root is exported while any pool is alive
    (refcounted across threads) and restored when the last one exits.
    """
    global _ENV_DEPTH, _ENV_SAVED
    with _ENV_LOCK:
        if _ENV_DEPTH == 0:
            existing = os.environ.get("PYTHONPATH")
            parts = existing.split(os.pathsep) if existing else []
            if _PACKAGE_ROOT in parts:
                _ENV_SAVED = _ENV_UNTOUCHED
            else:
                _ENV_SAVED = existing
                os.environ["PYTHONPATH"] = os.pathsep.join(
                    [_PACKAGE_ROOT] + parts
                )
        _ENV_DEPTH += 1
    try:
        yield
    finally:
        with _ENV_LOCK:
            _ENV_DEPTH -= 1
            if _ENV_DEPTH == 0 and _ENV_SAVED is not _ENV_UNTOUCHED:
                if _ENV_SAVED is None:
                    os.environ.pop("PYTHONPATH", None)
                else:
                    os.environ["PYTHONPATH"] = _ENV_SAVED


def _run_benchmark_job(args) -> Tuple[Mig, BenchmarkEvaluation, Dict[str, int]]:
    """Worker-process entry: one source's :func:`walk_source` in a local
    session, as one table row.

    The worker reconstructs a :class:`repro.flow.Session` from the
    picklable spec shipped by the parent — same disk-cache root, same
    machine model and optimizer — so
    cross-cutting concerns resolve identically on both sides of the
    process boundary.  Returns the built MIG alongside the evaluation
    (so the parent can adopt both into a shared cache) and the worker
    cache's hit/miss counters (so ``BENCH_suite.json`` can report the
    fan-out's cache behaviour, not just the parent's); the job's
    resilience events reach the manifests the worker stores.  The job's
    circuit is a picklable :class:`~repro.source.Source` and the job is
    named after it; *verify* is the pattern count to certify.

    The job runs under the session's ``job`` wall-clock budget, each
    of its stages under that stage's budget, and passes the
    worker-entry fault-injection site first, so an injected crash kills
    the process before any work.  It does not retry: the supervisor
    (:func:`_supervised_pool_map`) does.
    """
    source, preset, configs, verify, spec = args
    from ..flow.session import Session  # deferred: flow imports runner

    job = source.name
    session = Session.from_spec(spec)
    target = resolve_target(session=session)
    check_columns(target[0], configs)
    with time_limit(session.timeouts.limit("job"), stage="job", job=job):
        res_faults.worker_entry(job)
        points = walk_source(
            session, source, [target], configs, preset=preset,
            verify=verify, keep_rewritten=False,
        )
    mig = session.cache.source_mig(source, preset)
    evaluation = BenchmarkEvaluation.from_points(mig, points)
    return mig, evaluation, session.cache.counters()


def _supervised_pool_map(
    work: List[Tuple],
    parallel: int,
    *,
    policy: RetryPolicy = DEFAULT_POLICY,
    job_timeout: Optional[float] = None,
) -> Tuple[List[Tuple], List[List[Dict]]]:
    """Run :func:`_run_benchmark_job` over *work*, supervised.

    The supervisor half of ``Session.run_matrix(parallel=N)``'s fault
    tolerance:

    * **Retry** — a job failing with a *transient* error (see
      :func:`repro.resilience.classify_transient`) is resubmitted after
      a deterministic exponential backoff, up to ``policy.attempts``;
      permanent errors and exhausted budgets propagate.
    * **Pool respawn** — a dying worker process (``os._exit``, segfault,
      OOM kill) breaks the whole ``ProcessPoolExecutor``; the supervisor
      terminates it, spawns a fresh pool, and resubmits *only the jobs
      that had not finished* — completed results are kept.
    * **Job deadline** — with a ``job`` budget (*job_timeout*), a job
      whose worker exceeds it from the parent's clock is abandoned: the
      (possibly wedged) pool is killed and a permanent
      :class:`~repro.resilience.StageTimeoutError` raised.  This backs
      up the worker's own cooperative deadline, which a worker wedged
      between checkpoints never reaches.
    * **Interrupt** — on ``KeyboardInterrupt`` (or any other error) the
      pool is terminated and its pending futures cancelled before the
      exception propagates, so Ctrl-C never leaks worker processes.

    Returns the per-job payloads in *work* order plus the parent-side
    recovery events of each job (for the manifests the workers already
    wrote — the parent is the only witness of crashes and respawns).
    """
    results: List[Optional[Tuple]] = [None] * len(work)
    attempts = [0] * len(work)
    parent_events: List[List[Dict]] = [[] for _ in work]
    job_names = [item[0].name for item in work]
    unfinished = set(range(len(work)))
    pool: Optional[ProcessPoolExecutor] = None
    futures: Dict = {}
    deadlines: Dict = {}

    def record(idx: int, kind: str, **detail) -> None:
        parent_events[idx].append(
            res_events.record(kind, job=job_names[idx], **detail)
        )

    def submit(idx: int) -> None:
        nonlocal pool
        attempts[idx] += 1
        while True:
            if pool is None:
                pool = ProcessPoolExecutor(max_workers=parallel)
            try:
                future = pool.submit(_run_benchmark_job, work[idx])
                break
            except BrokenProcessPool:
                # The pool died between submissions (a just-resubmitted
                # job crashed during a sibling's backoff sleep).  Its
                # in-flight futures already carry BrokenProcessPool and
                # surface through the main loop; just respawn for this
                # submission.
                pool.shutdown(wait=False, cancel_futures=True)
                pool = None
        futures[future] = idx
        if job_timeout:
            deadlines[future] = time.monotonic() + job_timeout

    def kill_pool() -> None:
        """Terminate and reap every worker, and drop the pool (broken or
        not).  A killed worker left unreaped keeps its PID, so a disk
        cache entry lock it leaked would still read as held by a live
        writer, and every later store of that entry would be skipped."""
        nonlocal pool
        if pool is not None:
            processes = list(getattr(pool, "_processes", {}).values())
            for process in processes:
                try:
                    process.terminate()
                except Exception:
                    pass
            pool.shutdown(wait=False, cancel_futures=True)
            for process in processes:
                process.join(timeout=_REAP_SECONDS)
            pool = None
        futures.clear()
        deadlines.clear()

    def check_retryable(idx: int, error: BaseException) -> None:
        """Record the retry of a transient job failure, or give up loudly."""
        if not classify_transient(error):
            raise error
        if attempts[idx] >= policy.attempts:
            raise RetriesExhaustedError(job_names[idx], attempts[idx], error)
        record(idx, "retry", attempt=attempts[idx], error=repr(error))

    try:
        for idx in sorted(unfinished):
            submit(idx)
        while unfinished:
            timeout = None
            if deadlines:
                timeout = max(
                    0.0, min(deadlines.values()) - time.monotonic()
                )
            done, _ = wait(
                set(futures), timeout=timeout, return_when=FIRST_COMPLETED
            )
            if not done:
                now = time.monotonic()
                expired = [
                    futures[f] for f, dl in deadlines.items() if dl <= now
                ]
                if expired:
                    idx = expired[0]
                    record(idx, "job_timeout", seconds=job_timeout)
                    raise StageTimeoutError(
                        "job", job_timeout, job_names[idx]
                    )
                continue
            crashed: List[int] = []
            retries: List[int] = []
            for future in done:
                idx = futures.pop(future)
                deadlines.pop(future, None)
                try:
                    payload = future.result()
                except BrokenProcessPool:
                    crashed.append(idx)
                    continue
                except BaseException as error:
                    check_retryable(idx, error)
                    retries.append(idx)
                    continue
                results[idx] = payload
                unfinished.discard(idx)
            if crashed:
                # One dead worker poisons the whole pool: every future
                # still in flight will fail the same way.  Respawn once
                # and resubmit only the jobs that had not finished.
                resubmit = sorted(crashed + list(futures.values()))
                kill_pool()
                res_events.record(
                    "pool_respawn", jobs=[job_names[i] for i in resubmit]
                )
                for idx in resubmit:
                    check_retryable(
                        idx, WorkerCrashError(job_names[idx], attempts[idx])
                    )
                retries.extend(resubmit)
            for idx in sorted(set(retries)):
                time.sleep(policy.delay(attempts[idx], key=(job_names[idx],)))
                submit(idx)
    except BaseException:
        kill_pool()
        raise
    if pool is not None:
        pool.shutdown(wait=True)
    return list(results), parent_events


def missing_jobs(
    cache: ExperimentCache,
    sources: Sequence[Source],
    configs: Sequence[EnduranceConfig],
    *,
    preset: str,
    verify: "bool | int",
    arch: Architecture,
    optimizer: Optimizer,
) -> List[Tuple[Source, List[EnduranceConfig]]]:
    """The :func:`dispatch_jobs` work *cache* is missing: each source
    with the configurations whose results it does not hold, in memory or
    on disk, for *arch* and *optimizer* (never computes).  An entry
    without a wide-enough verification certificate counts as missing."""
    patterns = verify_width(verify)
    work = []
    for source in sources:
        mig = cache.cached_source_mig(source, preset)
        missing = [
            cfg for cfg in configs
            if mig is None or not cache.has(
                mig, cfg, verified_patterns=patterns, arch=arch,
                optimizer=optimizer,
            )
        ]
        if missing:
            work.append((source, missing))
    return work


def dispatch_jobs(
    jobs: Sequence[Tuple[Source, Sequence[EnduranceConfig]]],
    *,
    preset: str,
    verify: "bool | int",
    parallel: int,
    arch: Architecture,
    optimizer: Optimizer,
    session,
    policy: RetryPolicy = DEFAULT_POLICY,
) -> Tuple[List[BenchmarkEvaluation], List[List[Dict]]]:
    """Evaluate *jobs* in supervised worker processes and adopt the
    results into *session*'s cache.

    The one process dispatch of ``Session.run_matrix(parallel=N)`` and
    of ``repro serve``'s isolated mode.  Each job is a source plus the
    configurations to compile it under; workers rebuild a session from
    *session*'s spec pinned to *arch* and *optimizer* (a serve job's
    machine and optimizer beat the session's own), run
    under :func:`_supervised_pool_map` with *session*'s ``job`` budget as
    their deadline, certify *verify* patterns (see
    :func:`verify_width`), and their graphs, results, and cache counters
    are merged into the session's cache.
    Returns each job's evaluation and its parent-side recovery events
    (crashes, respawns, retries), in *jobs* order.
    """
    cache = session.cache
    certified = verify_width(verify)
    spec = replace(session.spec(), arch=arch.name, opt=optimizer.spec.label())
    work = [
        (source, preset, list(configs), certified, spec)
        for source, configs in jobs
    ]
    with _importable_in_workers():
        payloads, recoveries = _supervised_pool_map(
            work, parallel, policy=policy,
            job_timeout=session.timeouts.limit("job"),
        )
    for (source, configs), payload, recovery in zip(
        jobs, payloads, recoveries
    ):
        mig, evaluation, counters = payload
        identity = tuple(source.identity(preset))
        cache.adopt(
            identity, source.name, mig, configs, evaluation,
            verified_patterns=certified, arch=arch, optimizer=optimizer,
        )
        cache.absorb_worker_counters(counters)
        # Worker-side events are already in the manifests the worker
        # wrote; crashes/respawns/retries are only observable in the
        # parent and are appended here.
        cache.annotate_manifests(
            identity, configs, recovery, arch=arch, optimizer=optimizer
        )
    return [payload[1] for payload in payloads], recoveries
