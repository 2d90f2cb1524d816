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
  :meth:`repro.flow.Flow.run` and every table cell run.
* :func:`run_matrix` evaluates a sources x configurations matrix.  Every
  matrix entry — a registry name, a netlist path, a graph — resolves to
  a :class:`~repro.source.Source` and travels as one through the cache,
  the worker processes, and the disk keys (registry benchmarks keep
  their classic ``(name, preset)`` identity).  Entries run serially
  through one session, or :func:`dispatch_jobs` fans the ones its cache is
  missing out over supervised worker processes and adopts the results
  back; the matrix is then assembled in order from the warm cache, so
  the parallel path is bit-for-bit identical to the serial one.
  ``repro serve``'s isolated mode dispatches through the same function.
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
``run_matrix``, ``evaluate_suite`` and ``full_report`` drive this runner
with the session's cache, preset, machine, optimizer and budgets (an
existing cache enters as ``Session(cache=...)``).  The table/report
layer (:mod:`repro.analysis.tables`, :mod:`repro.analysis.report`) keeps
the table vocabulary and the renderers.
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
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..arch import DEFAULT_ARCHITECTURE, Architecture, resolve_architecture
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
from ..source import RegistrySource, Source, SourceLike, resolve_source
from ..synth.registry import BENCHMARK_ORDER, build_benchmark
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


def evaluate_mig_cached(
    source: Source,
    configs: Sequence[EnduranceConfig],
    *,
    session,
    preset: Optional[str] = None,
    verify: "bool | int" = False,
    arch: ArchLike = None,
    opt: "OptLike | Optimizer" = None,
) -> BenchmarkEvaluation:
    """One table row: *source* (built at *preset*, default the
    session's) under every configuration, one
    :func:`run_stages` cell each, in *session*, verified as *verify*
    asks.  *arch* and *opt* resolve explicit > session's > ambient.
    """
    preset = preset or session.preset
    machine, optimizer = resolve_target(arch, opt, session)
    mig = None
    results: Dict[str, CompilationResult] = {}
    labels: Dict[str, Tuple] = {}
    # One degradation scope per job: a numpy-kernel failure demotes the
    # rest of *this* benchmark's compilations to the (bit-identical)
    # bigint engine and is recorded in its manifests; the next
    # benchmark tries the numpy engine again.
    with degradation_scope(source.name):
        for cfg in configs:
            label = result_label(cfg)
            semantic = config_key(cfg)
            if labels.setdefault(label, semantic) != semantic:
                # A silent last-wins overwrite here would also poison the
                # shared cache through adopt(), which maps labels back to
                # configurations — refuse loudly instead.
                raise ValueError(
                    f"distinct configurations share the result label "
                    f"{label!r}; rename one of them"
                )
            cell = run_stages(
                session, source, cfg, preset=preset, arch=machine,
                optimizer=optimizer, verify=verify, keep_rewritten=False,
            )
            mig, results[label] = cell.mig, cell.compilation
    if mig is None:  # no configuration built the graph
        mig = session.cache.source_mig(source, preset)
    return BenchmarkEvaluation(
        name=mig.name,
        num_pis=mig.num_pis,
        num_pos=mig.num_pos,
        gates=mig.num_live_gates(),
        results=results,
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
    """Worker-process entry: evaluate one benchmark in a local session.

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
    the process before any work.
    """
    source, preset, configs, verify, spec = args
    from ..flow.session import Session  # deferred: flow imports runner

    job = source.name
    session = Session.from_spec(spec)
    with time_limit(session.timeouts.limit("job"), stage="job", job=job):
        res_faults.worker_entry(job)
        evaluation = evaluate_mig_cached(
            source, configs, session=session, preset=preset, verify=verify
        )
    mig = session.cache.source_mig(source, preset)
    return mig, evaluation, session.cache.counters()


def _supervised_pool_map(
    work: List[Tuple],
    parallel: int,
    *,
    policy: RetryPolicy = DEFAULT_POLICY,
    job_timeout: Optional[float] = None,
) -> Tuple[List[Tuple], List[List[Dict]]]:
    """Run :func:`_run_benchmark_job` over *work*, supervised.

    The supervisor half of ``run_matrix(parallel=N)``'s fault tolerance:

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
        """Terminate every worker and drop the pool (broken or not)."""
        nonlocal pool
        if pool is not None:
            for process in list(getattr(pool, "_processes", {}).values()):
                try:
                    process.terminate()
                except Exception:
                    pass
            pool.shutdown(wait=False, cancel_futures=True)
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
    job_timeout: Optional[float] = None,
) -> Tuple[List[BenchmarkEvaluation], List[List[Dict]]]:
    """Evaluate *jobs* in supervised worker processes and adopt the
    results into *session*'s cache.

    The one process dispatch of ``run_matrix(parallel=N)`` and of
    ``repro serve``'s isolated mode.  Each job is a source plus the
    configurations to compile it under; workers rebuild a session from
    *session*'s spec pinned to *arch* and *optimizer* (an explicit
    ``run_matrix(arch=...)``/``opt=...`` beats the session's own), run
    under :func:`_supervised_pool_map`, certify *verify* patterns (see
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
            work, parallel, policy=policy, job_timeout=job_timeout
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


def run_matrix(
    benchmarks: "Optional[Iterable[SourceLike]]" = None,
    configs: Optional[Sequence[ConfigLike]] = None,
    *,
    preset: Optional[str] = None,
    caps: Optional[Sequence[int]] = None,
    effort: int = DEFAULT_EFFORT,
    verify: "bool | int" = False,
    parallel: Optional[int] = None,
    session=None,
    arch: ArchLike = None,
    opt: OptLike = None,
    retry: Optional[RetryPolicy] = None,
) -> List[BenchmarkEvaluation]:
    """Evaluate a benchmarks x configurations matrix.

    Parameters
    ----------
    benchmarks:
        Circuit sources (default: all 18 registry benchmarks, table
        order).  Each entry is anything
        :func:`repro.source.resolve_source` accepts — a registry name,
        a netlist path, a :class:`~repro.source.Source`, a built
        :class:`~repro.mig.graph.Mig`, or a decorated frontend
        function.  External sources persist and fan out under their
        content fingerprints, exactly like registry benchmarks.
    configs:
        Configuration preset names or explicit :class:`EnduranceConfig`
        objects (default: the five Table I columns).
    preset:
        Width preset registry sources are built at (default: the
        session's).
    caps:
        Additional ``full_management(cap)`` columns, labelled ``wmaxN``.
    verify:
        ``True`` co-simulates every compiled program on
        :data:`VERIFY_PATTERNS` patterns, an int *N* on *N* patterns,
        ``False``/``0`` not at all; a failed check raises.  Each result
        stores the width as its certificate.
    arch:
        Target machine model for every compilation (a registry name or
        :class:`~repro.arch.Architecture`).  An explicit value beats
        the dispatching *session*'s architecture (mirroring
        ``Flow.arch()``); unset, the session's — else the ambient —
        selection applies.  Results and cache entries are keyed by it.
    opt:
        Rewriting optimizer for every compilation (an
        :class:`repro.opt.OptimizerSpec` or spec string such as
        ``"greedy:write_cost"``).  Resolution mirrors *arch*: explicit
        beats the session's, which beats the ambient
        ``$REPRO_OPT``/default selection.  Results and cache entries
        are keyed by it.
    parallel:
        ``None``/``0``/``1`` — run serially in the session.  ``N > 1`` —
        fan benchmarks out over ``N`` worker processes; each worker
        reconstructs a :class:`repro.flow.Session` from the dispatching
        session's spec, and results are assembled in matrix order, so
        the output is identical to the serial run (asserted by the
        runner tests).  The session's cache cooperates with the pool:
        already-compiled (benchmark, config) pairs are served from it,
        only the missing remainder is dispatched, and worker results are
        adopted back into the cache.  When the cache has a disk cache
        attached, workers read through and write back to the same
        on-disk root.
    session:
        The :class:`repro.flow.Session` driving this matrix (its cache,
        preset, budgets, observers, and the spec workers are rebuilt
        from); without one, a fresh ``Session(preset=preset)``.  An
        existing cache enters as ``Session(cache=...)``.  Prefer
        :meth:`repro.flow.Session.run_matrix`, which fills *parallel*
        and *session* in one go.
    retry:
        The :class:`repro.resilience.RetryPolicy` supervising every
        job: transient failures (worker crashes, injected faults,
        I/O errors classified by
        :func:`repro.resilience.classify_transient`) are retried with
        deterministic exponential backoff; permanent failures and
        exhausted budgets propagate.  Defaults to
        :data:`repro.resilience.DEFAULT_POLICY` (three attempts).  The
        session's ``job`` budget is enforced per job, and its stage
        budgets per stage, in both the serial and parallel paths.
    """
    sources = [
        resolve_source(item)
        for item in (benchmarks if benchmarks is not None else BENCHMARK_ORDER)
    ]
    jobs = resolve_configs(configs, caps, effort)
    patterns = verify_width(verify)
    if session is None:
        from ..flow.session import Session  # deferred: flow imports runner

        session = Session(preset=preset or "default")
    preset = preset or session.preset
    cache = session.cache
    machine, optimizer = resolve_target(arch, opt, session)
    policy = retry if retry is not None else DEFAULT_POLICY
    job_timeout = session.timeouts.limit("job")
    # Touch the fault plan before any pool exists: an active
    # $REPRO_FAULTS spec exports its fire ledger into the environment
    # here, so workers spawned below share the parent's fault budget (a
    # retried job must not re-fire a spent count=1 crash).
    res_faults.active_plan()

    if parallel is not None and parallel > 1 and len(sources) > 1:
        # Dispatch only the pairs the cache is missing (an entry without
        # a wide-enough verification certificate counts as missing when
        # this run verifies).
        work = []
        for source in sources:
            mig = cache.cached_source_mig(source, preset)
            missing = (
                jobs
                if mig is None
                else [
                    cfg
                    for cfg in jobs
                    if not cache.has(
                        mig_key(mig), cfg, verified_patterns=patterns,
                        arch=machine, optimizer=optimizer,
                    )
                ]
            )
            if missing:
                work.append((source, missing))
        if work:
            dispatch_jobs(
                work, preset=preset, verify=patterns, parallel=parallel,
                arch=machine, optimizer=optimizer, session=session,
                policy=policy, job_timeout=job_timeout,
            )
        # Fall through: assemble every evaluation from the now-warm cache
        # (pure hits), which also keeps matrix order.

    evaluations = []
    for source in sources:

        def attempt(source=source):
            # Serial jobs run under the same job budget and injection
            # site as pool workers (minus the process-killing faults),
            # so the retry taxonomy behaves identically in both paths.
            with time_limit(job_timeout, stage="job", job=source.name):
                res_faults.serial_entry(source.name)
                return evaluate_mig_cached(
                    source, jobs, session=session, preset=preset,
                    verify=patterns, arch=machine, opt=optimizer,
                )

        evaluations.append(
            call_with_retry(
                attempt,
                policy=policy,
                key=(source.name,),
                job=source.name,
                on_retry=lambda n, error, job=source.name: res_events.record(
                    "retry", job=job, attempt=n, error=repr(error)
                ),
            )
        )
    return evaluations
