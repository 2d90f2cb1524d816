"""The :class:`Session`: one object owning every cross-cutting concern.

A run is provisioned by a handful of knobs: the target PLiM machine
model (:mod:`repro.arch`), the rewriting optimizer (:mod:`repro.opt`),
the default circuit source (:mod:`repro.source`), per-stage wall-clock
budgets, the persistent cache directory and the shared cache server
(:mod:`repro.cachesvc`) — plus the worker-process count and the
benchmark width preset.  A
:class:`Session` resolves them once and everything downstream —
:class:`repro.flow.Flow` pipelines, matrix evaluations, report
generation — routes through it.

The knobs are declared once, in :data:`repro.flow.options.KNOBS`: flag,
environment variable, validation and help text per row.

Construction
------------
* ``Session(cache_dir=..., arch=..., ...)`` — explicit
  values are validated now; ``None`` means "no override": the ambient
  ``$REPRO_*`` selection applies at use time (serial, default widths).
* :meth:`Session.from_args` — from an ``argparse`` namespace: every
  knob resolves **flag > environment > none** and is validated at
  construction, so a bad ``$REPRO_ARCH`` fails at startup.
  :meth:`Session.add_arguments` installs the matching flags.
* :meth:`Session.from_env` — the same resolution with no flags.

Sessions are picklable *by spec*: :meth:`Session.spec` captures the
resolved knobs in a :class:`SessionSpec`, and worker processes rebuild
an equivalent session with :meth:`Session.from_spec` — this is how
``run_matrix`` ships the knob selections across the process boundary.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from itertools import product
from types import SimpleNamespace
from typing import Dict, Iterable, List, Optional, Sequence

from ..arch import Architecture, resolve_architecture
from ..opt import DEFAULT_EFFORT, Optimizer, OptimizerSpec, resolve_optimizer
from ..resilience import Timeouts, resolve_timeouts
from ..resilience import faults as res_faults
from ..source import Source, SourceLike, resolve_source, source_from_env
from ..analysis import report
from ..analysis.diskcache import DiskCache
from ..analysis.runner import (
    BenchmarkEvaluation,
    ConfigLike,
    ExperimentCache,
    GridPoint,
    StageEvent,
    TABLE1_PRESETS,
    check_columns,
    dispatch_jobs,
    resolve_config,
    resolve_configs,
    resolve_target,
    run_job,
    verify_width,
)
from ..synth.registry import BENCHMARK_ORDER
from .options import SESSION_KNOBS

#: Benchmark width presets understood by the synthesis registry.
PRESET_CHOICES: List[str] = ["tiny", "default", "paper"]


@dataclass(frozen=True)
class SessionSpec:
    """Picklable capture of a session's resolved knobs.

    Worker processes cannot inherit live caches, so
    :func:`repro.analysis.runner.dispatch_jobs` ships this spec instead
    and each worker rebuilds an equivalent :class:`Session` from it.  One
    field per session knob of :data:`~repro.flow.options.KNOBS`, holding
    its canonical string; ``None`` defers to the worker's ambient
    ``$REPRO_*`` selection, which matches the parent's.  ``parallel`` is
    deliberately absent — a worker never fans out again.  Custom
    architectures must be registered in the worker too (e.g. at module
    import), and non-string sources (bare graphs, frontend functions)
    ship as ``None``.
    """

    cache_dir: Optional[str] = None
    cache_url: Optional[str] = None
    preset: str = "default"
    arch: Optional[str] = None
    opt: Optional[str] = None
    source: Optional[str] = None
    timeouts: Optional[str] = None


class Session:
    """Owns the knobs, experiment cache, parallelism, and width preset.

    One walk evaluates through it: each source is one job
    (:func:`~repro.analysis.runner.run_job`) whose cells are its
    machine x optimizer x configuration product.  :meth:`grid`, the
    design-space sweep behind the figures, ``bench`` and every sweep,
    returns the walk's points; :meth:`run_matrix` (the tables, and
    ``evaluate_suite``/``full_report`` on top of it) groups them into
    one row per source.  The
    session's :attr:`cache` is a single
    :class:`~repro.analysis.runner.ExperimentCache` shared by every flow,
    grid and matrix evaluation routed through it, disk-backed when a
    cache directory is configured.  Observers registered with
    :meth:`add_observer` receive the :class:`~repro.flow.StageEvent`
    stream of every flow run and table cell in this session (plus
    matrix-level events),
    which is how progress reporting and ``BENCH_suite.json`` timings are
    fed.
    """

    def __init__(
        self,
        *,
        cache_dir: "str | os.PathLike[str] | None" = None,
        cache_url: Optional[str] = None,
        parallel: Optional[int] = None,
        preset: str = "default",
        cache: Optional[ExperimentCache] = None,
        arch: "str | Architecture | None" = None,
        opt: "str | OptimizerSpec | None" = None,
        source: SourceLike = None,
        timeouts: "str | float | Timeouts | None" = None,
    ) -> None:
        self.parallel = parallel
        self.preset = preset
        # Per-stage wall-clock budgets: explicit > $REPRO_TIMEOUT > none
        # (fails fast on a malformed spec, like the other knobs).
        self.timeouts = resolve_timeouts(timeouts)
        # Default circuit source: resolve an explicit one now (fail fast
        # on unknown names / missing files); None defers to ambient
        # $REPRO_SOURCE at use time.  Flows that declare their own
        # source ignore this knob.
        self._source = resolve_source(source) if source is not None else None
        # The spec-shippable string form: only string selections (names,
        # paths) can be resolved again in a worker process.  Registry
        # sources round-trip by name either way.
        if isinstance(source, str):
            source_spec: Optional[str] = source
        elif self._source is not None and self._source.kind == "registry":
            source_spec = self._source.name
        else:
            source_spec = None
        self.source = (
            self._source.name if self._source is not None else None
        )
        # Resolve an explicit architecture now (fail fast on unknown
        # names); None defers to ambient $REPRO_ARCH/default at use time.
        self._architecture = (
            resolve_architecture(arch) if arch is not None else None
        )
        self.arch = (
            self._architecture.name if self._architecture is not None else None
        )
        # Same contract for the rewriting optimizer ($REPRO_OPT).
        self._optimizer = (
            OptimizerSpec.parse(opt) if opt is not None else None
        )
        self.opt = (
            self._optimizer.label() if self._optimizer is not None else None
        )
        self.cache_dir = str(cache_dir) if cache_dir else None
        self.cache_url = str(cache_url) if cache_url else None
        if cache is not None:
            # Adopt an existing cache (legacy callers, shared harnesses);
            # its disk root — possibly none — wins over the cache_dir
            # argument, so the session never claims persistence the
            # adopted cache doesn't have.
            self.cache = cache
            disk = cache.disk
            root = disk.root if disk is not None else None
            self.cache_dir = str(root) if root is not None else None
            self.cache_url = disk.url if disk is not None else None
        elif self.cache_url is not None:
            # Shared cache server: the RemoteCache slots in where the
            # DiskCache went, falling back to direct disk access at
            # cache_dir (if any) when the server is unreachable.
            from ..cachesvc.client import RemoteCache  # deferred: heavy

            remote = RemoteCache(self.cache_url, root=self.cache_dir)
            self.cache = ExperimentCache(disk=remote)
        else:
            disk = DiskCache(self.cache_dir) if self.cache_dir else None
            self.cache = ExperimentCache(disk=disk)
        # The canonical string of every session knob (the KNOBS rows):
        # what spec() ships to worker processes.
        self._spec = dict(
            arch=self.arch,
            source=source_spec,
            opt=self.opt,
            # "0": an explicit unlimited beats a worker's $REPRO_TIMEOUT
            timeouts=self.timeouts.spec() or (None if timeouts is None else "0"),
            cache_dir=self.cache_dir,
            cache_url=self.cache_url,
        )
        self._observers: list = []

    # -- construction ------------------------------------------------

    @classmethod
    def from_env(
        cls,
        *,
        preset: Optional[str] = None,
        parallel: Optional[int] = None,
    ) -> "Session":
        """Session configured from the environment: every session knob
        of :data:`~repro.flow.options.KNOBS` resolves ``$VAR`` > none."""
        return cls.from_args(SimpleNamespace(parallel=parallel), preset=preset)

    @classmethod
    def from_args(cls, args, *, preset: Optional[str] = None) -> "Session":
        """Session from an ``argparse`` namespace (see :meth:`add_arguments`).

        Every knob resolves flag > environment > none and is validated
        now, so a bad ``$REPRO_ARCH`` fails at startup rather than in
        the first job.  Missing attributes count as absent flags;
        parallelism defaults to serial, the preset to ``default``.
        """
        return cls(
            parallel=getattr(args, "parallel", None),
            preset=getattr(args, "preset", None) or preset or "default",
            **{
                knob.name: knob.resolve(getattr(args, knob.dest, None))
                for knob in SESSION_KNOBS
            },
        )

    @staticmethod
    def add_arguments(
        parser,
        *,
        preset: bool = True,
        parallel: bool = True,
        cache: bool = True,
        arch: bool = True,
        opt: bool = True,
        source: bool = False,
        timeout: bool = True,
    ):
        """Install the session options on an ``argparse`` parser.

        One definition shared by every CLI subcommand; the boolean
        switches let scenario commands opt out of options that cannot
        affect them.
        """
        switches = dict(
            cache=cache, arch=arch, opt=opt, source=source, timeout=timeout,
        )
        if preset:
            parser.add_argument(
                "--preset",
                default="default",
                choices=PRESET_CHOICES,
                help="benchmark width preset (paper = the paper's sizes)",
            )
        for knob in SESSION_KNOBS:
            if switches[knob.switch]:
                knob.add_to(parser)
        if parallel:
            parser.add_argument(
                "--parallel",
                type=int,
                default=None,
                metavar="N",
                help="fan benchmarks out over N worker processes",
            )
        return parser

    # -- spec (process boundary) ---------------------------------------

    def spec(self) -> SessionSpec:
        """Picklable spec a worker process rebuilds this session from."""
        return SessionSpec(preset=self.preset, **self._spec)

    @classmethod
    def from_spec(cls, spec: SessionSpec) -> "Session":
        return cls(
            preset=spec.preset,
            **{knob.name: getattr(spec, knob.name) for knob in SESSION_KNOBS},
        )

    # -- architecture --------------------------------------------------

    @property
    def architecture(self) -> Architecture:
        """The target machine model this session resolves to.

        An explicit ``Session(arch=...)`` wins; otherwise the ambient
        selection (``$REPRO_ARCH``, else the default ``endurance``
        machine) applies at access time.
        """
        if self._architecture is not None:
            return self._architecture
        return resolve_architecture(None)

    @property
    def optimizer(self) -> OptimizerSpec:
        """The rewriting optimizer this session resolves to.

        An explicit ``Session(opt=...)`` wins; otherwise the ambient
        selection (``$REPRO_OPT``, else the ``script`` default) applies
        at access time, mirroring :attr:`architecture`.
        """
        if self._optimizer is not None:
            return self._optimizer
        return resolve_optimizer(None)

    @property
    def default_source(self) -> Optional[Source]:
        """The default circuit source this session resolves to, if any.

        An explicit ``Session(source=...)`` wins; otherwise the ambient
        ``$REPRO_SOURCE`` selection applies at access time, mirroring
        :attr:`architecture`.  Unlike the other knobs there is no final
        default — ``None`` means flows must declare their own source.
        """
        if self._source is not None:
            return self._source
        env = source_from_env()
        return resolve_source(env) if env is not None else None

    @property
    def disk(self) -> Optional[DiskCache]:
        """The attached persistent cache, if any."""
        return self.cache.disk

    # -- observers -------------------------------------------------------

    def add_observer(self, observer):
        """Register an observer for this session's stage events.

        An observer is any object with (optional) ``on_stage_start(event)``
        / ``on_stage_end(event)`` methods; events are
        :class:`repro.flow.StageEvent` instances.  Returns *observer* so
        registration can be inlined.
        """
        self._observers.append(observer)
        return observer

    def remove_observer(self, observer) -> None:
        self._observers.remove(observer)

    def emit(self, hook: str, event) -> None:
        """Dispatch *event* to every observer implementing *hook*."""
        for observer in list(self._observers):
            fn = getattr(observer, hook, None)
            if fn is not None:
                fn(event)

    # -- matrix evaluation -------------------------------------------

    def run_matrix(
        self,
        benchmarks: Optional[Iterable[SourceLike]] = None,
        configs: Optional[Sequence[ConfigLike]] = None,
        *,
        caps: Optional[Sequence[int]] = None,
        effort: int = DEFAULT_EFFORT,
        verify: "bool | int" = False,
        parallel: Optional[int] = None,
    ) -> List[BenchmarkEvaluation]:
        """Evaluate a benchmarks x configurations matrix in this session.

        *benchmarks* are registry names, netlist paths, built graphs, or
        anything else :func:`repro.source.resolve_source` takes (default:
        the 18 registry benchmarks, table order); *configs* are preset
        names or :class:`~repro.core.manager.EnduranceConfig` objects
        (default: the five Table I columns), plus one
        ``full_management(cap)`` column per *caps* entry, labelled
        ``wmaxN``.  *verify* is ``True``
        (:data:`~repro.analysis.runner.VERIFY_PATTERNS` patterns), a
        pattern count, or ``False``.  Every column is checked against
        the session's machine before any work
        (:func:`~repro.analysis.runner.check_columns`).

        With *parallel* (default: the session's) ``N > 1``, the pairs
        the cache is missing fan out over ``N`` supervised worker
        processes rebuilt from :meth:`spec`
        (:func:`~repro.analysis.runner.dispatch_jobs`), and their
        results are adopted back.  The rows are then assembled in order
        by the same per-source walk as :meth:`grid` — pure cache hits
        after a fan-out — so the parallel path is identical to the
        serial one.  Emits ``"matrix"`` stage events to the session
        observers around the whole evaluation, and each serially run
        cell's stage events inside them.
        """
        sources = [
            resolve_source(item)
            for item in (
                benchmarks if benchmarks is not None else BENCHMARK_ORDER
            )
        ]
        columns = resolve_configs(configs, caps, effort)
        target = resolve_target(session=self)
        check_columns(target[0], columns)
        event = StageEvent(
            stage="matrix",
            flow=f"matrix[{len(sources) if benchmarks is not None else 'all'}x"
            f"{len(configs) if configs is not None else len(TABLE1_PRESETS)}]",
        )
        self.emit("on_stage_start", event)
        start = time.perf_counter()
        # Touch the fault plan before any pool exists: an active
        # $REPRO_FAULTS spec exports its fire ledger into the environment
        # here, so workers spawned below share this process's fault
        # budget (a retried job must not re-fire a spent count=1 crash).
        res_faults.active_plan()
        parallel = parallel if parallel is not None else self.parallel
        if parallel is not None and parallel > 1 and len(sources) > 1:
            self._dispatch_missing(sources, columns, target, verify, parallel)
        evaluations = []
        for source in sources:
            points = run_job(
                self, source, [target], columns, verify=verify,
                keep_rewritten=False,
            )
            mig = self.cache.source_mig(source, self.preset)
            evaluations.append(BenchmarkEvaluation.from_points(mig, points))
        self.emit(
            "on_stage_end",
            event.finished(seconds=time.perf_counter() - start, cached=False),
        )
        return evaluations

    def _dispatch_missing(self, sources, columns, target, verify, parallel):
        """Fan the (source, configuration) pairs this session's cache is
        missing out over *parallel* worker processes; an entry without a
        wide-enough verification certificate counts as missing."""
        machine, optimizer = target
        patterns = verify_width(verify)
        work = []
        for source in sources:
            mig = self.cache.cached_source_mig(source, self.preset)
            missing = [
                cfg for cfg in columns
                if mig is None or not self.cache.has(
                    mig, cfg, verified_patterns=patterns, arch=machine,
                    optimizer=optimizer,
                )
            ]
            if missing:
                work.append((source, missing))
        if work:
            dispatch_jobs(
                work, preset=self.preset, verify=patterns, parallel=parallel,
                arch=machine, optimizer=optimizer, session=self,
                job_timeout=self.timeouts.limit("job"),
            )

    def evaluate_suite(
        self,
        names: Optional[Iterable[SourceLike]] = None,
        *,
        configs: Optional[Sequence[ConfigLike]] = None,
        caps: Optional[Sequence[int]] = None,
        effort: int = DEFAULT_EFFORT,
        verify: "bool | int" = True,
        parallel: Optional[int] = None,
    ) -> List[BenchmarkEvaluation]:
        """The paper's suite evaluation (default: all 18 benchmarks,
        Table I configuration columns, verified)."""
        return self.run_matrix(
            names,
            configs if configs is not None else list(TABLE1_PRESETS),
            caps=caps,
            effort=effort,
            verify=verify,
            parallel=parallel,
        )

    def grid(
        self,
        sources: Sequence[SourceLike],
        configs: Sequence[ConfigLike],
        *,
        archs: "Sequence[str | Architecture] | None" = None,
        opts: "Sequence[str | OptimizerSpec] | None" = None,
        verify: "bool | int" = False,
    ) -> List[GridPoint]:
        """Every (source, machine, optimizer, configuration) cell of a
        design-space sweep, in that nesting order, run serially.

        Each source is one job of the per-source walk every table row
        runs too (:func:`~repro.analysis.runner.run_job`): the session's
        ``job`` budget and retries apply, and each cell is one
        :func:`~repro.analysis.runner.run_stages` call.  *archs* and
        *opts* default to the session's machine and optimizer, and
        *verify* is as for :meth:`run_matrix`.  Every axis resolves
        before the first cell runs.  A machine that refuses a
        configuration (:meth:`~repro.arch.Architecture.supports_config`)
        yields a gap point carrying the refusal reason; it runs no stage.
        """
        sources = [resolve_source(source) for source in sources]
        machines = (
            [resolve_architecture(arch) for arch in archs]
            if archs is not None else [self.architecture]
        )
        specs = (
            [resolve_optimizer(opt) for opt in opts]
            if opts is not None else [self.optimizer]
        )
        configs = [resolve_config(config) for config in configs]
        targets = [
            (machine, Optimizer(spec, machine))
            for machine, spec in product(machines, specs)
        ]
        return [
            point
            for source in sources
            for point in run_job(
                self, source, targets, configs, verify=verify
            )
        ]

    def full_report(
        self,
        names: Optional[Iterable[str]] = None,
        *,
        caps: Optional[Sequence[int]] = None,
        effort: int = DEFAULT_EFFORT,
        verify: "bool | int" = True,
    ) -> Dict[str, str]:
        """Every table + the headline, rendered from one matrix pass.

        Each (benchmark, configuration) pair compiles exactly once: the
        Table I columns and the Table III caps (default: all four) share
        one :meth:`run_matrix`.  The rendered artefacts are keyed by
        table name.
        """
        caps = list(caps if caps is not None else report.TABLE3_CAPS)
        evaluations = self.run_matrix(
            names, report.TABLE1_CONFIGS, caps=caps, effort=effort,
            verify=verify,
        )
        return {
            "table1": report.render_table1(evaluations),
            "table2": report.render_table2(evaluations),
            "table3": report.render_table3(evaluations, caps=caps),
            "headline": report.render_headline(evaluations),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        knobs = "".join(f", {name}={value!r}" for name, value in self._spec.items())
        return (
            f"Session(parallel={self.parallel!r}, preset={self.preset!r}{knobs})"
        )

