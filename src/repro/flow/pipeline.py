"""The :class:`Flow`: a declarative, cached, observable pass pipeline.

The paper's evaluation is one pipeline — build benchmark → MIG rewriting
(Algorithm 2) → node selection (Algorithm 3) → allocation → RM3
compilation → co-simulation verify → write-traffic statistics.  A
:class:`Flow` declares that pipeline stage by stage::

    from repro.flow import Flow, Session

    session = Session(cache_dir=".repro_cache")
    result = (
        Flow(session)
        .source("adder")            # registry benchmark (or .source_mig(mig))
        .compile("ea-full")         # preset name or EnduranceConfig
        .verify(patterns=64)        # co-simulate program vs MIG
        .run()
    )
    result.stats.stdev, result.program.num_instructions

or, for the common case of one endurance configuration end to end::

    result = Flow.for_config("ea-full", session=session).source("adder").run()

Every stage produces a typed :class:`StageArtifact` (value, cached flag,
wall-clock seconds), cached through the session's
:class:`~repro.analysis.runner.ExperimentCache` — and hence through the
content-addressed disk cache when the session is persistent, so a second
run hits every stage.  ``on_stage_start`` / ``on_stage_end`` hooks (per
flow and per session) observe the run for progress reporting and the
benchmark harness's ``BENCH_suite.json`` timings.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace as _dc_replace
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..arch import Architecture, DEFAULT_ARCHITECTURE
from ..core.manager import CompilationResult, EnduranceConfig, PRESETS
from ..core.stats import WriteTrafficStats
from ..opt import DEFAULT_EFFORT, OptimizerSpec
from ..mig.graph import Mig
from ..plim.isa import Program
from ..resilience import time_limit
from ..source import MigSource, Source, SourceLike, resolve_source
from ..analysis.runner import mig_key, resolve_target
from .session import Session

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
        return _dc_replace(self, seconds=seconds, cached=cached)


@dataclass(frozen=True)
class StageArtifact:
    """What one stage produced: the value, provenance, and timing."""

    stage: str
    value: object
    #: Whether the artefact was served from the session cache (memory or,
    #: for registry benchmarks, the attached disk cache) without being
    #: recomputed.
    cached: bool
    seconds: float


@dataclass
class FlowResult:
    """Typed per-stage artefacts of one flow run."""

    mig: Mig
    rewritten: Mig
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


def _resolve_config(config: Union[str, EnduranceConfig]) -> EnduranceConfig:
    if isinstance(config, str):
        try:
            return PRESETS[config]
        except KeyError:
            raise ValueError(
                f"unknown configuration preset {config!r}; "
                f"choose one of: {', '.join(PRESETS)}"
            ) from None
    return config


class Flow:
    """Builder for one source → rewrite → compile → verify pipeline.

    Stage declarations (:meth:`source` / :meth:`source_mig`,
    :meth:`rewrite`, :meth:`compile`, :meth:`verify`) mutate the builder
    and return it, so declarations chain; :meth:`run` executes the
    pipeline through the session cache and returns a
    :class:`FlowResult`.  A flow can be run repeatedly — reruns are pure
    cache hits.
    """

    def __init__(self, session: Optional[Session] = None) -> None:
        self.session = session if session is not None else Session()
        self._source: Optional[Source] = None
        self._source_preset: Optional[str] = None
        self._config: Optional[EnduranceConfig] = None
        self._rewrite: Optional[Tuple[str, int]] = None
        self._verify_patterns: Optional[int] = None
        self._arch: "str | Architecture | None" = None
        self._opt: "str | OptimizerSpec | None" = None
        self._start_hooks: List[Callable[[StageEvent], None]] = []
        self._end_hooks: List[Callable[[StageEvent], None]] = []

    # -- declaration ---------------------------------------------------

    @classmethod
    def for_config(
        cls,
        config: Union[str, EnduranceConfig],
        *,
        session: Optional[Session] = None,
    ) -> "Flow":
        """A flow whose rewrite/compile stages follow *config*."""
        return cls(session).compile(config)

    @classmethod
    def for_job(
        cls,
        source: SourceLike,
        config: Union[str, EnduranceConfig],
        *,
        preset: Optional[str] = None,
        arch: "str | Architecture | None" = None,
        opt: "str | OptimizerSpec | None" = None,
        verify: Optional[int] = None,
        session: Optional[Session] = None,
    ) -> "Flow":
        """The job-shaped entry: one call declaring a whole pipeline.

        Everything a self-contained compilation job specifies — source,
        configuration, machine model, optimizer, verification width —
        in one declaration, so job-oriented callers (the
        :mod:`repro.serve` queue, scripts replaying a service job
        serially) build identical flows from identical parameters::

            result = Flow.for_job(
                "adder", "ea-full", arch="blocked", verify=64,
                session=session,
            ).run()
        """
        flow = cls(session).source(source, preset).compile(config)
        if arch is not None:
            flow.arch(arch)
        if opt is not None:
            flow.optimize(opt)
        if verify is not None:
            flow.verify(verify)
        return flow

    def source(
        self, source: SourceLike, preset: Optional[str] = None
    ) -> "Flow":
        """Declare where the circuit under evaluation comes from.

        *source* is anything :func:`repro.source.resolve_source`
        accepts: a registry benchmark name (today's path, built through
        the session cache exactly as before), a netlist path
        (``.mig``/``.blif``/``.aag``), an explicit
        :class:`~repro.source.Source`, a built
        :class:`~repro.mig.graph.Mig`, or a
        :func:`~repro.synth.frontend.mig_function` decorated function.
        External circuits persist — and fan out — under their stable
        content fingerprints, so they hit both cache tiers like
        registry benchmarks do.  *preset* only affects registry
        sources (defaults to the session's).
        """
        self._source = resolve_source(source)
        self._source_preset = preset
        return self

    def source_mig(self, mig: Mig) -> "Flow":
        """Take an explicit, already-built MIG.

        Equivalent to ``source(mig)``: the graph is keyed by its
        content fingerprint, so downstream artefacts persist in the
        disk cache and repeat runs hit every stage.
        """
        return self.source(MigSource(mig))

    def rewrite(self, script: str, *, effort: int = DEFAULT_EFFORT) -> "Flow":
        """Override the rewriting stage (defaults to the config's script)."""
        self._rewrite = (script, effort)
        return self

    def compile(self, config: Union[str, EnduranceConfig]) -> "Flow":
        """Set the endurance configuration (preset name or explicit)."""
        self._config = _resolve_config(config)
        return self

    def verify(self, patterns: int = 64) -> "Flow":
        """Append a co-simulation verify stage (program vs MIG)."""
        self._verify_patterns = patterns
        return self

    def arch(self, arch: "str | Architecture") -> "Flow":
        """Target a specific machine model (overrides the session's).

        *arch* is a registry name or an explicit
        :class:`repro.arch.Architecture`; unset, the session's
        architecture (``--arch`` / ``$REPRO_ARCH`` / default) applies.
        Per-flow overrides are how architecture sweeps share one
        session cache — artefacts are keyed by machine.
        """
        self._arch = arch
        return self

    def optimize(self, opt: "str | OptimizerSpec") -> "Flow":
        """Run the rewrite stage through a specific optimizer.

        *opt* is an :class:`repro.opt.OptimizerSpec` or its compact
        string form (``"greedy:node_count"``); unset, the session's
        optimizer (``--opt`` / ``$REPRO_OPT`` / the ``script`` default)
        applies.  Per-flow overrides are how optimizer sweeps share one
        session cache — artefacts are keyed by optimizer.
        """
        self._opt = opt
        return self

    def on_stage_start(self, hook: Callable[[StageEvent], None]) -> "Flow":
        self._start_hooks.append(hook)
        return self

    def on_stage_end(self, hook: Callable[[StageEvent], None]) -> "Flow":
        self._end_hooks.append(hook)
        return self

    # -- execution -----------------------------------------------------

    def _effective_config(self) -> EnduranceConfig:
        config = self._config if self._config is not None else PRESETS["naive"]
        if self._rewrite is not None:
            script, effort = self._rewrite
            config = _dc_replace(config, rewriting=script, effort=effort)
        return config

    def _emit_start(self, event: StageEvent) -> None:
        for hook in self._start_hooks:
            hook(event)
        self.session.emit("on_stage_start", event)

    def _emit_end(self, event: StageEvent) -> None:
        for hook in self._end_hooks:
            hook(event)
        self.session.emit("on_stage_end", event)

    def run(self) -> FlowResult:
        """Execute the declared pipeline and return its artefacts."""
        source = (
            self._source
            if self._source is not None
            else self.session.default_source
        )
        if source is None:
            raise ValueError(
                "flow has no source; declare .source(benchmark) or "
                ".source_mig(mig) before running (or set "
                "Session(source=...)/$REPRO_SOURCE)"
            )
        preset = self._source_preset or self.session.preset
        config = self._effective_config()
        cache = self.session.cache
        machine, optimizer = resolve_target(
            self._arch, self._opt, self.session
        )
        opt_spec = optimizer.spec
        label = f"{source.label(preset)}/{config.name}"
        if machine.name != DEFAULT_ARCHITECTURE:
            label += f"#{machine.name}"
        if opt_spec.strategy != "script":
            label += f"!{opt_spec.label()}"
        stages: Dict[str, StageArtifact] = {}

        timeouts = self.session.timeouts

        def stage(name: str, benchmark: Optional[str], work, cached_probe):
            event = StageEvent(
                stage=name, flow=label, benchmark=benchmark, config=config.name
            )
            self._emit_start(event)
            start = time.perf_counter()
            cached = bool(cached_probe())
            # Enforce the session's per-stage wall-clock budget
            # (Session(timeouts=...) / --timeout / $REPRO_TIMEOUT); a
            # blown budget raises StageTimeoutError instead of wedging
            # the flow.
            with time_limit(
                timeouts.limit(name), stage=name, job=benchmark or ""
            ):
                value = work()
            seconds = time.perf_counter() - start
            stages[name] = StageArtifact(
                stage=name, value=value, cached=cached, seconds=seconds
            )
            self._emit_end(event.finished(seconds=seconds, cached=cached))
            return value

        with self.session.activated():
            # source: build (or fetch) the graph under evaluation —
            # registry benchmarks through their classic (name, preset)
            # keys, external sources under their content fingerprints
            mig = stage(
                "source",
                source.name,
                lambda: cache.source_mig(source, preset),
                lambda: cache.cached_source_mig(source, preset) is not None,
            )
            bench_name = mig.name
            graph_id = mig_key(mig)

            # rewrite: shared by every config running the same script
            # through the same optimizer
            rewritten = stage(
                "rewrite",
                bench_name,
                lambda: cache.rewritten(
                    mig, config.rewriting, config.effort, key=graph_id,
                    optimizer=optimizer,
                ),
                lambda: cache.has_rewritten(
                    graph_id, config.rewriting, config.effort,
                    optimizer=optimizer,
                ),
            )

            # compile: selection + allocation + RM3 emission + stats,
            # targeting the resolved machine model
            compilation = stage(
                "compile",
                bench_name,
                lambda: cache.compile(
                    mig, config, key=graph_id, arch=machine,
                    optimizer=optimizer,
                ),
                lambda: cache.has(
                    graph_id, config, arch=machine, optimizer=optimizer
                ),
            )

            # verify: co-simulate program vs MIG (certificate-cached)
            verified = 0
            if self._verify_patterns is not None:
                patterns = self._verify_patterns
                stage(
                    "verify",
                    bench_name,
                    lambda: cache.verify(
                        mig, config, key=graph_id, patterns=patterns,
                        arch=machine, optimizer=optimizer,
                    ),
                    lambda: cache.has(
                        graph_id, config, verified_patterns=patterns,
                        arch=machine, optimizer=optimizer,
                    ),
                )
                verified = patterns

        return FlowResult(
            mig=mig,
            rewritten=rewritten,
            compilation=compilation,
            verified_patterns=verified,
            stages=stages,
            architecture=machine,
            optimizer=opt_spec,
        )
