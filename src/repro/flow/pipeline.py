"""The :class:`Flow`: a declarative, cached, observable pass pipeline.

The paper's evaluation is one pipeline — build benchmark → MIG rewriting
(Algorithm 2) → node selection (Algorithm 3) → allocation → RM3
compilation → co-simulation verify → write-traffic statistics.  A
:class:`Flow` declares that pipeline stage by stage::

    from repro.flow import Flow, Session

    session = Session(cache_dir=".repro_cache")
    result = (
        Flow(session)
        .source("adder")            # registry name, netlist path or Mig
        .compile("ea-full")         # preset name or EnduranceConfig
        .verify()                   # co-simulate program vs MIG
        .run()
    )
    result.stats.stdev, result.program.num_instructions

or, for the common case of one endurance configuration end to end::

    result = Flow.for_config("ea-full", session=session).source("adder").run()

:meth:`Flow.run` is one call of :func:`~repro.analysis.runner.run_stages`,
the stage sequence every table cell runs too.  Every stage produces a
typed :class:`StageArtifact` (value, cached flag, wall-clock seconds),
cached through the session's :class:`~repro.analysis.runner.ExperimentCache`
(and its disk cache, so a second run hits every stage) under the
session's budget for that stage.  ``on_stage_start`` / ``on_stage_end``
hooks (per flow and per session) feed progress reporting and
``BENCH_suite.json``.
"""

from __future__ import annotations

from dataclasses import replace as _dc_replace
from typing import Callable, List, Optional, Tuple, Union

from ..arch import Architecture
from ..core.manager import EnduranceConfig, PRESETS
from ..opt import DEFAULT_EFFORT, OptimizerSpec
from ..mig.kernel import degradation_scope
from ..source import Source, SourceLike, resolve_source
from ..analysis.runner import (
    VERIFY_PATTERNS,
    FlowResult,
    StageEvent,
    resolve_config,
    resolve_target,
    run_stages,
)
from .session import Session


class Flow:
    """Builder for one source → rewrite → compile → verify pipeline.

    Stage declarations (:meth:`source`, :meth:`rewrite`,
    :meth:`compile`, :meth:`verify`) mutate the builder and return it,
    so declarations chain; :meth:`run` executes the pipeline through the
    session cache and returns a :class:`FlowResult`.  A flow can be run
    repeatedly — reruns are pure cache hits.
    """

    def __init__(self, session: Optional[Session] = None) -> None:
        self.session = session if session is not None else Session()
        self._source: Optional[Source] = None
        self._source_preset: Optional[str] = None
        self._config: Optional[EnduranceConfig] = None
        self._rewrite: Optional[Tuple[str, int]] = None
        self._verify: "bool | int" = False
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
        verify: "bool | int" = False,
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
        return flow.verify(verify)

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

    def rewrite(self, script: str, *, effort: int = DEFAULT_EFFORT) -> "Flow":
        """Override the rewriting stage (defaults to the config's script)."""
        self._rewrite = (script, effort)
        return self

    def compile(self, config: Union[str, EnduranceConfig]) -> "Flow":
        """Set the endurance configuration (preset name or explicit)."""
        self._config = resolve_config(config)
        return self

    def verify(self, patterns: "bool | int" = VERIFY_PATTERNS) -> "Flow":
        """Append a co-simulation verify stage (program vs MIG) on
        *patterns* patterns; ``True`` means :data:`VERIFY_PATTERNS`,
        ``False`` or ``0`` drops the stage."""
        self._verify = patterns
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
                ".source(mig) before running (or set "
                "Session(source=...)/$REPRO_SOURCE)"
            )
        machine, optimizer = resolve_target(
            self._arch, self._opt, self.session
        )
        # One degradation scope per run, tagged with its job: a numpy
        # failure demotes the rest of the run and lands in its manifest.
        with degradation_scope(source.name):
            return run_stages(
                self.session, source, self._effective_config(),
                preset=self._source_preset or self.session.preset,
                arch=machine, optimizer=optimizer,
                verify=self._verify,
                hooks=(self._start_hooks, self._end_hooks),
            )
