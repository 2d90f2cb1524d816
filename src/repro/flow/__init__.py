"""repro.flow — the Session + pass-pipeline API everything routes through.

This package is the stable seam between *what* the reproduction computes
(:mod:`repro.core`, :mod:`repro.plim`, :mod:`repro.mig`) and *how* a run
is provisioned:

* :class:`Session` owns the cross-cutting concerns — target machine,
  optimizer, persistent experiment cache, parallelism, benchmark width
  preset — resolved once per run (explicitly, from the environment, or
  from CLI arguments) instead of per entry point.
* :class:`Flow` declares the paper's pipeline (source → rewrite →
  compile → verify) as composable stages with typed
  :class:`StageArtifact` outputs, per-stage caching, and
  ``on_stage_start`` / ``on_stage_end`` observer hooks.  Its run is a
  one-cell :func:`repro.analysis.runner.run_job`, the serial job every
  table row, grid source and served job runs too.

Every harness entry point — CLI subcommands, table/report generation,
sweeps, the benchmark conftest, the examples — routes through this
layer.
"""

from ..analysis.diskcache import resolve_cache_dir
from ..analysis.runner import STAGES, FlowResult, StageArtifact, StageEvent
from .session import PRESET_CHOICES, Session, SessionSpec
from .pipeline import Flow

__all__ = [
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
