"""Per-stage wall-clock timeouts: spec, resolution, and enforcement.

A wedged compile must fail fast, not eat a CI job's six-hour default.
This module gives every pipeline stage a wall-clock budget:

* :class:`Timeouts` — the parsed budget: a default limit plus per-stage
  overrides, from a spec string like ``"30"`` (every stage) or
  ``"compile=120,verify=30,job=600"``.
* :func:`resolve_timeouts` — the uniform **flag > environment >
  default** precedence against ``$REPRO_TIMEOUT``, mirroring
  ``resolve_cache_dir`` / ``resolve_architecture``.
* :func:`time_limit` — the enforcement context: ``SIGALRM``-based, so a
  stage stuck in a C extension or a tight loop is still interrupted.
  Raises :class:`~repro.resilience.errors.StageTimeoutError` (permanent:
  the stages are deterministic, so a blown budget would blow again).

Enforcement is best-effort by construction: ``SIGALRM`` exists only on
Unix and only fires on the main thread, so elsewhere :func:`time_limit`
records a ``timeout_unarmed`` resilience event and runs the block
unbounded — worker *processes* run jobs on their main thread, which is
exactly where hangs need interrupting, and the parallel supervisor
additionally enforces the ``job`` budget from the parent side (which
needs no signals at all).
"""

from __future__ import annotations

import os
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import StageTimeoutError
from .events import record

#: Environment variable holding the ambient timeout spec.
TIMEOUT_ENV_VAR = "REPRO_TIMEOUT"

#: Budget names a spec may address: the four pipeline stages plus the
#: whole-job budget the parallel supervisor enforces per worker job.
STAGE_KEYS: Tuple[str, ...] = ("source", "rewrite", "compile", "verify", "job")


@dataclass(frozen=True)
class Timeouts:
    """A wall-clock budget per pipeline stage.

    ``default`` applies to any stage without an explicit entry (``None``
    = unlimited); ``stages`` holds ``(name, seconds)`` overrides.  The
    ``job`` budget is only ever explicit — a bare-number spec bounds
    each *stage*, not the whole job, so ``"30"`` cannot silently kill a
    five-config job that legitimately needs five compiles.
    """

    default: Optional[float] = None
    stages: Tuple[Tuple[str, float], ...] = ()

    @classmethod
    def parse(cls, spec: "str | float | Timeouts | None") -> "Timeouts":
        """Parse a timeout spec.

        Grammar: ``SPEC := ENTRY ("," ENTRY)*``, ``ENTRY :=
        [STAGE "="] SECONDS`` — a bare number sets the per-stage
        default, named entries override one budget.  Numbers are
        seconds; zero or negative means "unlimited" for that entry.
        """
        if spec is None:
            return cls()
        if isinstance(spec, Timeouts):
            return spec
        if isinstance(spec, (int, float)):
            return cls(default=float(spec) if spec > 0 else None)
        default: Optional[float] = None
        stages = {}
        for entry in str(spec).split(","):
            entry = entry.strip()
            if not entry:
                continue
            name, eq, value = entry.partition("=")
            try:
                seconds = float(value if eq else name)
            except ValueError:
                raise ValueError(
                    f"bad timeout entry {entry!r}: expected "
                    "[STAGE=]SECONDS (e.g. '30' or 'compile=120')"
                ) from None
            if eq:
                key = name.strip()
                if key not in STAGE_KEYS:
                    raise ValueError(
                        f"unknown timeout stage {key!r}; "
                        f"choose one of: {', '.join(STAGE_KEYS)}"
                    )
                stages[key] = seconds
            else:
                default = seconds
        if default is not None and default <= 0:
            default = None
        return cls(
            default=default,
            stages=tuple(sorted((k, v) for k, v in stages.items())),
        )

    def limit(self, stage: str) -> Optional[float]:
        """The budget for *stage* in seconds, or ``None`` (unlimited).

        The ``job`` budget never inherits the default (see class doc).
        """
        for name, seconds in self.stages:
            if name == stage:
                return seconds if seconds > 0 else None
        if stage == "job":
            return None
        return self.default

    def spec(self) -> Optional[str]:
        """The canonical spec string (``None`` when unlimited) — what
        :class:`repro.flow.SessionSpec` ships to worker processes."""
        parts = []
        if self.default is not None:
            parts.append(f"{self.default:g}")
        parts.extend(f"{name}={seconds:g}" for name, seconds in self.stages)
        return ",".join(parts) if parts else None

    def __bool__(self) -> bool:
        return self.default is not None or bool(self.stages)


def timeouts_from_env() -> Optional[str]:
    """The ambient ``$REPRO_TIMEOUT`` spec string, if set."""
    value = os.environ.get(TIMEOUT_ENV_VAR, "").strip()
    return value or None


def resolve_timeouts(
    explicit: "str | float | Timeouts | None" = None,
) -> Timeouts:
    """Uniform budget resolution: explicit > ``$REPRO_TIMEOUT`` > none."""
    if explicit is not None:
        return Timeouts.parse(explicit)
    return Timeouts.parse(timeouts_from_env())


def alarm_capable() -> bool:
    """Whether :func:`time_limit` can actually arm a timer here:
    ``SIGALRM`` exists and we are on the process's main thread."""
    return hasattr(signal, "SIGALRM") and (
        threading.current_thread() is threading.main_thread()
    )


@contextmanager
def time_limit(
    seconds: Optional[float], *, stage: str = "stage", job: str = ""
):
    """Bound the block to *seconds* of wall-clock time.

    On expiry a :class:`~repro.resilience.errors.StageTimeoutError` is
    raised *inside* the block.  ``None``/non-positive budgets are no-op
    scopes; a budget that cannot be armed here (non-main thread,
    non-Unix) records a ``timeout_unarmed`` event and runs the block
    unbounded.  Nested limits cooperate: the outer timer is suspended
    and re-armed with its remaining budget when the inner scope exits.
    """
    if not seconds or seconds <= 0:
        yield
        return
    if not alarm_capable():
        record("timeout_unarmed", stage=stage, job=job or None, seconds=seconds)
        yield
        return

    def _expire(signum, frame):
        raise StageTimeoutError(stage, seconds, job)

    previous_handler = signal.getsignal(signal.SIGALRM)
    start = time.monotonic()
    prev_remaining, _ = signal.setitimer(signal.ITIMER_REAL, seconds)
    signal.signal(signal.SIGALRM, _expire)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous_handler)
        if prev_remaining:
            elapsed = time.monotonic() - start
            signal.setitimer(
                signal.ITIMER_REAL, max(1e-3, prev_remaining - elapsed)
            )
