"""Per-stage wall-clock timeouts: spec, resolution, and enforcement.

A wedged compile must fail fast, not eat a CI job's six-hour default.
This module gives every pipeline stage a wall-clock budget:

* :class:`Timeouts` — the parsed budget: a default limit plus per-stage
  overrides, from a spec string like ``"30"`` (every stage) or
  ``"compile=120,verify=30,job=600"``.
* :func:`resolve_timeouts` — the uniform **flag > environment >
  default** precedence against ``$REPRO_TIMEOUT``.
* :func:`time_limit` — the enforcement scope: one cooperative deadline
  that binds on any thread.  Rewrite passes, compiled gate batches and
  verification pattern batches call :func:`checkpoint`, which raises
  :class:`~repro.resilience.errors.StageTimeoutError` (permanent: the
  stages are deterministic, so a blown budget would blow again).

A worker process wedged between checkpoints needs preemption: the
parallel supervisor enforces the ``job`` budget from the parent side.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Optional, Tuple

from .._env import env_value
from .errors import StageTimeoutError

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
        default, named entries override one budget.  Seconds are
        finite; zero or negative means "unlimited" for that entry.
        """
        if spec is None:
            return cls()
        if isinstance(spec, Timeouts):
            return spec
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
                seconds = math.nan
            if not math.isfinite(seconds):
                raise ValueError(
                    f"bad timeout entry {entry!r}: expected "
                    "[STAGE=]SECONDS (e.g. '30' or 'compile=120')"
                )
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
    return env_value(TIMEOUT_ENV_VAR)


def resolve_timeouts(
    explicit: "str | float | Timeouts | None" = None,
) -> Timeouts:
    """Uniform budget resolution: explicit > ``$REPRO_TIMEOUT`` > none."""
    return Timeouts.parse(
        explicit if explicit is not None else timeouts_from_env()
    )


#: The deadline clock, read by :func:`time_limit` and :func:`checkpoint`
#: alike (one module-level name, so a test can substitute a fake clock).
_now = time.monotonic

#: The active deadline ``(expires, stage, seconds, job)``: the earliest
#: expiring enclosing budget, or ``None``.  Context-local, so per thread.
_DEADLINE: ContextVar = ContextVar("repro_deadline", default=None)


def checkpoint(cap: float = math.inf) -> float:
    """Raise :class:`~repro.resilience.errors.StageTimeoutError` once the
    active deadline has passed; else the seconds left, at most *cap*.
    Outside any budget this is one context-variable read."""
    deadline = _DEADLINE.get()
    if deadline is None:
        return cap
    left = deadline[0] - _now()
    if left <= 0:
        raise StageTimeoutError(*deadline[1:])
    return min(cap, left)


@contextmanager
def time_limit(
    seconds: Optional[float], *, stage: str = "stage", job: str = ""
):
    """Bound the block to *seconds* of wall-clock time.

    Once spent, the block's next :func:`checkpoint` raises
    :class:`~repro.resilience.errors.StageTimeoutError`, and so does a
    late exit (a block without checkpoints still fails).
    ``None``/non-positive budgets are no-op scopes.  Nested limits
    cooperate: the earlier expiry binds, and the error names its budget.
    """
    if not seconds or seconds <= 0:
        yield
        return
    deadline = (_now() + seconds, stage, seconds, job)
    token = _DEADLINE.set(min(deadline, _DEADLINE.get() or deadline))
    try:
        yield
        checkpoint()
    finally:
        _DEADLINE.reset(token)
