"""The :class:`ReproError` taxonomy: transient versus permanent failures.

Every recovery decision in the execution stack — retry or give up,
respawn or abort, degrade or fail — reduces to one question: *could the
same work succeed if tried again?*  This module answers it uniformly:

* :class:`TransientFault` — the failure is environmental (a crashed
  worker process, a torn cache entry, a filesystem hiccup, an injected
  chaos fault).  The supervisor retries these with exponential backoff.
* :class:`PermanentFault` — the failure is deterministic (bad input, a
  verification mismatch, an exceeded stage timeout).  Retrying would
  reproduce it; the supervisor surfaces these immediately.

Exceptions raised by third-party code are classified by
:func:`classify_transient`; ``repro``'s own code raises subclasses of
:class:`ReproError`, whose :attr:`~ReproError.transient` attribute is
authoritative.
"""

from __future__ import annotations

from concurrent.futures.process import BrokenProcessPool


class ReproError(Exception):
    """Base of every harness-raised failure.

    :attr:`transient` drives the supervisor's retry decision; subclasses
    pin it, and :func:`classify_transient` consults it first.
    """

    #: Whether retrying the failed work could plausibly succeed.
    transient = False


class TransientFault(ReproError):
    """An environmental failure worth retrying (crash, I/O, chaos)."""

    transient = True


class PermanentFault(ReproError):
    """A deterministic failure; retrying would reproduce it."""

    transient = False


class WorkerCrashError(TransientFault):
    """A worker process died mid-job (signal, ``os._exit``, OOM kill).

    Raised by the supervisor when a :class:`BrokenProcessPool` takes a
    job down; the pool is respawned and the job retried.
    """

    def __init__(self, job: str, attempt: int, detail: str = "") -> None:
        self.job = job
        self.attempt = attempt
        self.detail = detail
        super().__init__(
            f"worker running {job!r} died (attempt {attempt})"
            + (f": {detail}" if detail else "")
        )

    def __reduce__(self):
        return type(self), (self.job, self.attempt, self.detail)


class StageTimeoutError(PermanentFault):
    """A pipeline stage exceeded its wall-clock budget.

    Permanent by design: the stages are deterministic computations, so a
    stage that blows its budget once will blow it again — the point of
    the timeout is to fail fast instead of wedging the sweep.
    """

    def __init__(self, stage: str, seconds: float, job: str = "") -> None:
        self.stage = stage
        self.seconds = seconds
        self.job = job
        where = f" while running {job!r}" if job else ""
        super().__init__(
            f"stage {stage!r} exceeded its {seconds:g}s timeout{where}"
        )

    def __reduce__(self):
        # Rebuilt from its fields: a worker process's blown budget
        # reaches the supervisor as itself, not as a broken pool.
        return type(self), (self.stage, self.seconds, self.job)


class RetriesExhaustedError(PermanentFault):
    """A job kept failing transiently until the retry budget ran out.

    Carries the final underlying failure as ``__cause__``; once the
    budget is spent the failure is treated as permanent.
    """

    def __init__(self, job: str, attempts: int, last: BaseException) -> None:
        self.job = job
        self.attempts = attempts
        super().__init__(
            f"job {job!r} failed {attempts} time(s); giving up "
            f"(last error: {type(last).__name__}: {last})"
        )
        self.__cause__ = last

    def __reduce__(self):
        return type(self), (self.job, self.attempts, self.__cause__)


class KernelDegradedError(TransientFault):
    """A simulation-kernel backend failed on a job.

    Normally never surfaces: :mod:`repro.mig.kernel` catches the backend
    failure itself and demotes the job to the bigint reference kernel,
    recording a degradation event.  The class exists so injected kernel
    faults have a typed identity in event logs and tests.
    """


class FaultInjected(TransientFault):
    """Raised (or acted on) by the deterministic fault-injection harness.

    See :mod:`repro.resilience.faults`; real recovery paths are
    exercised by these in tests and the CI chaos lane.
    """

    def __init__(self, point: str, job: str = "") -> None:
        self.point = point
        self.job = job
        where = f" on job {job!r}" if job else ""
        super().__init__(f"injected fault at {point!r}{where}")

    def __reduce__(self):
        return type(self), (self.point, self.job)


#: Exception types from outside the taxonomy that are worth retrying:
#: process-boundary and I/O failures whose cause is environmental.
_TRANSIENT_TYPES = (
    BrokenProcessPool,
    ConnectionError,
    EOFError,
    InterruptedError,
    OSError,
)

#: Never retried, whatever raised them: interpreter-level resource
#: exhaustion and user interrupts are not environmental hiccups.
_FATAL_TYPES = (KeyboardInterrupt, MemoryError, SystemExit)


def classify_transient(error: BaseException) -> bool:
    """Whether *error* is worth retrying.

    :class:`ReproError` subclasses are authoritative via their
    :attr:`~ReproError.transient` flag; foreign exceptions are
    classified structurally — process/I-O failures are transient,
    interrupts and resource exhaustion are fatal, and everything else
    (``ValueError`` and friends: deterministic bugs or bad input) is
    permanent.
    """
    if isinstance(error, ReproError):
        return error.transient
    if isinstance(error, _FATAL_TYPES):
        return False
    return isinstance(error, _TRANSIENT_TYPES)
