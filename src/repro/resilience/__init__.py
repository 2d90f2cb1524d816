"""repro.resilience — fault-tolerant experiment execution.

The reliability substrate under the execution stack: the
transient-vs-permanent :class:`ReproError` taxonomy, deterministic
retry with exponential backoff (:class:`RetryPolicy`), per-stage
wall-clock timeouts (:class:`Timeouts` / :func:`time_limit`,
``$REPRO_TIMEOUT``), the process-local resilience event log
(:mod:`repro.resilience.events`), per-experiment ``run_manifest.json``
provenance (:mod:`repro.resilience.manifest`), and the deterministic
fault-injection harness (:mod:`repro.resilience.faults`,
``$REPRO_FAULTS``) that exercises every recovery path with real faults.

The supervised job runners live where the jobs do
(:func:`repro.analysis.runner.run_job` and
:func:`~repro.analysis.runner.dispatch_jobs`).  This package holds the
policies and mechanisms they share.
"""

from . import events
from .errors import (
    FaultInjected,
    PermanentFault,
    ReproError,
    RetriesExhaustedError,
    StageTimeoutError,
    TransientFault,
    WorkerCrashError,
    classify_transient,
)
from .faults import (
    FAULTS_ENV_VAR,
    FaultDirective,
    FaultPlan,
    active_plan,
    inject,
    parse_faults,
)
from .manifest import (
    MANIFEST_SCHEMA,
    append_manifest_events,
    iter_manifests,
    load_manifest,
    manifest_path,
    verify_manifest,
    write_manifest,
)
from .retry import (
    DEFAULT_POLICY,
    RETRY_ENV_VAR,
    RetryPolicy,
    call_with_retry,
    resolve_retry,
)
from .timeouts import (
    TIMEOUT_ENV_VAR,
    Timeouts,
    resolve_timeouts,
    time_limit,
    timeouts_from_env,
)

__all__ = [
    "DEFAULT_POLICY",
    "FAULTS_ENV_VAR",
    "FaultDirective",
    "FaultInjected",
    "FaultPlan",
    "MANIFEST_SCHEMA",
    "PermanentFault",
    "RETRY_ENV_VAR",
    "ReproError",
    "RetriesExhaustedError",
    "RetryPolicy",
    "StageTimeoutError",
    "TIMEOUT_ENV_VAR",
    "Timeouts",
    "TransientFault",
    "WorkerCrashError",
    "active_plan",
    "append_manifest_events",
    "call_with_retry",
    "classify_transient",
    "events",
    "inject",
    "iter_manifests",
    "load_manifest",
    "manifest_path",
    "parse_faults",
    "resolve_retry",
    "resolve_timeouts",
    "time_limit",
    "timeouts_from_env",
    "verify_manifest",
    "write_manifest",
]
