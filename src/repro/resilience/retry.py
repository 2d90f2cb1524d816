"""Deterministic retry policy: exponential backoff with keyed jitter.

The job runners retry transiently-failed jobs through one
:class:`RetryPolicy`: :func:`repro.analysis.runner.run_job`, the one
serial job wrapper (table rows, grid sources, ``Flow.run`` and every
``repro serve`` job, under the server's ``--retries`` policy there),
and the worker-pool supervisor behind
:func:`~repro.analysis.runner.dispatch_jobs`.  Two design constraints
shape it:

* **Determinism** — the harness's artefacts are byte-identical across
  runs, and its resilience layer should be too: jitter is derived from a
  SHA-256 over ``(key, attempt)`` instead of a random source, so the
  same job retried in the same run sleeps the same amount every time
  (and tests can assert exact delays).
* **Boundedness** — delays grow exponentially but saturate at
  :attr:`RetryPolicy.max_delay`, and the attempt budget converts the
  final transient failure into a permanent
  :class:`~repro.resilience.errors.RetriesExhaustedError`.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, replace
from typing import Callable, Optional, Tuple, Union

from .._env import env_value
from .errors import RetriesExhaustedError, classify_transient


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to retry a transiently-failing job, and how fast.

    ``delay(attempt)`` for attempts ``1, 2, 3, …`` follows
    ``base * factor**(attempt-1)`` capped at ``max_delay``, stretched by
    a deterministic jitter in ``[0, jitter]`` (a fraction of the base
    delay) keyed on ``(key, attempt)`` — so concurrent retries of
    different jobs decorrelate without randomness.
    """

    attempts: int = 3
    base: float = 0.05
    factor: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.25

    def delay(self, attempt: int, key: Tuple = ()) -> float:
        """Seconds to wait before retry number *attempt* (1-based)."""
        raw = self.base * self.factor ** max(0, attempt - 1)
        raw = min(raw, self.max_delay)
        if not self.jitter:
            return raw
        digest = hashlib.sha256(repr((key, attempt)).encode()).digest()
        unit = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return raw * (1.0 + self.jitter * unit)


#: The supervisor's default: three attempts, 50 ms first backoff.
DEFAULT_POLICY = RetryPolicy()

#: Environment override for the retry attempt budget.
RETRY_ENV_VAR = "REPRO_RETRIES"


def resolve_retry(
    attempts: Union[int, str, None] = None,
) -> RetryPolicy:
    """Resolve the retry budget: flag > ``$REPRO_RETRIES`` >
    :data:`DEFAULT_POLICY`.

    The value is the attempt budget; backoff shape stays the default's.
    Malformed or non-positive values raise :class:`ValueError` (fail
    fast, like ``Timeouts.parse``).
    """
    if attempts is None:
        attempts = env_value(RETRY_ENV_VAR)
        if attempts is None:
            return DEFAULT_POLICY
    try:
        count = int(attempts)
    except (TypeError, ValueError):
        raise ValueError(
            f"invalid retry budget {attempts!r} (expected an integer "
            f"number of attempts)"
        ) from None
    if count < 1:
        raise ValueError(f"retry budget must be >= 1, got {count}")
    if count == DEFAULT_POLICY.attempts:
        return DEFAULT_POLICY
    return replace(DEFAULT_POLICY, attempts=count)


def call_with_retry(
    fn: Callable,
    *,
    policy: RetryPolicy = DEFAULT_POLICY,
    key: Tuple = (),
    job: str = "",
    on_retry: Optional[Callable[[int, BaseException], None]] = None,
    sleep: Callable[[float], None] = time.sleep,
):
    """Run ``fn()`` under *policy*, retrying transient failures.

    Permanent failures propagate on first occurrence; transient ones are
    retried after ``policy.delay(attempt, key)`` seconds, with
    *on_retry* (if given) observing each ``(attempt, error)`` before the
    backoff sleep.  When the budget is exhausted the last transient
    error is wrapped in a permanent
    :class:`~repro.resilience.errors.RetriesExhaustedError`.
    """
    attempt = 0
    while True:
        attempt += 1
        try:
            return fn()
        except BaseException as error:
            if not classify_transient(error):
                raise
            if attempt >= policy.attempts:
                raise RetriesExhaustedError(job or repr(key), attempt, error)
            if on_retry is not None:
                on_retry(attempt, error)
            sleep(policy.delay(attempt, key))
