"""Process-local log of resilience events (retries, degradations, …).

Recovery actions must leave a trace: the run manifest's audit log, the
worker counters in ``BENCH_suite.json``, and the fault-injection tests
all need to observe *that* a retry happened, *which* job degraded its
kernel, and *why*.  This module is that trace: a tiny, thread-safe,
process-global recorder.

Events are plain dicts — ``{"kind": ..., "job": ..., **detail}`` — so
they serialise into ``run_manifest.json`` untouched.  Worker processes
accumulate their own log and write each job's events into the manifests
they store; :func:`capture` scopes collection around one unit of work
(one experiment compile, one job) for callers that need the span.
The process log keeps only the newest :data:`MAX_EVENTS` events, so a
long-running service stays bounded; capture sinks still see every event.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional

#: Events the process log holds; older ones drop off the front.
MAX_EVENTS = 10_000

_LOCK = threading.Lock()
_LOG: Deque[Dict] = deque(maxlen=MAX_EVENTS)
#: Active capture sinks; every recorded event is appended to each.
_SINKS: List[List[Dict]] = []


def record(kind: str, *, job: Optional[str] = None, **detail) -> Dict:
    """Record one resilience event; returns the event dict.

    *kind* is a short verb phrase (``"retry"``, ``"pool_respawn"``,
    ``"job_timeout"``, ``"kernel_degraded"``, ``"cache_fallback"``,
    ``"fault_injected"``); *job* names the benchmark/source the event
    pertains to, when known.
    """
    event: Dict = {"kind": kind, "time": time.time()}
    if job is not None:
        event["job"] = job
    event.update(detail)
    with _LOCK:
        _LOG.append(event)
        for sink in _SINKS:
            sink.append(event)
    return event


def snapshot(
    *, kind: Optional[str] = None, job: Optional[str] = None
) -> List[Dict]:
    """A copy of the process log (the newest :data:`MAX_EVENTS` events,
    oldest first), optionally filtered by kind/job."""
    with _LOCK:
        events = list(_LOG)
    if kind is not None:
        events = [e for e in events if e["kind"] == kind]
    if job is not None:
        events = [e for e in events if e.get("job") == job]
    return events


def clear() -> None:
    """Drop the process log (worker entry points and tests)."""
    with _LOCK:
        _LOG.clear()


class capture:
    """Context manager collecting the events recorded while active.

    ``with capture() as events: ...`` — *events* is a plain list that
    receives every event recorded (by any thread) inside the block, in
    addition to the process log.  Captures nest; each sink sees the
    events of its own span.
    """

    def __init__(self) -> None:
        self.events: List[Dict] = []

    def __enter__(self) -> List[Dict]:
        with _LOCK:
            _SINKS.append(self.events)
        return self.events

    def __exit__(self, *exc) -> None:
        with _LOCK:
            _SINKS.remove(self.events)
