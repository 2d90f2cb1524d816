"""In-memory job registry: lifecycle, coalescing, and event long-polls.

One :class:`JobStore` instance backs the whole server.  It is the only
mutable state the HTTP handlers and queue workers share, so every
transition happens under one condition variable — which doubles as the
wake-up signal for ``GET /jobs/<id>/events`` long-polls and for
followers waiting on the primary of a coalesced pair.

Coalescing: :meth:`submit` keys each job by its
:attr:`~repro.serve.schemas.JobSpec.signature`.  While a job with a
given signature is in flight, later submissions of the same signature
record it as their ``coalesced_with`` primary; the queue makes them
wait for the primary and then assemble from the warm cache instead of
compiling again.  The in-flight index entry is released when its owner
reaches a terminal state.

Memory stays bounded: at most :data:`MAX_TERMINAL_JOBS` finished jobs
are kept, the oldest evicted first.  In-flight jobs are never evicted;
an evicted id is unknown to :meth:`JobStore.get` (``/jobs/<id>``
answers 404) and counts as terminal to waiters, and the ``/stats``
tallies still count every job ever submitted.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .schemas import JobSpec

#: Job lifecycle states, in order.
STATUSES: Tuple[str, ...] = ("queued", "running", "done", "failed")

#: Finished jobs kept for lookup; older ones are evicted.
MAX_TERMINAL_JOBS = 1000


@dataclass
class Job:
    """One submitted compilation job and everything it produced."""

    id: str
    spec: JobSpec
    status: str = "queued"
    #: Primary job id when this submission coalesced onto an identical
    #: in-flight job; ``None`` when this job compiles for itself.
    coalesced_with: Optional[str] = None
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: Optional[str] = None
    #: Append-only event log: lifecycle + stage events, each a dict with
    #: monotonically increasing ``seq``.
    events: List[Dict] = field(default_factory=list)
    #: JSON result summary (see schemas.summarize_compilation).
    result: Optional[Dict] = None
    #: The compiled program listing (the ``/artifact`` body).
    artifact: Optional[str] = None
    #: Disk-cache entry path whose ``.manifest.json`` sidecar documents
    #: this job's artefact; ``None`` without a persistent cache.
    manifest_entry: Optional[str] = None
    #: Per-job cache-counter deltas (approximate under concurrency —
    #: concurrent jobs share the session cache and its counters).
    counters: Optional[Dict[str, int]] = None

    @property
    def terminal(self) -> bool:
        return self.status in ("done", "failed")


class JobStore:
    """Thread-safe registry of every job the server has seen."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._jobs: Dict[str, Job] = {}  # submission order
        self._finished: deque = deque()  # terminal ids, oldest first
        self._evicted: Counter = Counter()  # tallies of evicted jobs
        self._inflight: Dict[Tuple, str] = {}
        self._ids = itertools.count(1)
        self._closed = False

    # -- submission ----------------------------------------------------

    def submit(self, spec: JobSpec) -> Job:
        """Register a new job, coalescing onto an in-flight twin."""
        with self._cond:
            job_id = f"j{next(self._ids):06d}"
            primary = self._inflight.get(spec.signature)
            job = Job(
                id=job_id,
                spec=spec,
                coalesced_with=primary,
                submitted_at=time.time(),
            )
            if primary is None:
                self._inflight[spec.signature] = job_id
            self._jobs[job_id] = job
            event = {"kind": "job", "status": "queued"}
            if primary is not None:
                event["coalesced_with"] = primary
            self._append(job, event)
            self._cond.notify_all()
            return job

    # -- lookup --------------------------------------------------------

    def get(self, job_id: str) -> Job:
        with self._lock:
            return self._jobs[job_id]

    def jobs(self) -> List[Job]:
        """Submission-ordered snapshot."""
        with self._lock:
            return list(self._jobs.values())

    def counts(self) -> Dict[str, int]:
        """Job tallies for ``/stats``, evicted jobs included."""
        with self._lock:
            tally = Counter(self._evicted)
            for job in self._jobs.values():
                tally.update(_tallies(job))
            return {
                key: tally[key] for key in (*STATUSES, "total", "coalesced")
            }

    # -- transitions ---------------------------------------------------

    def mark_running(self, job_id: str) -> None:
        with self._cond:
            job = self._jobs[job_id]
            job.status = "running"
            job.started_at = time.time()
            self._append(job, {"kind": "job", "status": "running"})
            self._cond.notify_all()

    def finish(
        self,
        job_id: str,
        *,
        result: Dict,
        artifact: str,
        manifest_entry: Optional[str],
        counters: Optional[Dict[str, int]] = None,
    ) -> None:
        with self._cond:
            job = self._jobs[job_id]
            job.status = "done"
            job.finished_at = time.time()
            job.result = result
            job.artifact = artifact
            job.manifest_entry = manifest_entry
            job.counters = counters
            self._retire(job)
            self._append(job, {"kind": "job", "status": "done"})
            self._cond.notify_all()

    def fail(self, job_id: str, error: str) -> None:
        with self._cond:
            job = self._jobs[job_id]
            job.status = "failed"
            job.finished_at = time.time()
            job.error = error
            self._retire(job)
            self._append(job, {"kind": "job", "status": "failed",
                               "error": error})
            self._cond.notify_all()

    def append_event(self, job_id: str, event: Dict) -> None:
        """Append one event (stage notification, retry, dispatch …)."""
        with self._cond:
            self._append(self._jobs[job_id], dict(event))
            self._cond.notify_all()

    def _append(self, job: Job, event: Dict) -> None:
        event.setdefault("time", time.time())
        event["seq"] = len(job.events)
        job.events.append(event)

    def _retire(self, job: Job) -> None:
        """Release *job*'s in-flight signature and evict the oldest
        finished jobs beyond :data:`MAX_TERMINAL_JOBS`."""
        if self._inflight.get(job.spec.signature) == job.id:
            del self._inflight[job.spec.signature]
        self._finished.append(job.id)
        while len(self._finished) > MAX_TERMINAL_JOBS:
            evicted = self._jobs.pop(self._finished.popleft())
            self._evicted.update(_tallies(evicted))

    # -- waiting -------------------------------------------------------

    def wait_events(
        self, job_id: str, start: int, timeout: float
    ) -> Tuple[List[Dict], bool]:
        """Block until the job has events past *start*, is terminal, or
        *timeout* elapses.  Returns ``(new events, terminal)``."""
        deadline = time.monotonic() + max(0.0, timeout)
        with self._cond:
            job = self._jobs.get(job_id)
            while job is not None:
                if len(job.events) > start or job.terminal or self._closed:
                    return [dict(e) for e in job.events[start:]], job.terminal
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return [], job.terminal
                self._cond.wait(remaining)
            return [], True  # evicted: it was terminal

    def wait_terminal(
        self, job_id: str, timeout: Optional[float] = None
    ) -> bool:
        """Block until the job reaches a terminal state (or the store
        closes).  Returns whether it is terminal."""
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None:
                return True  # evicted: it was terminal
            while not job.terminal and not self._closed:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                self._cond.wait(remaining)
            return job.terminal

    def close(self) -> None:
        """Release every waiter (server shutdown)."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()


def _tallies(job: Job) -> Counter:
    """What *job* adds to :meth:`JobStore.counts`."""
    coalesced = int(job.coalesced_with is not None)
    return Counter({job.status: 1, "total": 1, "coalesced": coalesced})
