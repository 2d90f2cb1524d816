"""The background job queue: N executors in front of one warm Session.

Every job runs as one :func:`~repro.analysis.runner.run_job` — the
serial job wrapper every table row, grid source and
:meth:`~repro.flow.Flow.run` share — with the job's preset, the
server's retry policy, and its stage events and retries appended to the
job's event stream.  The session's ``job`` budget and stage budgets
bind, and the serial fault-injection site fires, exactly as on the CLI.

Two execution modes, chosen when the server starts:

* **isolated** (``repro serve``'s default) — a job whose artefact the
  cache tiers do not hold is first dispatched to a worker process
  through the same supervised pool as ``run_matrix(parallel=N)``
  (:func:`~repro.analysis.runner.dispatch_jobs`): picklable
  :class:`~repro.flow.SessionSpec`, crash respawn, per-job deadline
  from the session's ``job`` budget, deterministic retry.  Its results
  are adopted into the shared warm cache, so the job's walk that
  follows is a pure cache hit.
* **inline** — the walk does the work on the executor thread.

Either way, repeat and duplicate submissions are near-free: identical
in-flight jobs coalesce in the :class:`~repro.serve.jobstore.JobStore`
(the follower waits for the primary, then walks the warm cache), and
anything the cache tiers already hold short-circuits the process
dispatch entirely.
"""

from __future__ import annotations

import queue as _queue
import threading
from dataclasses import asdict
from typing import Dict, List, Optional

from ..analysis.runner import (
    dispatch_jobs,
    experiment_key,
    missing_jobs,
    run_job,
)
from ..mig.io import dumps_program
from ..opt import Optimizer
from ..resilience import DEFAULT_POLICY, RetryPolicy
from .jobstore import Job, JobStore
from .schemas import JobSpec, summarize_compilation


class JobQueue:
    """Dispatches submitted jobs onto executor threads."""

    def __init__(
        self,
        session,
        *,
        workers: int = 2,
        isolate: bool = False,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.session = session
        self.store = JobStore()
        self.workers = max(1, int(workers))
        self.isolate = bool(isolate)
        self.retry = retry if retry is not None else DEFAULT_POLICY
        self._tasks: "_queue.SimpleQueue[Optional[str]]" = _queue.SimpleQueue()
        self._threads: List[threading.Thread] = []
        self._pending = 0
        self._pending_lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        if self._threads:
            return
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._run,
                name=f"repro-serve-executor-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def stop(self, *, wait: bool = True) -> None:
        """Stop the executors and release every store waiter.

        A job currently executing finishes its work; queued jobs behind
        the sentinels are abandoned (their submitters see the store
        close).
        """
        for _ in self._threads:
            self._tasks.put(None)
        if wait:
            for thread in self._threads:
                thread.join(timeout=30)
        self._threads = []
        self.store.close()

    @property
    def depth(self) -> int:
        """Jobs submitted but not yet picked up by an executor."""
        with self._pending_lock:
            return self._pending

    # -- submission ----------------------------------------------------

    def submit(self, spec: JobSpec) -> Job:
        job = self.store.submit(spec)
        with self._pending_lock:
            self._pending += 1
        self._tasks.put(job.id)
        return job

    # -- execution -----------------------------------------------------

    def _run(self) -> None:
        while True:
            job_id = self._tasks.get()
            if job_id is None:
                return
            with self._pending_lock:
                self._pending -= 1
            try:
                self._execute(job_id)
            except BaseException as error:  # noqa: BLE001 — job boundary
                self.store.fail(
                    job_id, f"{type(error).__name__}: {error}"
                )

    def _execute(self, job_id: str) -> None:
        store = self.store
        session = self.session
        job = store.get(job_id)
        spec = job.spec
        store.mark_running(job_id)

        def event(kind: str, **detail) -> None:
            store.append_event(job_id, {"kind": kind, **detail})

        if job.coalesced_with is not None:
            # Ride the primary's compile: wait until it lands, then walk
            # the warm cache.  If the primary failed, the walk compiles.
            event("coalesce_wait", primary=job.coalesced_with)
            store.wait_terminal(job.coalesced_with)

        target = (spec.arch, Optimizer(spec.opt, spec.arch))
        before = session.cache.counters()
        if self.isolate:
            work = missing_jobs(
                session.cache, [spec.source], [spec.config],
                preset=spec.preset, verify=spec.verify,
                arch=target[0], optimizer=target[1],
            )
            if work:
                event("dispatch", mode="process")
                _, (recovery,) = dispatch_jobs(
                    work, preset=spec.preset, verify=spec.verify,
                    parallel=1, arch=target[0], optimizer=target[1],
                    session=session, policy=self.retry,
                )
                for entry in recovery:
                    store.append_event(job_id, {"kind": "recovery", **entry})
        # An isolated job's result is held by now (the probe adopted it
        # or the worker computed it, without its rewrite), so its walk
        # skips the rewrite; an inline job's rewrite stage reads its own
        # key rather than probing the result first.
        (point,) = run_job(
            session, spec.source, [target], [spec.config],
            preset=spec.preset, verify=spec.verify,
            keep_rewritten=not self.isolate,
            hooks=(
                [lambda e: event("stage_start", **asdict(e))],
                [lambda e: event("stage_end", **asdict(e))],
            ),
            policy=self.retry,
            on_retry=lambda n, error: event(
                "retry", attempt=n, error=repr(error)
            ),
        )
        compilation = point.result.compilation
        after = session.cache.counters()
        delta = {key: value - before[key] for key, value in after.items()}

        store.finish(
            job_id,
            result=summarize_compilation(compilation, spec),
            artifact=dumps_program(compilation.program),
            manifest_entry=self._manifest_entry(spec),
            counters=delta,
        )

    def _manifest_entry(self, spec: JobSpec) -> Optional[str]:
        disk = self.session.disk
        if disk is None:
            return None
        semantic = experiment_key(spec.config, spec.arch, spec.opt)
        return str(disk.entry_path(("result", *spec.identity(), semantic)))

    # -- stats ---------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Queue half of the ``/stats`` payload."""
        return {
            "workers": self.workers,
            "isolate": self.isolate,
            "depth": self.depth,
            "retry_attempts": self.retry.attempts,
        }
