"""The background job queue: N executors in front of one warm Session.

Two execution modes per job, chosen when the server starts:

* **isolated** (``workers`` processes, the default under ``repro
  serve``) — each cold job ships to a worker process through the same
  dispatch as ``run_matrix(parallel=N)``
  (:func:`~repro.analysis.runner.dispatch_jobs`): picklable
  :class:`~repro.flow.SessionSpec`, crash respawn, per-job deadline
  from the session's ``job`` timeout budget, deterministic retry.  The
  worker's results are adopted into the shared warm cache, then the
  job's summary/artefact assemble from it.
* **inline** — the job runs a :class:`~repro.flow.Flow` directly on an
  executor thread under :func:`~repro.resilience.call_with_retry`.
  Cheap and test-friendly; stage deadlines are best-effort here because
  ``SIGALRM`` enforcement only works on a main thread.

Either way, repeat and duplicate submissions are near-free: identical
in-flight jobs coalesce in the :class:`~repro.serve.jobstore.JobStore`
(the follower waits for the primary, then assembles from the warm
cache), and anything the cache tiers already hold short-circuits the
process dispatch entirely.
"""

from __future__ import annotations

import queue as _queue
import threading
from dataclasses import asdict
from typing import Dict, List, Optional

from ..analysis.runner import dispatch_jobs, experiment_key, result_label
from ..mig.io import dumps_program
from ..opt import Optimizer
from ..resilience import DEFAULT_POLICY, RetryPolicy, call_with_retry
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
        job = store.get(job_id)
        spec = job.spec
        store.mark_running(job_id)

        if job.coalesced_with is not None:
            # Ride the primary's compile: wait until it lands, then
            # assemble from the warm cache.  If the primary failed, fall
            # through and compile for ourselves.
            store.append_event(
                job_id,
                {"kind": "coalesce_wait", "primary": job.coalesced_with},
            )
            store.wait_terminal(job.coalesced_with)

        before = self.session.cache.counters()
        if self.isolate and not self._satisfied(spec):
            compilation = self._dispatch_worker(job)
        else:
            compilation = self._assemble(job)
        after = self.session.cache.counters()
        delta = {key: value - before[key] for key, value in after.items()}

        store.finish(
            job_id,
            result=summarize_compilation(compilation, spec),
            artifact=dumps_program(compilation.program),
            manifest_entry=self._manifest_entry(spec),
            counters=delta,
        )

    def _satisfied(self, spec: JobSpec) -> bool:
        """Whether the warm cache already holds this job's artefact
        (memory or disk), certificate included."""
        cache = self.session.cache
        mig = cache.cached_source_mig(spec.source, spec.preset)
        if mig is None:
            return False
        return cache.has(
            mig,
            spec.config,
            verified_patterns=spec.verify,
            arch=spec.arch,
            optimizer=spec.opt,
        )

    def _manifest_entry(self, spec: JobSpec) -> Optional[str]:
        disk = self.session.disk
        if disk is None:
            return None
        semantic = experiment_key(spec.config, spec.arch, spec.opt)
        return str(disk.entry_path(("result", *spec.identity(), semantic)))

    def _dispatch_worker(self, job: Job):
        """Compile in a worker process through the supervised pool,
        then adopt the results into the warm session cache."""
        spec = job.spec
        session = self.session
        self.store.append_event(
            job.id, {"kind": "dispatch", "mode": "process"}
        )
        (evaluation,), (recovery,) = dispatch_jobs(
            session.cache,
            [(spec.source, [spec.config])],
            preset=spec.preset,
            verify=spec.verify > 0,
            verify_patterns=spec.verify,
            parallel=1,
            arch=spec.arch,
            optimizer=Optimizer(spec.opt, spec.arch),
            session=session,
            policy=self.retry,
            job_timeout=session.timeouts.limit("job"),
        )
        for event in recovery:
            self.store.append_event(job.id, {"kind": "recovery", **event})
        return evaluation.results[result_label(spec.config)]

    def _assemble(self, job: Job):
        """Run the job's Flow inline on this executor thread.

        Cold jobs in inline mode do the actual work here; warm repeats
        and coalesced followers are pure cache hits whose stage events
        report ``cached=True``.
        """
        from ..flow.pipeline import Flow  # deferred: flow imports runner

        spec = job.spec
        store = self.store

        flow = Flow.for_job(
            spec.source,
            spec.config,
            preset=spec.preset,
            arch=spec.arch,
            opt=spec.opt,
            verify=spec.verify or None,
            session=self.session,
        )
        flow.on_stage_start(
            lambda event: store.append_event(
                job.id, {"kind": "stage_start", **asdict(event)}
            )
        )
        flow.on_stage_end(
            lambda event: store.append_event(
                job.id, {"kind": "stage_end", **asdict(event)}
            )
        )

        def on_retry(attempt: int, error: BaseException) -> None:
            store.append_event(
                job.id,
                {"kind": "retry", "attempt": attempt, "error": repr(error)},
            )

        result = call_with_retry(
            flow.run,
            policy=self.retry,
            key=(job.id,),
            job=job.id,
            on_retry=on_retry,
        )
        return result.compilation

    # -- stats ---------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Queue half of the ``/stats`` payload."""
        return {
            "workers": self.workers,
            "isolate": self.isolate,
            "depth": self.depth,
            "retry_attempts": self.retry.attempts,
        }
