"""Request routing: method + path → JSON/stream :class:`Response`.

Pure functions over the server facade (queue, store, session, policy
flags) — no socket code here, so every route is unit-testable without
binding a port.  The shared handler in :mod:`repro._http` translates
the returned :class:`~repro._http.Response` into status line, headers,
and body.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Dict, List, Optional

from .._http import Response, error, query_float, query_int
from ..resilience.manifest import (
    load_manifest,
    manifest_path,
    verify_manifest,
)
from .jobstore import Job
from .schemas import SchemaError, parse_job

#: Long-poll bounds for ``GET /jobs/<id>/events`` (seconds).
DEFAULT_EVENT_TIMEOUT = 30.0
MAX_EVENT_TIMEOUT = 120.0

ENDPOINTS = (
    "GET /healthz",
    "GET /stats",
    "POST /jobs",
    "GET /jobs",
    "GET /jobs/<id>",
    "GET /jobs/<id>/events",
    "GET /jobs/<id>/artifact",
    "GET /jobs/<id>/manifest",
    "POST /shutdown",
)


def job_payload(job: Job, *, brief: bool = False) -> Dict[str, object]:
    """The JSON view of one job (``GET /jobs[/<id>]``)."""
    payload: Dict[str, object] = {
        "id": job.id,
        "status": job.status,
        "request": dict(job.spec.request),
        "coalesced_with": job.coalesced_with,
        "submitted_at": job.submitted_at,
        "started_at": job.started_at,
        "finished_at": job.finished_at,
        "events": len(job.events),
    }
    if job.error is not None:
        payload["error"] = job.error
    if brief:
        return payload
    payload["result"] = job.result
    payload["counters"] = job.counters
    if job.status == "done":
        payload["urls"] = {
            "events": f"/jobs/{job.id}/events",
            "artifact": f"/jobs/{job.id}/artifact",
            "manifest": f"/jobs/{job.id}/manifest",
        }
    return payload


def stats_payload(server) -> Dict[str, object]:
    """The ``GET /stats`` body: queue, jobs, and cache health."""
    cache = server.session.cache
    disk = server.session.disk
    return {
        "service": "repro.serve",
        "uptime_seconds": time.time() - server.started_at,
        "jobs": server.store.counts(),
        "queue": server.queue.stats(),
        "cache": {
            **cache.counters(),
            "workers": dict(cache.worker_counters),
        },
        "disk": disk.stats() if disk is not None else None,
    }


def _event_stream(server, job_id: str, since: int, timeout: float):
    """NDJSON generator: replay events from *since*, then long-poll
    until the job is terminal or the window closes."""
    deadline = time.monotonic() + timeout
    position = since
    while True:
        remaining = deadline - time.monotonic()
        events, terminal = server.store.wait_events(
            job_id, position, max(0.0, remaining)
        )
        for event in events:
            yield (json.dumps(event, default=str) + "\n").encode("utf-8")
        position += len(events)
        if terminal or time.monotonic() >= deadline:
            return


def handle(
    server,
    method: str,
    path: str,
    query: Dict[str, List[str]],
    payload: Optional[object],
) -> Response:
    """Route one parsed request.  Never raises for client errors —
    schema and lookup problems map to 4xx responses."""
    parts = [p for p in path.split("/") if p]

    if not parts:
        if method != "GET":
            return error(405, "method not allowed")
        return Response(200, payload={
            "service": "repro.serve",
            "endpoints": list(ENDPOINTS),
        })

    if parts[0] == "healthz" and len(parts) == 1:
        if method != "GET":
            return error(405, "method not allowed")
        return Response(200, payload={"status": "ok"})

    if parts[0] == "stats" and len(parts) == 1:
        if method != "GET":
            return error(405, "method not allowed")
        return Response(200, payload=stats_payload(server))

    if parts[0] == "shutdown" and len(parts) == 1:
        if method != "POST":
            return error(405, "method not allowed")
        if not server.allow_shutdown:
            return error(
                403,
                "shutdown over HTTP is disabled "
                "(start the server with --allow-shutdown)",
            )
        server.request_shutdown()
        return Response(200, payload={"status": "shutting down"})

    if parts[0] != "jobs":
        return error(404, f"no such endpoint: /{parts[0]}")

    # -- /jobs ---------------------------------------------------------

    if len(parts) == 1:
        if method == "POST":
            try:
                spec = parse_job(
                    payload,
                    server.session,
                    allow_frontend=server.allow_frontend,
                )
            except SchemaError as exc:
                return error(400, str(exc))
            job = server.queue.submit(spec)
            body = {
                "id": job.id,
                "status": job.status,
                "coalesced_with": job.coalesced_with,
                "url": f"/jobs/{job.id}",
            }
            return Response(202, payload=body)
        if method == "GET":
            return Response(200, payload={
                "jobs": [
                    job_payload(job, brief=True)
                    for job in server.store.jobs()
                ],
            })
        return error(405, "method not allowed")

    # -- /jobs/<id>[/...] ----------------------------------------------

    job_id = parts[1]
    try:
        job = server.store.get(job_id)
    except KeyError:
        return error(404, f"no such job: {job_id}")

    if len(parts) == 2:
        if method != "GET":
            return error(405, "method not allowed")
        return Response(200, payload=job_payload(job))

    if len(parts) != 3 or method != "GET":
        return error(
            405 if len(parts) == 3 else 404, "no such job endpoint"
        )
    leaf = parts[2]

    if leaf == "events":
        since = query_int(query, "since", 0)
        timeout = query_float(query, "timeout", DEFAULT_EVENT_TIMEOUT)
        if since is None or since < 0 or timeout is None or timeout < 0:
            return error(400, "bad 'since' or 'timeout' query parameter")
        timeout = min(timeout, MAX_EVENT_TIMEOUT)
        return Response(
            200,
            stream=_event_stream(server, job_id, since, timeout),
            content_type="application/x-ndjson",
        )

    if leaf == "artifact":
        if job.status != "done":
            return error(
                409, f"job {job_id} is {job.status}, artifact unavailable"
            )
        digest = hashlib.sha256(job.artifact.encode("utf-8")).hexdigest()
        return Response(
            200,
            text=job.artifact,
            content_type="text/plain; charset=utf-8",
            headers={"X-Artifact-SHA256": digest},
        )

    if leaf == "manifest":
        if job.status != "done":
            return error(
                409, f"job {job_id} is {job.status}, manifest unavailable"
            )
        if job.manifest_entry is None:
            return error(
                404,
                "no manifest: the server runs without a persistent "
                "cache (--cache-dir)",
            )
        sidecar = manifest_path(job.manifest_entry)
        manifest = load_manifest(sidecar)
        if manifest is None:
            return error(404, f"manifest sidecar missing: {sidecar}")
        return Response(200, payload={
            "path": str(sidecar),
            "manifest": manifest,
            "problems": verify_manifest(sidecar, manifest),
        })

    return error(404, f"no such job endpoint: {leaf}")
