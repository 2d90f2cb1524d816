"""repro.serve — compilation-as-a-service over Session/Flow.

The batch pipeline, exposed as a dependency-free REST service on the
stdlib ``http.server``:

* ``POST /jobs`` submits a (source|netlist|frontend, config, arch, opt)
  job; identical in-flight submissions coalesce to one compile;
* ``GET /jobs/<id>`` polls status, ``GET /jobs/<id>/events`` streams
  the pipeline's :class:`~repro.flow.StageEvent` feed as an NDJSON
  long-poll;
* ``GET /jobs/<id>/artifact`` and ``…/manifest`` fetch the compiled
  program listing and its provenance sidecar;
* ``GET /stats`` reports queue depth, job tallies, and both cache
  tiers' counters.

Jobs run behind a background queue in front of one long-lived warm
:class:`~repro.flow.Session` — isolated in supervised worker processes
(crash respawn, deadlines, retry; the ``run_matrix`` machinery) or
inline on executor threads.  Start it from the CLI (``repro serve``)
or embed it with :func:`create_server`.
"""

from .._http import Response
from .app import ReproServer, create_server
from .jobstore import Job, JobStore
from .queue import JobQueue
from .routes import handle, job_payload, stats_payload
from .schemas import JobSpec, SchemaError, parse_job, summarize_compilation

__all__ = [
    "Job",
    "JobQueue",
    "JobSpec",
    "JobStore",
    "ReproServer",
    "Response",
    "SchemaError",
    "create_server",
    "handle",
    "job_payload",
    "parse_job",
    "stats_payload",
    "summarize_compilation",
]
