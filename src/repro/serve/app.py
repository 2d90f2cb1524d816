"""HTTP front of :mod:`repro.serve`: one :class:`repro._http.Server`.

No framework, no dependencies — :class:`ReproServer` decodes the JSON
request body, hands the request to :func:`repro.serve.routes.handle`,
and the shared :mod:`repro._http` handler writes the returned
:class:`~repro._http.Response` back out (JSON bodies with
``Content-Length``; NDJSON event streams written incrementally and
terminated by connection close).

Concurrent jobs simulating the same warm graph do not serialize in the
kernel: it holds no lock and no shared buffer, and its memo entries
(see :mod:`repro.mig.kernel`) are whole values swapped in one store.

::

    from repro.flow import Session
    from repro.serve import create_server

    server = create_server("127.0.0.1", 8321,
                           session=Session(cache_dir=".repro_cache"))
    server.serve_forever()          # Ctrl-C to stop
    server.close()
"""

from __future__ import annotations

import json
from typing import Optional

from .._http import Query, Response, Server, error
from ..resilience import RetryPolicy
from .queue import JobQueue
from . import routes


class ReproServer(Server):
    """The compilation service: HTTP threads over one shared Session.

    Handler threads only read the store and enqueue jobs; all
    compilation happens on the queue's executors, so a slow compile
    never blocks polling clients.
    """

    service = "repro.serve"

    def __init__(
        self,
        address,
        *,
        session=None,
        workers: int = 2,
        isolate: bool = True,
        retry: Optional[RetryPolicy] = None,
        allow_frontend: bool = False,
        allow_shutdown: bool = False,
        verbose: bool = False,
    ) -> None:
        from ..flow.session import Session  # deferred: flow imports runner

        self.session = session if session is not None else Session()
        self.queue = JobQueue(
            self.session, workers=workers, isolate=isolate, retry=retry
        )
        self.allow_frontend = bool(allow_frontend)
        self.allow_shutdown = bool(allow_shutdown)
        super().__init__(address, verbose=verbose)
        self.queue.start()

    @property
    def store(self):
        return self.queue.store

    def route(
        self, method: str, path: str, query: Query, body: bytes
    ) -> Response:
        try:
            payload = json.loads(body.decode("utf-8")) if body else None
        except (ValueError, UnicodeDecodeError):
            return error(400, "request body is not JSON")
        return routes.handle(self, method, path, query, payload)

    def _stop(self) -> None:
        """Stop executors and release event waiters."""
        self.queue.stop()


def create_server(
    host: str = "127.0.0.1",
    port: int = 8321,
    *,
    session=None,
    workers: int = 2,
    isolate: bool = True,
    retry: Optional[RetryPolicy] = None,
    allow_frontend: bool = False,
    allow_shutdown: bool = False,
    verbose: bool = False,
) -> ReproServer:
    """Build a ready :class:`ReproServer` (executors already running).

    ``port=0`` binds an ephemeral port — read it back from
    ``server.server_address`` (tests and the example do).
    """
    return ReproServer(
        (host, port),
        session=session,
        workers=workers,
        isolate=isolate,
        retry=retry,
        allow_frontend=allow_frontend,
        allow_shutdown=allow_shutdown,
        verbose=verbose,
    )
