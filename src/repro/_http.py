"""The one stdlib HTTP layer under :mod:`repro.serve` and
:mod:`repro.cachesvc`.

Each daemon is a :class:`Server` subclass that implements
``route(method, path, query, body) -> Response``.  :class:`Handler`
owns everything between the socket and that call: the body read (bad
length 400, oversize 413), JSON / text / raw / empty / NDJSON-stream
responses, the 500 boundary, and client disconnects.  The query
helpers check untrusted parameters at the same boundary.
"""

from __future__ import annotations

import json
import math
import sys
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Iterator, List, Optional
from urllib.parse import parse_qs, urlsplit

#: Largest request body either daemon accepts (413 above).  The largest
#: default-preset artefact is about 0.18 MB and the default warm tier
#: holds at most 256 MiB, so no legitimate upload comes near it.
MAX_BODY_BYTES = 256 << 20

Query = Dict[str, List[str]]


@dataclass
class Response:
    """What one route produced, transport-agnostic.

    The body is the first of ``stream`` (NDJSON, written incrementally
    and ended by connection close), ``body`` (raw bytes), ``text``, and
    ``payload`` (JSON) that is set.  ``content_type=None`` sends no
    ``Content-Type`` header (bodyless answers).
    """

    status: int
    payload: Optional[object] = None
    stream: Optional[Iterator[bytes]] = None
    text: Optional[str] = None
    body: Optional[bytes] = None
    content_type: Optional[str] = "application/json"
    headers: Dict[str, str] = field(default_factory=dict)

    def encode(self) -> bytes:
        if self.body is not None:
            return self.body
        if self.text is not None:
            return self.text.encode("utf-8")
        return json.dumps(
            self.payload, indent=2, default=str
        ).encode("utf-8") + b"\n"


def error(status: int, message: str) -> Response:
    """A JSON ``{"error": message}`` answer."""
    return Response(status, payload={"error": message})


def param(
    query: Query, name: str, default: Optional[str] = ""
) -> Optional[str]:
    """The first value of query parameter *name*, else *default*."""
    values = query.get(name)
    return values[0] if values else default


def query_int(query: Query, name: str, default: int) -> Optional[int]:
    """Parameter *name* as an int; *default* when absent, ``None`` when
    malformed (the caller answers 400)."""
    raw = param(query, name, None)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        return None


def query_float(query: Query, name: str, default: float) -> Optional[float]:
    """Parameter *name* as a finite float; *default* when absent,
    ``None`` when malformed or non-finite (the caller answers 400).

    NaN would slip past every range check (``nan < 0`` is false) and
    turn a deadline into one that never arrives.
    """
    raw = param(query, name, None)
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


class Handler(BaseHTTPRequestHandler):
    """Thin translation layer between HTTP and ``Server.route``."""

    server: "Server"
    protocol_version = "HTTP/1.0"  # streams end by connection close

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.server.verbose:
            sys.stderr.write(
                "%s %s - %s\n"
                % (self.server.service, self.address_string(), format % args)
            )

    def _dispatch(self, method: str) -> None:
        # The length is checked before a byte of the body is read:
        # ``rfile.read(-1)`` would block until the client hangs up, and
        # an oversize read would buffer it all in memory first.
        raw = self.headers.get("Content-Length") or "0"
        try:
            length = int(raw)
        except ValueError:
            length = -1
        if length < 0:
            response = error(400, f"bad Content-Length header {raw!r}")
        elif length > MAX_BODY_BYTES:
            response = error(
                413, f"request body of {length} bytes exceeds the "
                     f"{MAX_BODY_BYTES}-byte limit"
            )
        else:
            url = urlsplit(self.path)
            try:
                body = self.rfile.read(length) if length else b""
                response = self.server.route(
                    method, url.path, parse_qs(url.query), body
                )
            except Exception as exc:  # noqa: BLE001 — server boundary
                response = error(
                    500, f"internal error: {type(exc).__name__}: {exc}"
                )
        try:
            self._send(response)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; nothing to clean up

    def _send(self, response: Response) -> None:
        body = None if response.stream is not None else response.encode()
        self.send_response(response.status)
        if response.content_type is not None:
            self.send_header("Content-Type", response.content_type)
        if body is not None:
            self.send_header("Content-Length", str(len(body)))
        for key, value in response.headers.items():
            self.send_header(key, value)
        self.end_headers()
        if body is not None:
            self.wfile.write(body)
            return
        for chunk in response.stream:
            self.wfile.write(chunk)
            self.wfile.flush()

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        self._dispatch("GET")

    def do_PUT(self) -> None:  # noqa: N802 — http.server API
        self._dispatch("PUT")

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        self._dispatch("POST")


class Server(ThreadingHTTPServer):
    """Threaded HTTP server base: subclasses implement :meth:`route`
    and, when handler threads can block on them, :meth:`_stop`."""

    daemon_threads = True
    #: Prefix of the verbose request log lines.
    service = "repro"

    def __init__(self, address, *, verbose: bool = False) -> None:
        self.verbose = bool(verbose)
        self.started_at = time.time()
        self._serving = False
        super().__init__(address, Handler)

    def route(
        self, method: str, path: str, query: Query, body: bytes
    ) -> Response:
        raise NotImplementedError

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        self._serving = True
        try:
            super().serve_forever(poll_interval)
        finally:
            self._serving = False

    def request_shutdown(self) -> None:
        """Stop accepting requests, from a handler thread.

        ``shutdown()`` deadlocks when called from the serving thread,
        so the stop runs on a helper thread after the response flushes.
        """
        threading.Thread(target=self.shutdown, daemon=True).start()

    def _stop(self) -> None:
        """Subclass hook run first by :meth:`close`: release whatever
        handler threads may be blocked on."""

    def close(self) -> None:
        """Run the stop hook, stop the serve loop, free the socket.

        Idempotent.  Without the ``shutdown()`` a ``serve_forever``
        thread would spin on the closed listening socket forever;
        ``shutdown()`` unguarded would deadlock when nothing is serving
        (it waits on an event only ``serve_forever`` sets).
        """
        self._stop()
        if self._serving:
            self.shutdown()
        self.server_close()
