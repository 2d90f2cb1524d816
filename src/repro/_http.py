"""Request-body reading shared by the stdlib HTTP handlers of
:mod:`repro.serve` and :mod:`repro.cachesvc`."""

from __future__ import annotations

from http.server import BaseHTTPRequestHandler


class BadContentLength(ValueError):
    """The request's ``Content-Length`` is not a non-negative integer."""


def read_body(handler: BaseHTTPRequestHandler) -> bytes:
    """The request body; empty when ``Content-Length`` is absent.

    A non-numeric or negative length raises :class:`BadContentLength`
    before anything is read: ``rfile.read(-1)`` would block until the
    client hangs up.  Handlers answer it with 400.
    """
    raw = handler.headers.get("Content-Length")
    if not raw:
        return b""
    try:
        length = int(raw)
    except ValueError:
        length = -1
    if length < 0:
        raise BadContentLength(f"bad Content-Length header {raw!r}")
    return handler.rfile.read(length) if length else b""
