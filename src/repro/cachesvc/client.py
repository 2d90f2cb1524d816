"""The thin client side of :mod:`repro.cachesvc`.

:class:`RemoteCache` duck-types :class:`~repro.analysis.diskcache.DiskCache`
— ``load`` / ``store`` / ``entry_path`` / ``stats`` plus the session
counters — so :class:`~repro.analysis.runner.ExperimentCache` and every
layer above it (sessions, flows, ``run_matrix`` workers, ``repro
serve``) switch to a shared cache server by construction alone:
``Session(cache_url=...)`` / ``--cache-url`` / ``$REPRO_CACHE_URL``.

Two things distinguish it from the disk handle it replaces:

* :meth:`RemoteCache.flight` — the cross-process single-flight window.
  Compute paths open it around a miss: the first process gets a lease
  and compiles, every other process blocks on the server and receives
  the stored payload instead of recompiling.  The window is the
  stage's one read; on a plain :class:`DiskCache` it is a plain load,
  and the per-entry lockfile keeps racing writers apart.
* **degradation**: a connection failure (or an injected ``cache_io``
  fault — the hook fires in every request) marks the server down for
  :attr:`retry_seconds` and degrades to the local fallback root (when
  one is configured) or to plain misses — the experiment never depends
  on the cache service being alive.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
import urllib.error
import urllib.request
from contextlib import contextmanager
from typing import Dict, Optional, Tuple
from urllib.parse import urlencode

from .._env import env_value
from ..analysis.diskcache import (
    DEFAULT_ROOT,
    DiskCache,
    _key_job,
    blob_digest,
    code_fingerprint,
    decode_entry,
    encode_entry,
)
from ..resilience import events as res_events
from ..resilience import faults as res_faults
from ..resilience.timeouts import checkpoint

#: Environment variable selecting a shared cache server.
CACHE_URL_ENV_VAR = "REPRO_CACHE_URL"


def resolve_cache_url(
    explicit: Optional[str] = None,
    *,
    default: Optional[str] = None,
) -> Optional[str]:
    """Cache-server resolution: explicit > ``$REPRO_CACHE_URL`` > *default*."""
    return str(explicit) if explicit else env_value(CACHE_URL_ENV_VAR) or default


class RemoteCache:
    """A DiskCache-shaped handle onto a running :class:`CacheServer`.

    *root* names a local directory used two ways: as the degradation
    fallback when the server is unreachable, and for
    :meth:`entry_path` (manifest annotation needs a filesystem path).
    With the server and its clients sharing one filesystem — the
    ``run_matrix`` and CI shapes — point *root* at the server's root
    and a server outage degrades to exactly the old lockfile behaviour.
    """

    def __init__(
        self,
        url: str,
        *,
        root: "str | os.PathLike[str] | None" = None,
        fingerprint: Optional[str] = None,
        timeout: float = 10.0,
        flight_wait: float = 600.0,
        retry_seconds: float = 30.0,
    ) -> None:
        self.url = str(url).rstrip("/")
        self.fingerprint = fingerprint or code_fingerprint()
        self.shard = self.fingerprint[:16]
        self.root = pathlib.Path(root) if root else None
        self._fallback = (
            DiskCache(self.root, fingerprint=self.fingerprint)
            if self.root is not None
            else None
        )
        # entry_path must always resolve (manifest annotation), even
        # without a fallback root — then it points at the conventional
        # default root, where append-events simply no-ops.
        self._pathing = self._fallback or DiskCache(
            DEFAULT_ROOT, fingerprint=self.fingerprint
        )
        self.timeout = float(timeout)
        self.flight_wait = float(flight_wait)
        self.retry_seconds = float(retry_seconds)
        self._down_until = 0.0
        self._hits = 0
        self._misses = 0
        # Remote tier counters (see tier_counters).
        self.memory_tier_hits = 0
        self.disk_tier_hits = 0
        self.flight_waits = 0
        self.fallbacks = 0
        # Lease tokens held by open flight windows, keyed by key repr.
        self._lease_tokens: Dict[str, str] = {}

    # -- DiskCache-compatible counters ---------------------------------

    @property
    def hits(self) -> int:
        fallback = self._fallback.hits if self._fallback is not None else 0
        return self._hits + fallback

    @property
    def misses(self) -> int:
        fallback = self._fallback.misses if self._fallback is not None else 0
        return self._misses + fallback

    @property
    def lock_skips(self) -> int:
        return self._fallback.lock_skips if self._fallback is not None else 0

    def tier_counters(self) -> Dict[str, int]:
        """The remote-tier counters folded into
        :meth:`ExperimentCache.counters` and ``BENCH_suite.json``."""
        return {
            "remote_memory_hits": self.memory_tier_hits,
            "remote_disk_hits": self.disk_tier_hits,
            "remote_waits": self.flight_waits,
            "remote_fallbacks": self.fallbacks,
        }

    # -- transport -----------------------------------------------------

    def _down(self) -> bool:
        return time.monotonic() < self._down_until

    def _mark_down(self, error: BaseException, job: Optional[str]) -> None:
        """Degrade to direct disk access for a cooldown window."""
        self._down_until = time.monotonic() + self.retry_seconds
        self.fallbacks += 1
        res_events.record(
            "cache_fallback", job=job, url=self.url, error=repr(error)
        )

    def _request(
        self,
        method: str,
        path: str,
        *,
        query: Optional[dict] = None,
        body: Optional[bytes] = None,
        timeout: Optional[float] = None,
        job: Optional[str] = None,
    ) -> Tuple[int, bytes, Dict[str, str]]:
        """One HTTP round-trip: ``(status, body, headers)``.

        Raises ``OSError`` on connection-level failure (the caller
        degrades); HTTP error statuses are returned, not raised.  The
        ``cache_io`` chaos hook fires here — in the *client*, before the
        socket — so injected faults exercise exactly the degradation
        path a dead server would.
        """
        res_faults.remote_io_fault(job)
        url = self.url + path
        if query:
            url += "?" + urlencode(query)
        request = urllib.request.Request(url, data=body, method=method)
        if body is not None:
            request.add_header("Content-Type", "application/octet-stream")
        try:
            with urllib.request.urlopen(
                request, timeout=timeout or self.timeout
            ) as response:
                return (
                    response.status,
                    response.read(),
                    dict(response.headers.items()),
                )
        except urllib.error.HTTPError as error:
            with error:
                return error.code, error.read(), dict(error.headers.items())

    # -- read/write ----------------------------------------------------

    def _read(self, key: Tuple, query=None, timeout=None):
        """One read of *key* — the ``GET /entry`` of :meth:`load` and,
        with the flight *query*, of :meth:`flight`: ``(payload, lease
        token)``.  A payload counts a hit, anything else a miss; a bad
        server can only ever produce a miss, because the client
        re-derives the entry digest and key.  A server that is down
        degrades to the fallback root, when there is one.
        """
        key_repr = repr(key)
        job = _key_job(key)
        if not self._down():
            try:
                status, data, headers = self._request(
                    "GET",
                    "/entry",
                    query={
                        "key": key_repr, "shard": self.shard, **(query or {})
                    },
                    timeout=timeout,
                    job=job,
                )
            except OSError as error:
                self._mark_down(error, job)
            else:
                payload = (
                    decode_entry(data, key_repr) if status == 200 else None
                )
                if payload is not None:
                    self._hits += 1
                    if headers.get("X-Repro-Tier") == "memory":
                        self.memory_tier_hits += 1
                    else:
                        self.disk_tier_hits += 1
                    if headers.get("X-Repro-Served") == "1":
                        self.flight_waits += 1
                    return payload, None
                self._misses += 1
                try:  # a flight GET's 404 may grant the lease
                    answer = json.loads(data) if status == 404 else {}
                    lease = answer.get("lease")
                except (ValueError, AttributeError):
                    lease = None
                return None, lease
        if self._fallback is not None:
            return self._fallback.load(key), None
        self._misses += 1
        return None, None

    def load(self, key: Tuple):
        """Return the stored payload for *key*, or ``None``."""
        return self._read(key)[0]

    def store(
        self, key: Tuple, payload, *, certificate: int = 0, manifest=None
    ) -> None:
        """Persist *payload* under *key* through the server: one PUT
        (best-effort).  The server's disk write refuses a narrower
        *certificate* than it holds (see
        :meth:`~repro.analysis.diskcache.DiskCache.store_blob`); an
        accepted PUT also ends the open flight window's lease."""
        key_repr = repr(key)
        job = _key_job(key)
        if not self._down():
            try:
                blob = encode_entry(key_repr, payload, certificate)
                envelope = {
                    "key": key_repr,
                    "shard": self.shard,
                    "sha256": blob_digest(blob),
                    "lease": self._lease_tokens.get(key_repr),
                    "manifest": manifest,
                }
                body = (
                    json.dumps(envelope, default=str).encode("utf-8")
                    + b"\n"
                    + blob
                )
                status, _data, _headers = self._request(
                    "PUT", "/entry", body=body, job=job
                )
                if status == 200:
                    # The server's put dropped the lease with it.
                    self._lease_tokens.pop(key_repr, None)
                return
            except OSError as error:
                self._mark_down(error, job)
            except Exception:
                # Unpicklable payloads and envelope failures degrade to
                # "not persisted", mirroring DiskCache.store.
                return
        if self._fallback is not None:
            self._fallback.store(
                key, payload, certificate=certificate, manifest=manifest
            )

    # -- single-flight -------------------------------------------------

    @contextmanager
    def flight(self, key: Tuple):
        """The cross-process single-flight window around one compute,
        and the stage's one read of *key*.

        Yields the stored payload (the caller adopts it), waiting while
        another process holds the key's lease, or ``None``: *we* hold
        the lease (or the wait timed out) and must compute + store.
        Leaving the window releases a lease that no accepted PUT
        consumed, so a failed compute hands the key to the next waiter
        instead of wedging it until the TTL.  The wait never outlasts
        the active stage budget.
        """
        key_repr = repr(key)
        wait = checkpoint(self.flight_wait)
        payload, token = self._read(
            key,
            {"flight": "1", "wait": str(wait), "pid": str(os.getpid())},
            timeout=wait + 30.0,
        )
        if token is not None:
            self._lease_tokens[key_repr] = token
        try:
            yield payload
        finally:
            if token is not None and self._lease_tokens.pop(key_repr, None):
                try:
                    self._request(
                        "POST",
                        "/lease/release",
                        body=json.dumps(
                            {
                                "key": key_repr,
                                "shard": self.shard,
                                "token": token,
                            }
                        ).encode("utf-8"),
                        job=_key_job(key),
                    )
                except OSError as error:
                    self._mark_down(error, _key_job(key))

    # -- DiskCache-compatible surface ----------------------------------

    def entry_path(self, key: Tuple) -> pathlib.Path:
        """Where *key* lives on the shared filesystem, when there is one.

        Meaningful when the client and server share a root (the
        ``run_matrix``/CI shape); otherwise a conventional local path
        whose manifest operations harmlessly no-op.
        """
        return self._pathing.entry_path(key)

    def stats(self) -> dict:
        """DiskCache-shaped stats plus the server's ``/stats`` payload."""
        base = {
            "url": self.url,
            "fingerprint": self.shard,
            "session_hits": self.hits,
            "session_misses": self.misses,
            "session_lock_skips": self.lock_skips,
            **self.tier_counters(),
        }
        server = self.server_stats()
        if server is not None:
            base["root"] = server.get("root")
            base["entries"] = server.get("entries")
            base["server"] = server
        elif self._fallback is not None:
            base.update(self._fallback.stats())
        return base

    def server_stats(self) -> Optional[dict]:
        """The raw server ``/stats`` payload, or ``None`` when down."""
        if self._down():
            return None
        try:
            status, data, _headers = self._request("GET", "/stats")
            if status != 200:
                return None
            return json.loads(data.decode("utf-8"))
        except (OSError, ValueError) as error:
            self._mark_down(error, None)
            return None
