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
  the stored payload instead of recompiling.  On a plain
  :class:`DiskCache` the same call sites get a no-op window and fall
  back to the per-entry lockfile dance.
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

    def load(self, key: Tuple):
        """Return the stored payload for *key*, or ``None``.

        Server-side corruption, a tampered response, and a key mismatch
        all decode to ``None`` — the client re-derives the entry digest
        and key, so a bad server can only ever produce a miss.
        """
        key_repr = repr(key)
        job = _key_job(key)
        if not self._down():
            try:
                status, data, headers = self._request(
                    "GET",
                    "/entry",
                    query={"key": key_repr, "shard": self.shard},
                    job=job,
                )
            except OSError as error:
                self._mark_down(error, job)
            else:
                if status == 200:
                    payload = decode_entry(data, key_repr)
                    if payload is None:
                        self._misses += 1
                        return None
                    self._hits += 1
                    if headers.get("X-Repro-Tier") == "memory":
                        self.memory_tier_hits += 1
                    else:
                        self.disk_tier_hits += 1
                    return payload
                self._misses += 1
                return None
        if self._fallback is not None:
            return self._fallback.load(key)
        self._misses += 1
        return None

    def store(
        self, key: Tuple, payload, *, certificate: int = 0, manifest=None
    ) -> None:
        """Persist *payload* under *key* through the server: one PUT
        (best-effort).  The server's disk write refuses a narrower
        *certificate* than it holds (see
        :meth:`~repro.analysis.diskcache.DiskCache.store_blob`)."""
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
                self._request("PUT", "/entry", body=body, job=job)
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
        """The cross-process single-flight window around one compute.

        Yields the payload another process stored while we would have
        been computing (the caller adopts it and skips the work), or
        ``None`` — meaning *we* hold the lease (or the server is
        unreachable / the wait timed out) and must compute + store.
        Leaving the window releases an unresolved lease, so a failed
        compute hands the key to the next waiter instead of wedging it
        until the TTL.  The wait never outlasts the active stage budget.
        """
        key_repr = repr(key)
        job = _key_job(key)
        if self._down():
            yield None
            return
        wait = checkpoint(self.flight_wait)
        token: Optional[str] = None
        resolved = None
        try:
            status, data, headers = self._request(
                "GET",
                "/entry",
                query={
                    "key": key_repr,
                    "shard": self.shard,
                    "flight": "1",
                    "wait": str(wait),
                    "pid": str(os.getpid()),
                },
                timeout=wait + 30.0,
                job=job,
            )
            if status == 200:
                resolved = decode_entry(data, key_repr)
                if resolved is not None:
                    self._hits += 1
                    self.flight_waits += 1
                    if headers.get("X-Repro-Tier") == "memory":
                        self.memory_tier_hits += 1
                    else:
                        self.disk_tier_hits += 1
            elif status == 404 and data:
                try:
                    answer = json.loads(data.decode("utf-8"))
                except ValueError:
                    answer = {}
                token = answer.get("lease")
                if token:
                    self._lease_tokens[key_repr] = token
        except OSError as error:
            self._mark_down(error, job)
            yield None
            return
        try:
            yield resolved
        finally:
            if token is not None:
                self._lease_tokens.pop(key_repr, None)
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
                        job=job,
                    )
                except OSError as error:
                    self._mark_down(error, job)

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
