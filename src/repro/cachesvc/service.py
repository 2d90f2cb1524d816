"""The cache-manager daemon: one warm tier + single-flight over a root.

``repro cachesvc serve`` owns a shared cache root on behalf of every
worker that used to coordinate through per-entry lockfiles —
``run_matrix(parallel=N)`` pools, ``repro serve`` executors, and
separate CLI invocations.  Three things live here that the lockfile
dance could never provide:

* a **warm in-memory tier** (:class:`MemoryTier`): a byte-budgeted LRU
  of verified artefact blobs keyed by the existing content-addressed
  entry keys, so concurrent workers stop re-reading and re-verifying
  warm artefacts from disk;
* **cross-process single-flight**: the first requester of a missing key
  is granted a *lease* and compiles; every concurrent requester blocks
  on the server (no polling, no lockfiles) and receives the stored
  artefact the moment the holder puts it.  A lease whose holder died
  (PID probe for same-host clients, TTL for everything else) is broken
  and handed to a waiter — zero duplicate compiles, no wedged keys;
* **put verification**: every stored artefact's SHA-256 is re-derived
  before it is admitted to either tier, so a tampered or torn upload
  can never be laundered to other tenants;
* **certificates never narrow**: an artefact's verification
  certificate rides in its header, and the one disk write path
  (:meth:`~repro.analysis.diskcache.DiskCache.store_blob`) refuses a
  put narrower than the stored entry inside the entry lock, so no
  interleaving of clients can narrow it; the warm tier admits only
  landed bytes and never replaces a blob with a narrower one.

The wire format *is* the disk format (see
:func:`repro.analysis.diskcache.encode_entry`): the server treats
artefacts as opaque, integrity-checked bytes and never unpickles them.
Clients name their code-fingerprint shard explicitly, so one server
serves clients of any code version without re-deriving keys.

Protocol (all loopback-trusted, mirroring :mod:`repro.serve`):

========================================  =============================
``GET /healthz``                          liveness probe
``GET /stats``                            tier/lease/verify counters
``GET /entry?key=&shard=``                artefact blob or 404; add
                                          ``flight=1`` (+ ``wait=S``,
                                          ``pid=N``) to join the
                                          single-flight
``GET /manifest?key=&shard=``             the entry's provenance
                                          sidecar or 404
``PUT /entry``                            JSON envelope line + ``\\n`` +
                                          raw blob; verified, stored
                                          unless narrower, waiters
                                          released (``POST`` is an
                                          alias)
``POST /lease/release``                   abort a lease without storing
                                          (compute failed; waiters race
                                          for a fresh lease)
========================================  =============================

``shard`` is the client's code-fingerprint shard, ``fingerprint[:16]``:
exactly 16 lowercase hex characters, defaulting to the server's own.
Input is checked before it touches the root, and answered 400: any
other shard form (it names a directory under the root), a missing
``key``, a PUT envelope or release body that is not a JSON object with
a non-empty string ``key`` (and ``token``, for release), and a
malformed or non-finite ``wait``.  A body larger than
:data:`repro._http.MAX_BODY_BYTES` is answered 413 before it is read.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
import uuid
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..analysis.diskcache import (
    DEFAULT_ROOT,
    DiskCache,
    blob_certificate,
    blob_digest,
)
from .._http import (
    Query, Response, Server, error, param, query_float, query_int,
)
from ..resilience.manifest import load_manifest, manifest_path

#: Default warm-tier byte budget (256 MiB holds every artefact of a
#: default-preset suite several times over).
DEFAULT_MEMORY_BYTES = 256 << 20

#: Default lease TTL: a holder that neither stores nor releases within
#: this budget is presumed dead and its lease handed to a waiter.  Wide
#: enough for a paper-preset compile; same-host holder death is caught
#: much earlier by the PID probe.
DEFAULT_LEASE_SECONDS = 600.0

#: Hard cap on how long one flight GET may block its handler thread.
MAX_WAIT_SECONDS = 3600.0

#: Default TCP port (repro.serve's 8321 neighbourhood).
DEFAULT_PORT = 8344

#: Largest PID a lease may carry: the holder probe's ``os.kill`` takes a
#: C ``int``, so any other ``pid`` is treated as absent.
_MAX_PID = 2**31 - 1

#: The only shard form clients send: their code ``fingerprint[:16]``.
_SHARD = re.compile(r"[0-9a-f]{16}")
_BAD_SHARD = "bad 'shard': expected 16 lowercase hex characters"


def _width(blob: bytes) -> int:
    """A held blob's certificate (0 for a blob that is no entry)."""
    return blob_certificate(blob) or 0


class MemoryTier:
    """Byte-budgeted LRU of verified artefact blobs (thread-safe)."""

    def __init__(self, budget_bytes: int = DEFAULT_MEMORY_BYTES) -> None:
        self.budget = int(budget_bytes)
        self._entries: "OrderedDict[Tuple[str, str], bytes]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, tag: Tuple[str, str]) -> Optional[bytes]:
        with self._lock:
            blob = self._entries.get(tag)
            if blob is None:
                self.misses += 1
                return None
            self._entries.move_to_end(tag)
            self.hits += 1
            return blob

    def peek(self, tag: Tuple[str, str]) -> Optional[bytes]:
        """The held blob, without touching recency or the counters."""
        with self._lock:
            return self._entries.get(tag)

    def put(self, tag: Tuple[str, str], blob: bytes) -> bool:
        """Admit *blob*, evicting least-recently-used entries to budget.

        An artefact larger than the whole budget is refused (it would
        evict everything and then be evicted itself by the next put),
        and so is one whose certificate is narrower than the held blob's
        (a disk read racing a certificate upgrade).
        """
        size = len(blob)
        if size > self.budget:
            return False
        with self._lock:
            old = self._entries.get(tag)
            if old is not None:
                if _width(old) > _width(blob):
                    return False
                del self._entries[tag]
                self._bytes -= len(old)
            self._entries[tag] = blob
            self._bytes += size
            while self._bytes > self.budget and self._entries:
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= len(evicted)
                self.evictions += 1
            return True

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "budget_bytes": self.budget,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


@dataclass
class Lease:
    """One in-flight compile: who is computing a missing key."""

    token: str
    pid: Optional[int] = None
    deadline: float = 0.0
    granted_at: float = field(default_factory=time.time)

    def dead(self) -> bool:
        """Holder presumed gone: TTL expired, or same-host PID vanished."""
        if time.monotonic() >= self.deadline:
            return True
        if self.pid is not None:
            try:
                os.kill(self.pid, 0)
            except ProcessLookupError:
                return True
            except OSError:
                pass  # e.g. EPERM: alive, just not ours
        return False


#: The /stats counters, fixed so scrapers can rely on the key set.
COUNTER_KEYS = (
    "gets",
    "puts",
    "misses",
    "disk_hits",
    "leases",
    "flight_waits",
    "flight_served",
    "flight_timeouts",
    "lease_breaks",
    "duplicate_puts",
    "verify_rejects",
)


class CacheServer(Server):
    """HTTP threads over one warm tier, one disk root, one lease table."""

    service = "repro.cachesvc"

    def __init__(
        self,
        address,
        *,
        root: str = DEFAULT_ROOT,
        memory_bytes: int = DEFAULT_MEMORY_BYTES,
        lease_timeout: float = DEFAULT_LEASE_SECONDS,
        verbose: bool = False,
    ) -> None:
        self.disk = DiskCache(root)
        self.memory = MemoryTier(memory_bytes)
        self.lease_timeout = float(lease_timeout)
        #: Lease table and counters share one condition: a put or a
        #: release notifies every blocked flight GET.
        self._cond = threading.Condition()
        self._leases: Dict[Tuple[str, str], Lease] = {}
        self.counters: Dict[str, int] = {key: 0 for key in COUNTER_KEYS}
        super().__init__(address, verbose=verbose)

    def _stop(self) -> None:
        """Release every blocked flight GET."""
        with self._cond:
            self._leases.clear()
            self._cond.notify_all()

    def _count(self, key: str, value: int = 1) -> None:
        with self._cond:
            self.counters[key] += value

    # -- the cache protocol --------------------------------------------

    def fetch(
        self,
        key_repr: str,
        shard: str,
        *,
        flight: bool = False,
        wait: float = 0.0,
        pid: Optional[int] = None,
    ) -> Tuple[str, Optional[bytes], Optional[str]]:
        """Resolve one GET: ``(kind, data, tier)``.

        Kinds: ``"hit"`` (data = blob, tier = ``memory``/``disk``),
        ``"served"`` (a hit after waiting on another holder's lease),
        ``"miss"``, ``"lease"`` (data = the granted token — caller
        compiles), ``"timeout"`` (wait exhausted while another holder
        computes — caller compiles leaseless).

        The flight path loops: probe both tiers, then try to take the
        key's lease; a held lease means *someone is compiling* — block
        on the condition until the holder's put (or death) and probe
        again.  Handler threads are cheap (one per request), so a
        blocked waiter costs one idle thread, not a polling storm.
        """
        tag = (shard, key_repr)
        self._count("gets")
        deadline = time.monotonic() + min(max(wait, 0.0), MAX_WAIT_SECONDS)
        waited = False
        while True:
            blob, tier = self.memory.get(tag), "memory"
            if blob is None:
                blob, tier = self.disk.load_blob(key_repr, shard), "disk"
                if blob is not None:
                    self.memory.put(tag, blob)
                    self._count("disk_hits")
            if blob is not None:
                if not waited:
                    return "hit", blob, tier
                self._count("flight_served")
                return "served", blob, tier
            if not flight:
                self._count("misses")
                return "miss", None, None
            with self._cond:
                lease = self._leases.get(tag)
                if lease is not None and lease.dead():
                    del self._leases[tag]
                    self.counters["lease_breaks"] += 1
                    lease = None
                if lease is None:
                    token = uuid.uuid4().hex
                    self._leases[tag] = Lease(
                        token=token,
                        pid=pid,
                        deadline=time.monotonic() + self.lease_timeout,
                    )
                    self.counters["leases"] += 1
                    return "lease", token.encode(), None
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self.counters["flight_timeouts"] += 1
                    return "timeout", None, None
                if not waited:
                    self.counters["flight_waits"] += 1
                    waited = True
                # Wake on put/release, or poll the holder's health at
                # a coarse interval either way.
                self._cond.wait(timeout=min(0.25, remaining))

    def put(
        self,
        key_repr: str,
        shard: str,
        blob: bytes,
        *,
        sha256: Optional[str] = None,
        manifest: Optional[dict] = None,
        lease: Optional[str] = None,
    ) -> Tuple[bool, Optional[str]]:
        """Verify, persist, and admit one artefact; release its waiters.

        Returns ``(stored, error)``.  The artefact must carry the
        client's SHA-256 *and* pass
        :func:`~repro.analysis.diskcache.blob_certificate`; anything
        else is refused before touching either tier.  The disk write
        refuses a certificate narrower than the stored one (``stored``
        is then ``False``) and only landed bytes enter the warm tier.
        """
        if sha256 is not None and blob_digest(blob) != sha256:
            self._count("verify_rejects")
            return False, "artefact sha256 mismatch"
        certificate = blob_certificate(blob)
        if certificate is None:
            self._count("verify_rejects")
            return False, "artefact failed structural verification"
        tag = (shard, key_repr)
        held = blob_certificate(
            self.memory.peek(tag) or self.disk.load_blob(key_repr, shard)
        )
        stored = self.disk.store_blob(key_repr, blob, shard, manifest=manifest)
        if stored:
            self.memory.put(tag, blob)
        with self._cond:
            self.counters["puts"] += 1
            holder = self._leases.pop(tag, None)
            leased = holder is not None and lease == holder.token
            if held is not None and certificate <= held and not leased:
                # The artefact was already available (or being served)
                # and a leaseless writer recomputed it anyway — the
                # duplicate-compile count the hammer tests assert on.
                # Raising the stored certificate is no duplicate.
                self.counters["duplicate_puts"] += 1
            self._cond.notify_all()
        return stored, None

    def release(self, key_repr: str, shard: str, token: str) -> bool:
        """Abort a lease without storing (the holder's compute failed)."""
        tag = (shard, key_repr)
        with self._cond:
            lease = self._leases.get(tag)
            if lease is None or lease.token != token:
                return False
            del self._leases[tag]
            self._cond.notify_all()
            return True

    def manifest_payload(self, key_repr: str, shard: str) -> Optional[dict]:
        """The entry's ``.manifest.json`` sidecar, if one exists."""
        return load_manifest(
            manifest_path(self.disk.blob_path(key_repr, shard))
        )

    def stats_payload(self) -> dict:
        with self._cond:
            counters = dict(self.counters)
            active = len(self._leases)
        memory = self.memory.stats()
        disk = self.disk.stats()
        return {
            "service": "repro.cachesvc",
            "uptime_seconds": time.time() - self.started_at,
            "root": str(self.disk.root),
            "fingerprint": self.disk.fingerprint[:16],
            "entries": disk["entries"],
            "bytes": disk["bytes"],
            "memory": memory,
            "single_flight": {
                "active_leases": active,
                "leases": counters["leases"],
                "waits": counters["flight_waits"],
                "served": counters["flight_served"],
                "timeouts": counters["flight_timeouts"],
                "breaks": counters["lease_breaks"],
            },
            "tiers": {
                "memory_hits": memory["hits"],
                "disk_hits": counters["disk_hits"],
                "single_flight_waits": counters["flight_waits"],
                "verify_rejects": counters["verify_rejects"],
            },
            **counters,
        }

    # -- HTTP ----------------------------------------------------------

    def route(
        self, method: str, path: str, query: Query, body: bytes
    ) -> Response:
        if method == "GET":
            if path == "/healthz":
                return Response(200, {"service": self.service, "status": "ok"})
            if path == "/stats":
                return Response(200, self.stats_payload())
            if path == "/entry":
                return self._get_entry(query)
            if path == "/manifest":
                return self._get_manifest(query)
        elif path == "/entry":
            return self._put_entry(body)  # POST is a PUT alias (curl-friendly)
        elif method == "POST" and path == "/lease/release":
            return self._release(body)
        return error(404, f"no route {path!r}")

    def _shard(self, raw) -> Optional[str]:
        """The client's shard (default: ours), or ``None`` unless it is
        ``fingerprint[:16]``-shaped — it becomes a directory under the
        root, so ``../x`` or an absolute path must never get through."""
        shard = raw or self.disk.fingerprint[:16]
        if isinstance(shard, str) and _SHARD.fullmatch(shard):
            return shard
        return None

    def _get_entry(self, query: Query) -> Response:
        key = param(query, "key")
        if not key:
            return error(400, "missing 'key' parameter")
        shard = self._shard(param(query, "shard"))
        if shard is None:
            return error(400, _BAD_SHARD)
        wait = query_float(query, "wait", 0.0)
        if wait is None:
            return error(400, "bad 'wait' query parameter")
        pid = query_int(query, "pid", 0) or 0
        kind, data, tier = self.fetch(
            key, shard, flight=bool(param(query, "flight")), wait=wait,
            pid=pid if 0 < pid <= _MAX_PID else None,
        )
        if kind in ("hit", "served"):
            return Response(
                200,
                body=data,
                content_type="application/octet-stream",
                headers={
                    "X-Repro-Tier": tier,
                    "X-Repro-Served": str(int(kind == "served")),
                },
            )
        if kind == "lease":
            return Response(404, {"lease": data.decode()})
        if kind == "timeout":
            return Response(404, {"timeout": True})
        return error(404, "miss")

    def _get_manifest(self, query: Query) -> Response:
        shard = self._shard(param(query, "shard"))
        if shard is None:
            return error(400, _BAD_SHARD)
        manifest = self.manifest_payload(param(query, "key"), shard)
        if manifest is None:
            return error(404, "no manifest")
        return Response(200, manifest)

    def _put_entry(self, body: bytes) -> Response:
        newline = body.find(b"\n")
        if newline < 0:
            return error(400, "expected envelope line + blob")
        try:
            envelope = json.loads(body[:newline].decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return error(400, "envelope is not JSON")
        if not _has_text(envelope, "key"):
            return error(400, "envelope is not an object with a 'key'")
        shard = self._shard(envelope.get("shard"))
        if shard is None:
            return error(400, _BAD_SHARD)
        stored, problem = self.put(
            envelope["key"],
            shard,
            body[newline + 1:],
            sha256=envelope.get("sha256"),
            manifest=envelope.get("manifest"),
            lease=envelope.get("lease"),
        )
        if problem is not None:
            return error(400, problem)
        return Response(200, {"stored": stored})

    def _release(self, body: bytes) -> Response:
        try:
            payload = json.loads(body.decode("utf-8") or "{}")
        except (ValueError, UnicodeDecodeError):
            return error(400, "request body is not JSON")
        if not _has_text(payload, "key", "token"):
            return error(400, "expected {'key', 'shard', 'token'}")
        shard = self._shard(payload.get("shard"))
        if shard is None:
            return error(400, _BAD_SHARD)
        released = self.release(payload["key"], shard, payload["token"])
        return Response(200, {"released": released})


def _has_text(payload, *names: str) -> bool:
    """*payload* is a JSON object whose *names* are non-empty strings."""
    return isinstance(payload, dict) and all(
        isinstance(payload.get(name), str) and payload[name] for name in names
    )


def create_cache_server(
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    *,
    root: str = DEFAULT_ROOT,
    memory_bytes: int = DEFAULT_MEMORY_BYTES,
    lease_timeout: float = DEFAULT_LEASE_SECONDS,
    verbose: bool = False,
) -> CacheServer:
    """Build a ready :class:`CacheServer`.

    ``port=0`` binds an ephemeral port — read it back from
    ``server.server_address`` (tests and the example do).
    """
    return CacheServer(
        (host, port),
        root=root,
        memory_bytes=memory_bytes,
        lease_timeout=lease_timeout,
        verbose=verbose,
    )
