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
  can never be laundered to other tenants.

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
                                          ``probe=1`` for a bodyless
                                          contains check, ``flight=1``
                                          (+ ``wait=S``, ``pid=N``) to
                                          join the single-flight
``PUT /entry``                            JSON envelope line + ``\\n`` +
                                          raw blob; verified, stored,
                                          waiters released
``POST /lease/release``                   abort a lease without storing
                                          (compute failed; waiters race
                                          for a fresh lease)
========================================  =============================
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
import uuid
from collections import OrderedDict
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..analysis.diskcache import (
    DEFAULT_ROOT,
    DiskCache,
    blob_digest,
    verify_blob,
)
from .._http import BadContentLength, read_body
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

    def contains(self, tag: Tuple[str, str]) -> bool:
        with self._lock:
            return tag in self._entries

    def put(self, tag: Tuple[str, str], blob: bytes) -> bool:
        """Admit *blob*, evicting least-recently-used entries to budget.

        An artefact larger than the whole budget is refused (it would
        evict everything and then be evicted itself by the next put).
        """
        size = len(blob)
        if size > self.budget:
            return False
        with self._lock:
            old = self._entries.pop(tag, None)
            if old is not None:
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


class CacheServer(ThreadingHTTPServer):
    """HTTP threads over one warm tier, one disk root, one lease table."""

    daemon_threads = True

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
        self.verbose = bool(verbose)
        self.started_at = time.time()
        #: Lease table and counters share one condition: a put or a
        #: release notifies every blocked flight GET.
        self._cond = threading.Condition()
        self._leases: Dict[Tuple[str, str], Lease] = {}
        self.counters: Dict[str, int] = {key: 0 for key in COUNTER_KEYS}
        self._serving = False
        super().__init__(address, _Handler)

    # -- plumbing ------------------------------------------------------

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
        """Stop serving, from a handler thread (see ReproServer)."""
        threading.Thread(target=self.shutdown, daemon=True).start()

    def close(self) -> None:
        """Release waiters, stop the serve loop, free the socket.

        Idempotent.  Without the ``shutdown()`` a ``serve_forever``
        thread would spin on the closed listening socket forever;
        ``shutdown()`` unguarded would deadlock when nothing is serving
        (it waits on an event only ``serve_forever`` sets).
        """
        with self._cond:
            self._leases.clear()
            self._cond.notify_all()
        if self._serving:
            self.shutdown()
        self.server_close()

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
        ``"miss"``, ``"lease"`` (data = the granted token — caller
        compiles), ``"timeout"`` (wait exhausted while another holder
        computes — caller compiles leaseless).

        The flight path loops: probe both tiers, then try to take the
        key's lease; a held lease means *someone is compiling* — block
        on the condition until the holder's put (or death) and probe
        again.  Handler threads are cheap (ThreadingHTTPServer), so a
        blocked waiter costs one idle thread, not a polling storm.
        """
        tag = (shard, key_repr)
        self._count("gets")
        deadline = time.monotonic() + min(max(wait, 0.0), MAX_WAIT_SECONDS)
        waited = False
        while True:
            blob = self.memory.get(tag)
            if blob is not None:
                if waited:
                    self._count("flight_served")
                return "hit", blob, "memory"
            blob = self.disk.load_blob(key_repr, shard)
            if blob is not None:
                self.memory.put(tag, blob)
                self._count("disk_hits")
                if waited:
                    self._count("flight_served")
                return "hit", blob, "disk"
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
        mode: str = "store",
    ) -> Tuple[bool, Optional[str]]:
        """Verify, persist, and admit one artefact; release its waiters.

        Returns ``(stored, error)``.  The artefact must carry the
        client's SHA-256 *and* decode structurally
        (:func:`~repro.analysis.diskcache.verify_blob`); anything else
        is refused before touching either tier.  ``mode="upgrade"``
        marks a deliberate overwrite (a verification-certificate
        upgrade) so it never counts as a duplicate compile.
        """
        if sha256 is not None and blob_digest(blob) != sha256:
            self._count("verify_rejects")
            return False, "artefact sha256 mismatch"
        if not verify_blob(blob):
            self._count("verify_rejects")
            return False, "artefact failed structural verification"
        tag = (shard, key_repr)
        existed = self.memory.contains(tag) or self.disk.blob_path(
            key_repr, shard
        ).is_file()
        stored = self.disk.store_blob(key_repr, blob, shard, manifest=manifest)
        self.memory.put(tag, blob)
        with self._cond:
            self.counters["puts"] += 1
            holder = self._leases.pop(tag, None)
            held = holder is not None and lease == holder.token
            if existed and mode == "store" and not held:
                # The artefact was already available (or being served)
                # and a leaseless writer recomputed it anyway — the
                # duplicate-compile count the hammer tests assert on.
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


class _Handler(BaseHTTPRequestHandler):
    """Thin translation layer between HTTP and the server methods."""

    server: "CacheServer"
    protocol_version = "HTTP/1.0"

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.server.verbose:
            sys.stderr.write(
                "repro.cachesvc %s - %s\n"
                % (self.address_string(), format % args)
            )

    # -- responses -----------------------------------------------------

    def _send_json(self, status: int, payload: dict, **headers) -> None:
        body = json.dumps(payload, indent=2, default=str).encode() + b"\n"
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for key, value in headers.items():
            self.send_header(key.replace("_", "-"), value)
        self.end_headers()
        self.wfile.write(body)

    def _send_blob(self, blob: bytes, **headers) -> None:
        self.send_response(200)
        self.send_header("Content-Type", "application/octet-stream")
        self.send_header("Content-Length", str(len(blob)))
        for key, value in headers.items():
            self.send_header(key.replace("_", "-"), value)
        self.end_headers()
        self.wfile.write(blob)

    def _send_empty(self, status: int) -> None:
        self.send_response(status)
        self.send_header("Content-Length", "0")
        self.end_headers()

    # -- dispatch ------------------------------------------------------

    def _param(self, query, name: str, default: str = "") -> str:
        values = query.get(name)
        return values[0] if values else default

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        url = urlsplit(self.path)
        query = parse_qs(url.query)
        try:
            if url.path == "/healthz":
                self._send_json(
                    200, {"service": "repro.cachesvc", "status": "ok"}
                )
            elif url.path == "/stats":
                self._send_json(200, self.server.stats_payload())
            elif url.path == "/entry":
                self._get_entry(query)
            elif url.path == "/manifest":
                key = self._param(query, "key")
                shard = self._param(
                    query, "shard", self.server.disk.fingerprint[:16]
                )
                manifest = self.server.manifest_payload(key, shard)
                if manifest is None:
                    self._send_json(404, {"error": "no manifest"})
                else:
                    self._send_json(200, manifest)
            else:
                self._send_json(404, {"error": f"no route {url.path!r}"})
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; nothing to clean up
        except Exception as error:  # noqa: BLE001 — server boundary
            self._send_json(
                500,
                {"error": f"internal error: {type(error).__name__}: {error}"},
            )

    def _get_entry(self, query) -> None:
        key = self._param(query, "key")
        if not key:
            self._send_json(400, {"error": "missing 'key' parameter"})
            return
        shard = self._param(query, "shard", self.server.disk.fingerprint[:16])
        if self._param(query, "probe"):
            tag = (shard, key)
            present = self.server.memory.contains(tag) or (
                self.server.disk.load_blob(key, shard) is not None
            )
            self._send_empty(204 if present else 404)
            return
        flight = bool(self._param(query, "flight"))
        try:
            wait = float(self._param(query, "wait", "0") or 0)
        except ValueError:
            wait = 0.0
        pid_raw = self._param(query, "pid")
        pid = int(pid_raw) if pid_raw.isdigit() else None
        kind, data, tier = self.server.fetch(
            key, shard, flight=flight, wait=wait, pid=pid
        )
        if kind == "hit":
            self._send_blob(data, X_Repro_Tier=tier)
        elif kind == "lease":
            self._send_json(404, {"lease": data.decode()})
        elif kind == "timeout":
            self._send_json(404, {"timeout": True})
        else:
            self._send_json(404, {"error": "miss"})

    def do_PUT(self) -> None:  # noqa: N802 — http.server API
        url = urlsplit(self.path)
        try:
            if url.path != "/entry":
                self._send_json(404, {"error": f"no route {url.path!r}"})
                return
            raw = read_body(self)
            newline = raw.find(b"\n")
            if newline < 0:
                self._send_json(
                    400, {"error": "expected envelope line + blob"}
                )
                return
            try:
                envelope = json.loads(raw[:newline].decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                self._send_json(400, {"error": "envelope is not JSON"})
                return
            key = envelope.get("key")
            if not key:
                self._send_json(400, {"error": "envelope missing 'key'"})
                return
            stored, error = self.server.put(
                key,
                envelope.get("shard") or self.server.disk.fingerprint[:16],
                raw[newline + 1:],
                sha256=envelope.get("sha256"),
                manifest=envelope.get("manifest"),
                lease=envelope.get("lease"),
                mode=envelope.get("mode") or "store",
            )
            if error is not None:
                self._send_json(400, {"error": error})
            else:
                self._send_json(200, {"stored": stored})
        except BadContentLength as error:
            self._send_json(400, {"error": str(error)})
        except (BrokenPipeError, ConnectionResetError):
            pass
        except Exception as error:  # noqa: BLE001 — server boundary
            self._send_json(
                500,
                {"error": f"internal error: {type(error).__name__}: {error}"},
            )

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        url = urlsplit(self.path)
        try:
            if url.path == "/entry":
                self.do_PUT()  # POST /entry is a PUT alias (curl-friendly)
                return
            if url.path != "/lease/release":
                self._send_json(404, {"error": f"no route {url.path!r}"})
                return
            raw = read_body(self)
            try:
                payload = json.loads(raw.decode("utf-8") or "{}")
            except (ValueError, UnicodeDecodeError):
                self._send_json(400, {"error": "request body is not JSON"})
                return
            key = payload.get("key")
            token = payload.get("token")
            if not key or not token:
                self._send_json(
                    400, {"error": "expected {'key', 'shard', 'token'}"}
                )
                return
            released = self.server.release(
                key,
                payload.get("shard") or self.server.disk.fingerprint[:16],
                token,
            )
            self._send_json(200, {"released": released})
        except BadContentLength as error:
            self._send_json(400, {"error": str(error)})
        except (BrokenPipeError, ConnectionResetError):
            pass
        except Exception as error:  # noqa: BLE001 — server boundary
            self._send_json(
                500,
                {"error": f"internal error: {type(error).__name__}: {error}"},
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
