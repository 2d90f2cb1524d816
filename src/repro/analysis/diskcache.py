"""Persistent, content-addressed experiment cache.

The session-scoped :class:`~repro.analysis.runner.ExperimentCache` dies
with the process, so every new harness run (a pytest session, a CLI
invocation, a CI job) rebuilds and recompiles the same (benchmark,
configuration) pairs.  This module adds the cross-session layer: a
directory of pickled stage artefacts keyed by

* the *source identity* — registry name + width preset, or another
  :class:`~repro.source.Source`'s content fingerprint,
* the *semantic configuration key* (:func:`~repro.analysis.runner.config_key`),
* and a *code-version fingerprint* — a SHA-256 over every ``repro``
  source file, so any change to the package invalidates the whole shard
  rather than serving artefacts a different compiler produced.

Entries are written atomically (temp file + ``os.replace``) and loaded
through an integrity check (magic, payload digest, certificate field,
key match); torn, truncated, or otherwise corrupt files are treated as
misses, never as data.  Every write — a local store, a cache server's
put, a client's fallback root — goes through :meth:`DiskCache.store_blob`
under an exclusive per-key lockfile, so processes may share one root
concurrently, and inside that lock a blob whose verification
certificate is narrower than the stored one is refused: certificates
never narrow, whatever the writer interleaving.  Locks carry their
holder's PID: a lock whose writer has died is broken immediately,
anything else after a staleness timeout.

Layout::

    <root>/<fingerprint>/<sha256(key)>.pkl

``repro cache stats`` / ``repro cache clear`` expose the directory from
the command line.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import pathlib
import pickle
import tempfile
import time
from contextlib import contextmanager
from typing import Dict, Iterable, Optional, Tuple

from .._env import env_value
from ..resilience import faults, manifest as run_manifest

#: Default cache directory (relative to the working directory).
DEFAULT_ROOT = ".repro_cache"

#: Environment variable overriding/enabling the cache root.
CACHE_ENV_VAR = "REPRO_CACHE_DIR"

#: Counters of a shared cache server's tiers (see
#: :meth:`repro.cachesvc.RemoteCache.tier_counters`); always zero here.
TIER_COUNTER_KEYS = (
    "remote_memory_hits",
    "remote_disk_hits",
    "remote_waits",
    "remote_fallbacks",
)

#: File magic; bump when the entry format changes.
_MAGIC = b"RPCH2\n"
_DIGEST_END = len(_MAGIC) + 64

#: Age (seconds) after which another writer's lockfile is presumed dead
#: (crashed worker) and broken.  Serialising one entry takes well under
#: a second; a minute leaves room for pathological filesystem stalls.
STALE_LOCK_SECONDS = 60.0

#: How long a writer waits for a sibling to release an entry's lock
#: before giving up.  Entry writes take milliseconds, so a losing
#: writer normally gets the lock on an early poll; the bound only
#: matters when the holder is wedged (and the stale break then applies).
LOCK_WAIT_SECONDS = 1.0

_LOCK_POLL_SECONDS = 0.01

#: Uniquifier for stale-lock tombstones (see ``_acquire_lock``).
_TOMB_COUNTER = itertools.count()

_FINGERPRINT: Optional[str] = None


def encode_entry(key_repr: str, payload, certificate: int = 0) -> bytes:
    """Serialise one cache entry into its on-disk/wire blob form.

    ``MAGIC + sha256hex(body) + body`` with ``body = b"<certificate>\\n"
    + pickle((key_repr, payload))`` — the format :class:`DiskCache`
    persists and :mod:`repro.cachesvc` ships over HTTP, so an artefact
    fetched from a cache server is byte-identical to one read off a
    shared root.  *certificate* (a compiled result's verification
    width; 0 for every other entry) sits inside the digested region, so
    a writer can compare widths without unpickling.
    """
    body = b"%d\n" % certificate + pickle.dumps(
        (key_repr, payload), protocol=pickle.HIGHEST_PROTOCOL
    )
    return _MAGIC + hashlib.sha256(body).hexdigest().encode() + body


def _header(blob: bytes) -> Optional[Tuple[int, int]]:
    """``(certificate, pickle offset)`` of an intact blob, else ``None``."""
    if not blob.startswith(_MAGIC):
        return None
    digest = hashlib.sha256(memoryview(blob)[_DIGEST_END:]).hexdigest()
    if digest.encode() != blob[len(_MAGIC):_DIGEST_END]:
        return None
    end = blob.find(b"\n", _DIGEST_END, _DIGEST_END + 21)
    field = blob[_DIGEST_END:end]
    if end < 0 or not field.isdigit():
        return None
    return int(field), end + 1


def blob_certificate(blob: Optional[bytes]) -> Optional[int]:
    """The certificate of an intact blob; ``None`` for anything else.

    Checks magic, payload digest and the certificate field, and
    deliberately does **not** unpickle — this is the check a cache
    *server* runs on opaque artefacts it never executes (admitting a
    tampered pickle to the warm tier would hand it to every client).
    A ``None`` blob (nothing stored) is ``None`` too.
    """
    header = None if blob is None else _header(blob)
    return None if header is None else header[0]


def blob_digest(blob: bytes) -> str:
    """SHA-256 (hex) of a whole blob — the put-verification checksum."""
    return hashlib.sha256(blob).hexdigest()


def decode_entry(blob: bytes, key_repr: str):
    """Decode a blob back into its payload, or ``None``.

    Anything wrong — bad magic, digest mismatch, unparsable certificate,
    unpicklable body, or a key mismatch (hash collision, format drift) —
    is a miss; corruption is never surfaced as data.
    """
    header = _header(blob)
    if header is None:
        return None
    try:
        stored_key, payload = pickle.loads(blob[header[1]:])
    except Exception:
        # A well-digested but unloadable body can only mean format
        # drift (e.g. a renamed class in a stale shard): miss.
        return None
    if stored_key != key_repr:
        return None
    return payload


def _lock_holder_dead(lock: pathlib.Path) -> bool:
    """``True`` if *lock* names a holder PID that no longer exists.

    Locks carry their writer's PID; a pool supervisor recovering from a
    crashed worker SIGTERMs the siblings, and a sibling killed while
    holding an entry lock leaks it — its retried job must not wait out
    :data:`STALE_LOCK_SECONDS` (and then *skip* the store) for a writer
    that can never release.  Best-effort on purpose: an empty or
    unparsable lock (a foreign writer) and a reused PID both fall back
    to the age-based break.
    """
    try:
        pid = int(lock.read_bytes())
    except (OSError, ValueError):
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except OSError:
        return False  # e.g. EPERM: alive, just not ours
    return False


def _key_job(key: Tuple) -> Optional[str]:
    """Best-effort job label of a cache key, for fault targeting.

    Entry keys lead with a kind tag followed by the source identity
    (``("result", "adder", "default", …)``), so the second element —
    when it is a string — names the benchmark/source the entry belongs
    to.  Used only to scope ``$REPRO_FAULTS`` directives.
    """
    if len(key) > 1 and isinstance(key[1], str):
        return key[1]
    return None


def code_fingerprint() -> str:
    """SHA-256 over the ``repro`` package sources (hex, memoized).

    Any edit to any module under ``repro`` yields a new fingerprint, so
    persisted artefacts can never outlive the code that produced them.
    """
    global _FINGERPRINT
    if _FINGERPRINT is None:
        package_root = pathlib.Path(__file__).resolve().parents[1]
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _FINGERPRINT = digest.hexdigest()
    return _FINGERPRINT


class DiskCache:
    """One cache root; stores and retrieves pickled stage artefacts.

    Thread-compatible in the same way the rest of the runner is: loads
    are pure reads and every store is a locked, atomic rename.
    """

    #: Shared cache server address; a local root has none.
    url: Optional[str] = None

    def __init__(
        self,
        root: "str | os.PathLike[str]" = DEFAULT_ROOT,
        *,
        fingerprint: Optional[str] = None,
    ) -> None:
        self.root = pathlib.Path(root)
        self.fingerprint = fingerprint or code_fingerprint()
        self.hits = 0
        self.misses = 0
        #: Writes skipped because another writer held the entry's lock
        #: past :data:`LOCK_WAIT_SECONDS`.
        self.lock_skips = 0

    # -- the surface shared with RemoteCache ----------------------------

    @contextmanager
    def flight(self, key: Tuple):
        """Single-flight window around one compute, and the stage's one
        read: yields :meth:`load`'s answer (``None``: compute and store).
        The per-entry lockfile keeps racing writers from duplicating it."""
        yield self.load(key)

    def tier_counters(self) -> Dict[str, int]:
        """Remote-tier counters: all zero for a local root."""
        return dict.fromkeys(TIER_COUNTER_KEYS, 0)

    # -- keying ----------------------------------------------------------

    def blob_path(self, key_repr: str, shard: Optional[str] = None) -> pathlib.Path:
        """Entry path of an *opaque* key/shard pair (default shard: ours).

        A server stores artefacts on behalf of clients whose code
        fingerprint may differ from its own, so the client names the
        shard explicitly and the server never re-derives keys.
        """
        name = hashlib.sha256(key_repr.encode()).hexdigest()
        return self.root / (shard or self.fingerprint[:16]) / f"{name}.pkl"

    def entry_path(self, key: Tuple) -> pathlib.Path:
        """The content-addressed path *key* persists under (whether or
        not an entry exists there yet) — how the parallel supervisor
        locates a retried job's manifests to annotate."""
        return self.blob_path(repr(key))

    # -- read ------------------------------------------------------------

    @staticmethod
    def _read(path: pathlib.Path) -> Optional[bytes]:
        try:
            return path.read_bytes()
        except OSError:
            return None

    def load(self, key: Tuple):
        """Return the stored payload for *key*, or ``None``.

        Anything wrong with the file — missing, truncated, bad digest,
        unpicklable, or keyed differently (a hash collision or format
        drift) — is a miss; corruption is never surfaced as data.
        """
        payload = None
        blob = self._read(self.entry_path(key))
        if blob is not None:
            # Chaos hook: an injected corruption must surface as a miss.
            blob = faults.corrupt_blob(blob, _key_job(key))
            payload = decode_entry(blob, repr(key))
        if payload is None:
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def load_blob(
        self, key_repr: str, shard: Optional[str] = None
    ) -> Optional[bytes]:
        """Read one entry's raw blob (integrity-checked, never decoded).

        Returns ``None`` for missing or structurally corrupt entries —
        the same "corruption is a miss" contract as :meth:`load`, minus
        the unpickle (servers treat artefacts as opaque bytes).
        """
        blob = self._read(self.blob_path(key_repr, shard))
        return None if blob_certificate(blob) is None else blob

    # -- write -----------------------------------------------------------

    def _acquire_lock(self, path: pathlib.Path) -> Optional[pathlib.Path]:
        """Take the per-entry writer lock, or ``None`` on timeout.

        The lock is an exclusively created sidecar file: exactly one
        process holds it at a time, making every entry write
        single-writer even when a whole worker pool warms the same
        root.  A held lock is polled for up to
        :data:`LOCK_WAIT_SECONDS` (entry writes take milliseconds, so
        losers normally proceed on an early poll — this is what lets a
        verification-certificate upgrade land even when a sibling was
        persisting the unverified entry first); a lock whose recorded
        holder is dead, or older than :data:`STALE_LOCK_SECONDS`,
        belongs to a crashed writer and is broken.
        """
        lock = path.with_suffix(".lock")
        # Record the holder so waiters can tell a *dead* writer
        # (terminated pool worker — SIGTERM runs no Python cleanup, so
        # the lock leaks) from a live slow one, and break it without the
        # 60s wait.  The PID goes into a temp file that is hard-linked
        # into place, so no lock is ever empty: a writer killed between
        # creating the lock and writing its PID would leave one, which no
        # waiter could tell from a live holder's.
        fd, holder = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(str(os.getpid()))
            deadline = time.monotonic() + LOCK_WAIT_SECONDS
            while True:
                try:
                    os.link(holder, lock)
                    return lock
                except FileExistsError:
                    pass
                if time.monotonic() >= deadline:
                    return None
                try:
                    age = time.time() - lock.stat().st_mtime
                except OSError:
                    continue  # e.g. the holder finished since the link
                if age >= STALE_LOCK_SECONDS or _lock_holder_dead(lock):
                    self._break_stale_lock(lock)
                    continue
                time.sleep(_LOCK_POLL_SECONDS)
        finally:
            os.unlink(holder)

    @staticmethod
    def _break_stale_lock(lock: pathlib.Path) -> None:
        """Break a crashed writer's lock so exactly one breaker wins.

        A bare ``unlink`` here would race: two waiters can both judge
        the lock stale and both unlink — and the second unlink can
        destroy a *fresh* lock acquired in between, letting two writers
        into the critical section at once.  Renaming the lock to a
        uniquely-named tombstone is atomic and single-winner: only one
        rename of a given path succeeds, every loser gets
        ``FileNotFoundError`` (which just means "lost the race — poll
        again"), and a fresh lock created after the rename is a
        different inode that no loser can touch.
        """
        tombstone = lock.with_name(
            f"{lock.name}.tomb-{os.getpid()}-{next(_TOMB_COUNTER)}"
        )
        try:
            os.rename(lock, tombstone)
        except FileNotFoundError:
            return  # another breaker (or the holder's release) won
        except OSError:
            return
        try:
            os.unlink(tombstone)
        except OSError:
            pass

    def store(
        self, key: Tuple, payload, *, certificate: int = 0, manifest=None
    ) -> None:
        """Persist *payload* under *key* with its *certificate* through
        :meth:`store_blob` (best-effort).  A cache must never take the
        experiment down: an unpicklable payload is simply not
        persisted."""
        try:
            faults.store_io_fault(_key_job(key))  # chaos hook
            blob = encode_entry(repr(key), payload, certificate)
        except Exception:
            return
        self.store_blob(repr(key), blob, manifest=manifest)

    def store_blob(
        self,
        key_repr: str,
        blob: bytes,
        shard: Optional[str] = None,
        manifest: Optional[dict] = None,
    ) -> bool:
        """Persist a raw blob under an opaque key — the one write path
        of every tier (local stores, cache-server puts, a client's
        fallback root).  Returns ``True`` when the bytes landed.

        The entry's lockfile is acquired first (waiting briefly for a
        sibling writer to finish); an unobtainable lock skips the write
        (counted in :attr:`lock_skips`).  Inside the lock the blob is
        refused when its certificate is narrower than the stored one,
        so certificates never narrow whatever the writer interleaving.
        A blob failing :func:`blob_certificate` is refused outright — a
        cache server must not launder corrupt artefacts onto a shared
        root — and filesystem errors are swallowed.

        With a *manifest* dict the entry gets a ``run_manifest.json``
        sidecar (see :mod:`repro.resilience.manifest`), written inside
        the same lock and before the blob, from the bytes in memory.  A
        writer killed between the two leaves the sidecar ahead of a
        narrower (or missing) blob, which the retried store repairs;
        never a wide blob whose sidecar describes the replaced bytes,
        which a retried job would hit and never rewrite.  A refused
        write still folds the manifest's event log into the existing
        sidecar, so recovery history is never lost.
        """
        certificate = blob_certificate(blob)
        if certificate is None:
            return False
        path = self.blob_path(key_repr, shard)
        lock = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            lock = self._acquire_lock(path)
            if lock is None:
                self.lock_skips += 1
                return False
            meta = dict(manifest or {})
            events = meta.pop("events", [])
            stored = blob_certificate(self._read(path))
            if stored is not None and stored > certificate:
                run_manifest.append_manifest_events(path, events)
                return False
            if manifest is not None:
                run_manifest.write_manifest(
                    path,
                    run_manifest.build_manifest(
                        path,
                        key_repr=key_repr,
                        blob=blob,
                        meta=meta,
                        events=events,
                    ),
                )
            # The temp suffix is deliberately not ".pkl": a writer killed
            # mid-write (terminated worker, SIGKILL) orphans the temp
            # file, and an orphan must never be countable or comparable
            # as a cache entry.
            fd, tmp_name = tempfile.mkstemp(
                dir=path.parent, prefix=".tmp-", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(blob)
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
            return True
        except Exception:
            return False
        finally:
            # The lock is released on *every* exit path — including a
            # KeyboardInterrupt arriving mid-write — so an interrupted
            # run never wedges sibling writers for STALE_LOCK_SECONDS.
            if lock is not None:
                try:
                    os.unlink(lock)
                except OSError:
                    pass

    # -- maintenance -----------------------------------------------------

    def _shards(self) -> Iterable[pathlib.Path]:
        if not self.root.is_dir():
            return []
        return [p for p in sorted(self.root.iterdir()) if p.is_dir()]

    def stats(self) -> dict:
        """Entry/byte counts per fingerprint shard plus session counters."""
        shards = []
        total_entries = 0
        total_bytes = 0
        for shard in self._shards():
            files = [p for p in shard.iterdir() if p.suffix == ".pkl"]
            size = sum(p.stat().st_size for p in files)
            shards.append(
                {
                    "fingerprint": shard.name,
                    "current": shard.name == self.fingerprint[:16],
                    "entries": len(files),
                    "bytes": size,
                }
            )
            total_entries += len(files)
            total_bytes += size
        return {
            "root": str(self.root),
            "fingerprint": self.fingerprint[:16],
            "entries": total_entries,
            "bytes": total_bytes,
            "shards": shards,
            "session_hits": self.hits,
            "session_misses": self.misses,
            "session_lock_skips": self.lock_skips,
        }

    def clear(self, *, all_versions: bool = False) -> int:
        """Delete cached entries; returns the number of files removed.

        By default only the current code-version shard is cleared;
        ``all_versions=True`` removes every shard under the root.
        """
        removed = 0
        for shard in self._shards():
            if not all_versions and shard.name != self.fingerprint[:16]:
                continue
            for path in shard.iterdir():
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
            try:
                shard.rmdir()
            except OSError:
                pass
        return removed


def resolve_cache_dir(
    explicit: "str | os.PathLike[str] | None" = None,
    *,
    default: Optional[str] = None,
) -> Optional[str]:
    """Cache-root resolution: explicit > ``$REPRO_CACHE_DIR`` > *default*
    (the maintenance commands pass :data:`DEFAULT_ROOT`)."""
    return str(explicit) if explicit else env_value(CACHE_ENV_VAR) or default


def disk_cache_from_env() -> Optional[DiskCache]:
    """A :class:`DiskCache` rooted at ``$REPRO_CACHE_DIR``, if set."""
    root = resolve_cache_dir()
    return DiskCache(root) if root else None
