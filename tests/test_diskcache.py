"""Tests for the persistent experiment cache (repro.analysis.diskcache)."""

import os

import pytest

from repro.analysis.diskcache import (
    CACHE_ENV_VAR,
    DiskCache,
    code_fingerprint,
    disk_cache_from_env,
)
from repro.analysis.runner import ExperimentCache, run_matrix
from repro.core.manager import PRESETS
from repro.flow import Session


class TestDiskCacheBasics:
    def test_miss_then_hit_roundtrip(self, tmp_path):
        cache = DiskCache(tmp_path)
        key = ("result", "adder", "tiny", ("none", "topo"))
        assert cache.load(key) is None
        cache.store(key, {"answer": 42})
        assert cache.load(key) == {"answer": 42}
        assert (cache.hits, cache.misses) == (1, 1)

    def test_cross_instance_sharing(self, tmp_path):
        DiskCache(tmp_path).store(("mig", "x", "tiny"), [1, 2, 3])
        assert DiskCache(tmp_path).load(("mig", "x", "tiny")) == [1, 2, 3]

    def test_distinct_keys_do_not_collide(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.store(("a",), 1)
        cache.store(("b",), 2)
        assert cache.load(("a",)) == 1
        assert cache.load(("b",)) == 2

    def test_fingerprint_isolates_code_versions(self, tmp_path):
        old = DiskCache(tmp_path, fingerprint="0" * 64)
        old.store(("k",), "stale")
        current = DiskCache(tmp_path)
        assert current.load(("k",)) is None  # different shard
        assert current.fingerprint == code_fingerprint()

    def test_from_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        assert disk_cache_from_env() is None
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "c"))
        cache = disk_cache_from_env()
        assert cache is not None and cache.root == tmp_path / "c"


class TestSingleWriterLock:
    """Entry writes are lockfile-guarded: one writer per key at a time."""

    def test_lock_removed_after_store(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.store(("k",), "v")
        path = cache.entry_path(("k",))
        assert path.is_file()
        assert not path.with_suffix(".lock").exists()

    def test_held_lock_skips_the_write(self, tmp_path, monkeypatch):
        from repro.analysis import diskcache as module

        monkeypatch.setattr(module, "LOCK_WAIT_SECONDS", 0.05)
        cache = DiskCache(tmp_path)
        path = cache.entry_path(("k",))
        path.parent.mkdir(parents=True)
        lock = path.with_suffix(".lock")
        lock.touch()  # a live sibling writer owns this entry
        cache.store(("k",), "v")
        assert not path.exists()  # write-through was skipped...
        assert cache.lock_skips == 1
        assert cache.stats()["session_lock_skips"] == 1
        lock.unlink()
        cache.store(("k",), "v")  # ...and succeeds once the lock clears
        assert cache.load(("k",)) == "v"

    def test_waits_for_sibling_writer_to_finish(self, tmp_path):
        """A briefly-held lock delays the write instead of dropping it —
        this is what lets certificate upgrades land behind a racing
        unverified write."""
        import threading

        cache = DiskCache(tmp_path)
        path = cache.entry_path(("k",))
        path.parent.mkdir(parents=True)
        lock = path.with_suffix(".lock")
        lock.touch()
        timer = threading.Timer(0.1, lock.unlink)
        timer.start()
        try:
            cache.store(("k",), "v")
        finally:
            timer.cancel()
        assert cache.lock_skips == 0
        assert cache.load(("k",)) == "v"

    def test_certificate_guards_overwrites(self, tmp_path):
        """The overwrite decision compares the stored certificate inside
        the lock: upgrades land, downgrades are refused."""
        cache = DiskCache(tmp_path)
        cache.store(("k",), ("result", 64), certificate=64)
        # a downgrade (narrower certificate) is refused...
        cache.store(("k",), ("result", 8), certificate=8)
        assert cache.load(("k",)) == ("result", 64)
        # ...an upgrade goes through...
        cache.store(("k",), ("result", 256), certificate=256)
        assert cache.load(("k",)) == ("result", 256)
        # ...and an absent entry is always written.
        cache.store(("j",), ("result", 8), certificate=8)
        assert cache.load(("j",)) == ("result", 8)

    def test_refused_write_folds_its_manifest_events(self, tmp_path):
        from repro.resilience.manifest import load_manifest

        cache = DiskCache(tmp_path)
        first = {"kind": "retry", "job": "k", "attempt": 1}
        late = {"kind": "kernel_degraded", "job": "k"}
        cache.store(("k",), 1, certificate=64, manifest={"events": [first]})
        cache.store(("k",), 1, certificate=8, manifest={"events": [late]})
        manifest = load_manifest(cache.entry_path(("k",)))
        assert manifest["events"] == [first, late]
        assert cache.load(("k",)) == 1

    def test_unpicklable_payload_degrades_to_not_persisted(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.store(("k",), lambda: None)  # lambdas cannot pickle
        assert cache.load(("k",)) is None  # miss, not a crash...
        path = cache.entry_path(("k",))
        assert not path.with_suffix(".lock").exists()  # ...lock released
        cache.store(("k",), "v")  # and the key is immediately writable
        assert cache.load(("k",)) == "v"

    def test_stale_lock_is_broken(self, tmp_path):
        from repro.analysis.diskcache import STALE_LOCK_SECONDS

        cache = DiskCache(tmp_path)
        path = cache.entry_path(("k",))
        path.parent.mkdir(parents=True)
        lock = path.with_suffix(".lock")
        lock.touch()
        stale = 2 * STALE_LOCK_SECONDS
        os.utime(lock, (lock.stat().st_atime - stale,
                        lock.stat().st_mtime - stale))
        cache.store(("k",), "v")  # crashed writer's lock must not wedge us
        assert cache.load(("k",)) == "v"
        assert not lock.exists()
        assert cache.lock_skips == 0

    def test_dead_holder_lock_is_broken_immediately(self, tmp_path):
        """A lock leaked by a SIGTERM'd pool worker (no Python cleanup
        runs) names a dead PID — it must be broken on the first poll,
        not honoured for STALE_LOCK_SECONDS and then *skipped*."""
        import subprocess
        import sys
        import time

        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()  # reaped: the PID is guaranteed dead
        cache = DiskCache(tmp_path)
        path = cache.entry_path(("k",))
        path.parent.mkdir(parents=True)
        lock = path.with_suffix(".lock")
        lock.write_text(str(proc.pid))
        start = time.monotonic()
        cache.store(("k",), "v")
        assert time.monotonic() - start < 1.0  # no LOCK_WAIT timeout
        assert cache.load(("k",)) == "v"
        assert cache.lock_skips == 0

    def test_live_holder_lock_is_honoured(self, tmp_path, monkeypatch):
        from repro.analysis import diskcache as module

        monkeypatch.setattr(module, "LOCK_WAIT_SECONDS", 0.05)
        cache = DiskCache(tmp_path)
        path = cache.entry_path(("k",))
        path.parent.mkdir(parents=True)
        lock = path.with_suffix(".lock")
        lock.write_text(str(os.getpid()))  # this very process: alive
        cache.store(("k",), "v")
        assert not path.exists()
        assert cache.lock_skips == 1

    def test_stale_break_leaves_no_tombstone(self, tmp_path):
        cache = DiskCache(tmp_path)
        path = cache.entry_path(("k",))
        path.parent.mkdir(parents=True)
        lock = path.with_suffix(".lock")
        lock.touch()
        DiskCache._break_stale_lock(lock)
        assert not lock.exists()
        assert not list(path.parent.glob("*.tomb-*"))

    def test_losing_breaker_is_a_noop(self, tmp_path, monkeypatch):
        """Two waiters can both judge a lock stale; only the winning
        rename may remove it.  The loser's ``FileNotFoundError`` must be
        swallowed without touching anything — in particular not a fresh
        lock a third writer acquired at the same path in between."""
        cache = DiskCache(tmp_path)
        path = cache.entry_path(("k",))
        path.parent.mkdir(parents=True)
        lock = path.with_suffix(".lock")
        lock.touch()
        DiskCache._break_stale_lock(lock)  # the winner
        lock.touch()  # a *fresh* writer took the now-free slot
        before = lock.stat().st_ino

        # the loser: its rename of the original (already-renamed) inode
        # fails — simulate losing the race on the rename itself
        original_rename = os.rename

        def lost_race(src, dst):
            if str(src) == str(lock):
                raise FileNotFoundError(src)
            return original_rename(src, dst)

        monkeypatch.setattr(os, "rename", lost_race)
        DiskCache._break_stale_lock(lock)
        assert lock.exists()  # the fresh writer's lock survived
        assert lock.stat().st_ino == before

    def test_lockfiles_do_not_count_as_entries(self, tmp_path):
        cache = DiskCache(tmp_path)
        path = cache.entry_path(("k",))
        path.parent.mkdir(parents=True)
        path.with_suffix(".lock").touch()
        assert cache.stats()["entries"] == 0
        cache.clear()  # clearing sweeps leftover locks too
        assert not path.with_suffix(".lock").exists()


class TestCorruptionRejection:
    def _entry_path(self, cache, key):
        cache.store(key, "payload")
        path = cache.entry_path(key)
        assert path.is_file()
        return path

    def test_truncated_file_is_a_miss(self, tmp_path):
        cache = DiskCache(tmp_path)
        path = self._entry_path(cache, ("k",))
        path.write_bytes(path.read_bytes()[:-3])
        assert cache.load(("k",)) is None

    def test_flipped_byte_is_a_miss(self, tmp_path):
        cache = DiskCache(tmp_path)
        path = self._entry_path(cache, ("k",))
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert cache.load(("k",)) is None

    def test_bad_magic_is_a_miss(self, tmp_path):
        cache = DiskCache(tmp_path)
        path = self._entry_path(cache, ("k",))
        path.write_bytes(b"garbage" + path.read_bytes())
        assert cache.load(("k",)) is None

    def test_key_mismatch_is_a_miss(self, tmp_path):
        # A well-formed entry stored under the wrong file name (e.g. a
        # renamed file) must not be served for the colliding key.
        cache = DiskCache(tmp_path)
        cache.store(("original",), "data")
        os.replace(
            cache.entry_path(("original",)), cache.entry_path(("other",))
        )
        assert cache.load(("other",)) is None

    def test_unpicklable_body_is_a_miss(self, tmp_path):
        import hashlib

        from repro.analysis import diskcache

        cache = DiskCache(tmp_path)
        body = b"0\n\x80\x05not really a pickle"
        blob = (
            diskcache._MAGIC
            + hashlib.sha256(body).hexdigest().encode()
            + body
        )
        path = cache.entry_path(("k",))
        path.parent.mkdir(parents=True)
        path.write_bytes(blob)
        assert cache.load(("k",)) is None

    def test_unparsable_certificate_is_a_miss(self, tmp_path):
        import hashlib

        from repro.analysis import diskcache

        cache = DiskCache(tmp_path)
        blob = diskcache.encode_entry(repr(("k",)), "data", 7)
        body = b"x7" + blob[diskcache._DIGEST_END + 1:]
        blob = (
            diskcache._MAGIC
            + hashlib.sha256(body).hexdigest().encode()
            + body
        )
        assert diskcache.blob_certificate(blob) is None
        path = cache.entry_path(("k",))
        path.parent.mkdir(parents=True)
        path.write_bytes(blob)
        assert cache.load(("k",)) is None
        assert cache.load_blob(repr(("k",))) is None

    def test_store_failure_is_swallowed(self, tmp_path):
        target = tmp_path / "not-a-dir"
        target.write_text("file blocks the root")
        cache = DiskCache(target)
        cache.store(("k",), "data")  # must not raise
        assert cache.load(("k",)) is None


class TestMaintenance:
    def test_stats_counts_entries_and_shards(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.store(("a",), 1)
        cache.store(("b",), 2)
        DiskCache(tmp_path, fingerprint="f" * 64).store(("c",), 3)
        stats = cache.stats()
        assert stats["entries"] == 3
        assert stats["bytes"] > 0
        assert len(stats["shards"]) == 2
        current = [s for s in stats["shards"] if s["current"]]
        assert len(current) == 1 and current[0]["entries"] == 2

    def test_clear_current_shard_only(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.store(("a",), 1)
        stale = DiskCache(tmp_path, fingerprint="f" * 64)
        stale.store(("c",), 3)
        assert cache.clear() == 1
        assert cache.load(("a",)) is None
        assert stale.load(("c",)) == 3

    def test_clear_all_versions(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.store(("a",), 1)
        DiskCache(tmp_path, fingerprint="f" * 64).store(("c",), 3)
        assert cache.clear(all_versions=True) == 2
        assert cache.stats()["entries"] == 0


class TestExperimentCacheReadThrough:
    def test_warm_session_compiles_nothing(self, tmp_path):
        cold = ExperimentCache(disk=DiskCache(tmp_path))
        mig = cold.benchmark_mig("adder", "tiny")
        first = cold.compile(mig, PRESETS["naive"])
        assert cold.misses == 1

        warm = ExperimentCache(disk=DiskCache(tmp_path))
        mig2 = warm.benchmark_mig("adder", "tiny")  # deserialised, not built
        assert warm.disk.hits == 1
        second = warm.compile(mig2, PRESETS["naive"])
        assert warm.disk.hits == 2  # result also served from disk
        assert second is not first  # a different process's object...
        assert (
            second.num_instructions,
            second.num_rrams,
            second.program.write_counts(),
        ) == (
            first.num_instructions,
            first.num_rrams,
            first.program.write_counts(),
        )

    def test_hand_built_migs_stay_session_only(self, tmp_path):
        from repro.synth.arithmetic import build_adder

        cache = ExperimentCache(disk=DiskCache(tmp_path))
        cache.compile(build_adder(width=3), PRESETS["naive"])
        # nothing persisted: the MIG has no registry identity
        assert cache.disk.stats()["entries"] == 0

    def test_verification_certificate_persists(self, tmp_path):
        cold = ExperimentCache(disk=DiskCache(tmp_path))
        mig = cold.benchmark_mig("dec", "tiny")
        cold.verify(mig, PRESETS["naive"], patterns=16)

        warm = ExperimentCache(disk=DiskCache(tmp_path))
        mig2 = warm.benchmark_mig("dec", "tiny")
        assert warm.has(mig2, PRESETS["naive"], verified_patterns=16)
        assert not warm.has(mig2, PRESETS["naive"], verified_patterns=64)

    def test_certificate_never_downgraded_on_disk(self, tmp_path):
        # Session B holds an unverified memory entry; session A persists
        # a wide certificate meanwhile; B's later narrow verification
        # must not overwrite A's certificate.
        session_b = ExperimentCache(disk=DiskCache(tmp_path))
        mig_b = session_b.benchmark_mig("dec", "tiny")
        session_b.compile(mig_b, PRESETS["naive"])  # disk cert: 0

        session_a = ExperimentCache(disk=DiskCache(tmp_path))
        session_a.verify(
            session_a.benchmark_mig("dec", "tiny"), PRESETS["naive"],
            patterns=256,
        )  # disk cert: 256

        session_b.verify(
            mig_b, PRESETS["naive"], patterns=16
        )  # memory upgrade to 16 must not clobber the 256 on disk

        fresh = ExperimentCache(disk=DiskCache(tmp_path))
        assert fresh.has(
            fresh.benchmark_mig("dec", "tiny"),
            PRESETS["naive"],
            verified_patterns=256,
        )

    def test_killed_widening_leaves_a_repairable_manifest(
        self, tmp_path, monkeypatch
    ):
        # A certificate widening replaces the entry's blob and writes its
        # run_manifest.json sidecar, each with one os.replace.  A writer
        # killed between the two must not leave a wide blob whose sidecar
        # describes the replaced bytes: the retried job would hit the
        # wide entry and never rewrite it.
        from repro.resilience.manifest import iter_manifests, verify_manifest

        class Killed(BaseException):
            pass

        cold = ExperimentCache(disk=DiskCache(tmp_path))
        mig = cold.benchmark_mig("dec", "tiny")
        cold.compile(mig, PRESETS["naive"])  # disk cert: 0
        replace, replaced = os.replace, []

        def killed_on_the_second(src, dst):
            replaced.append(dst)
            if len(replaced) == 2:
                raise Killed
            replace(src, dst)

        monkeypatch.setattr(os, "replace", killed_on_the_second)
        with pytest.raises(Killed):
            cold.verify(mig, PRESETS["naive"], patterns=16)
        monkeypatch.setattr(os, "replace", replace)
        assert len(replaced) == 2  # the blob and its sidecar

        retry = Session(preset="tiny", cache_dir=tmp_path)
        retry.evaluate_suite(["dec"], configs=["naive"], verify=16)
        fresh = ExperimentCache(disk=DiskCache(tmp_path))
        assert fresh.has(
            fresh.benchmark_mig("dec", "tiny"), PRESETS["naive"],
            verified_patterns=16,
        )
        problems = [
            problem
            for sidecar, manifest in iter_manifests(tmp_path)
            for problem in verify_manifest(sidecar, manifest)
        ]
        assert problems == []

    def test_corrupt_entry_recompiles(self, tmp_path):
        from repro.analysis.runner import config_key

        disk = DiskCache(tmp_path)
        cold = ExperimentCache(disk=disk)
        mig = cold.benchmark_mig("ctrl", "tiny")
        reference = cold.compile(mig, PRESETS["naive"])
        key = ("result", "ctrl", "tiny", config_key(PRESETS["naive"]))
        path = disk.entry_path(key)
        path.write_bytes(b"corrupt")

        warm = ExperimentCache(disk=DiskCache(tmp_path))
        result = warm.compile(
            warm.benchmark_mig("ctrl", "tiny"), PRESETS["naive"]
        )
        assert result.program.write_counts() == reference.program.write_counts()


class TestRunMatrixDiskSharing:
    SUBSET = ["adder", "dec", "ctrl"]

    def _signature(self, evaluations):
        return [
            {
                key: (
                    res.num_instructions,
                    res.num_rrams,
                    tuple(res.program.write_counts()),
                )
                for key, res in ev.results.items()
            }
            for ev in evaluations
        ]

    def test_warm_serial_run_is_pure_disk_io(self, tmp_path):
        cold = ExperimentCache(disk=DiskCache(tmp_path))
        reference = run_matrix(
            self.SUBSET, verify=False, session=Session(cache=cold, preset="tiny")
        )
        pairs = cold.misses
        assert pairs == len(self.SUBSET) * 5

        warm = ExperimentCache(disk=DiskCache(tmp_path))
        rerun = run_matrix(
            self.SUBSET, verify=False, session=Session(cache=warm, preset="tiny")
        )
        # every benchmark and every result deserialised, none compiled
        assert warm.disk.hits == len(self.SUBSET) + pairs
        assert len(warm._rewrites) == 0  # no rewriting happened
        assert self._signature(rerun) == self._signature(reference)

    @pytest.mark.slow
    def test_workers_share_the_disk_root(self, tmp_path):
        # Cold run entirely inside worker processes...
        cold = ExperimentCache(disk=DiskCache(tmp_path))
        fanned = run_matrix(
            self.SUBSET, verify=False, parallel=2,
            session=Session(cache=cold, preset="tiny"),
        )
        # ...must leave a cache a fresh serial process can fully reuse:
        # cross-process sharing via the filesystem.
        warm = ExperimentCache(disk=DiskCache(tmp_path))
        rerun = run_matrix(
            self.SUBSET, verify=False, session=Session(cache=warm, preset="tiny")
        )
        assert len(warm._rewrites) == 0
        assert self._signature(rerun) == self._signature(fanned)
        reference = run_matrix(self.SUBSET, preset="tiny", verify=False)
        assert self._signature(rerun) == self._signature(reference)
