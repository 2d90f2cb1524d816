"""Tests for :mod:`repro.cachesvc` — the shared compile-cache service.

Layered cheapest-first: the in-memory tier and URL resolution (no
sockets), HTTP round-trips against an ephemeral-port server, the
single-flight protocol under threads, degradation of the client under a
dead server and injected ``cache_io`` faults, and finally the
cross-process properties the service exists for: a multi-process hammer
on one key compiles exactly once, and a killed lease holder never
wedges the key.
"""

import json
import multiprocessing
import os
import threading
import time
import urllib.parse
import urllib.request
from contextlib import contextmanager

import pytest

from repro._http import MAX_BODY_BYTES
from repro.analysis.cli import main as cli_main
from repro.analysis.diskcache import (
    DiskCache,
    blob_certificate,
    blob_digest,
    encode_entry,
)
from repro.cachesvc import (
    CACHE_URL_ENV_VAR,
    MemoryTier,
    RemoteCache,
    create_cache_server,
    resolve_cache_url,
)
from repro.flow import Flow, Session
from repro.resilience import StageTimeoutError, events, faults, time_limit

from .conftest import raw_status


@pytest.fixture(autouse=True)
def _clean_environment(monkeypatch):
    monkeypatch.delenv(CACHE_URL_ENV_VAR, raising=False)
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.delenv(faults.FAULTS_ENV_VAR, raising=False)
    monkeypatch.delenv(faults.LEDGER_ENV_VAR, raising=False)
    faults._CACHED = None
    events.clear()
    yield
    faults._CACHED = None
    events.clear()


def _arm(monkeypatch, tmp_path, spec):
    """Activate a $REPRO_FAULTS spec with a test-local fire ledger."""
    ledger = tmp_path / "fault-ledger"
    ledger.mkdir(exist_ok=True)
    monkeypatch.setenv(faults.FAULTS_ENV_VAR, spec)
    monkeypatch.setenv(faults.LEDGER_ENV_VAR, str(ledger))
    faults._CACHED = None
    return ledger


@contextmanager
def running_server(tmp_path, **kwargs):
    server = create_cache_server(
        port=0, root=str(tmp_path / "svc-root"), **kwargs
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.close()
        thread.join(timeout=5)


def _status(server, method, path, body=None):
    """Status of one request to *server* (HTTP errors included)."""
    request = urllib.request.Request(
        server.url + path, data=body, method=method
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status
    except urllib.error.HTTPError as error:
        with error:
            return error.code


KEY = ("result", "adder", "tiny", "ea-full")
PAYLOAD = ({"program": b"\x00" * 64, "writes": [1, 2, 3]}, 64)


# ---------------------------------------------------------------------------
# memory tier


class TestMemoryTier:
    def test_round_trip_and_counters(self):
        tier = MemoryTier(1024)
        assert tier.get(("s", "k")) is None
        assert tier.put(("s", "k"), b"x" * 10)
        assert tier.get(("s", "k")) == b"x" * 10
        assert tier.peek(("s", "k")) is not None
        stats = tier.stats()
        assert stats["entries"] == 1
        assert stats["bytes"] == 10
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_lru_eviction_to_budget(self):
        tier = MemoryTier(100)
        tier.put(("s", "a"), b"a" * 40)
        tier.put(("s", "b"), b"b" * 40)
        tier.get(("s", "a"))  # refresh a: b is now least recent
        tier.put(("s", "c"), b"c" * 40)
        assert tier.peek(("s", "a")) is not None
        assert tier.peek(("s", "b")) is None
        assert tier.peek(("s", "c")) is not None
        assert tier.stats()["evictions"] == 1
        assert tier.stats()["bytes"] <= 100

    def test_oversize_blob_refused(self):
        tier = MemoryTier(100)
        tier.put(("s", "a"), b"a" * 40)
        assert not tier.put(("s", "big"), b"x" * 200)
        assert tier.peek(("s", "a")) is not None  # nothing evicted for it

    def test_replacement_updates_byte_accounting(self):
        tier = MemoryTier(100)
        tier.put(("s", "a"), b"a" * 60)
        tier.put(("s", "a"), b"a" * 10)
        assert tier.stats()["bytes"] == 10
        assert tier.stats()["entries"] == 1


# ---------------------------------------------------------------------------
# URL resolution precedence


class TestResolveCacheUrl:
    def test_default_is_none(self):
        assert resolve_cache_url() is None

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(CACHE_URL_ENV_VAR, "http://env:1")
        assert resolve_cache_url("http://flag:2") == "http://flag:2"

    def test_env_wins_over_default(self, monkeypatch):
        monkeypatch.setenv(CACHE_URL_ENV_VAR, "http://env:1")
        assert resolve_cache_url(default="http://dflt:3") == "http://env:1"

    def test_fallback_to_default(self):
        assert resolve_cache_url(default="http://dflt:3") == "http://dflt:3"


# ---------------------------------------------------------------------------
# HTTP routes


class TestServerRoutes:
    def test_healthz_and_stats(self, tmp_path):
        with running_server(tmp_path) as server:
            with urllib.request.urlopen(server.url + "/healthz") as response:
                assert json.load(response)["status"] == "ok"
            with urllib.request.urlopen(server.url + "/stats") as response:
                stats = json.load(response)
            assert stats["service"] == "repro.cachesvc"
            assert stats["entries"] == 0
            assert set(stats["tiers"]) == {
                "memory_hits",
                "disk_hits",
                "single_flight_waits",
                "verify_rejects",
            }

    def test_round_trip_and_probe(self, tmp_path):
        with running_server(tmp_path) as server:
            client = RemoteCache(server.url)
            assert client.load(KEY) is None
            client.store(KEY, PAYLOAD)
            assert client.load(KEY) == PAYLOAD
            # First load after put comes from the warm tier.
            assert client.tier_counters()["remote_memory_hits"] == 1

    def test_warm_tier_survives_disk_loss(self, tmp_path):
        """The memory tier answers even after the disk entry vanishes."""
        with running_server(tmp_path) as server:
            client = RemoteCache(server.url)
            client.store(KEY, PAYLOAD)
            server.disk.clear(all_versions=True)
            assert client.load(KEY) == PAYLOAD

    def test_disk_tier_feeds_memory(self, tmp_path):
        """Entries persisted before the server booted are served (and
        admitted to the warm tier on first touch)."""
        root = tmp_path / "svc-root"
        shard_cache = DiskCache(root)
        shard_cache.store(KEY, PAYLOAD)
        with running_server(tmp_path) as server:
            client = RemoteCache(
                server.url, fingerprint=shard_cache.fingerprint
            )
            assert client.load(KEY) == PAYLOAD
            assert client.tier_counters()["remote_disk_hits"] == 1
            assert client.load(KEY) == PAYLOAD
            assert client.tier_counters()["remote_memory_hits"] == 1

    def test_tampered_put_rejected(self, tmp_path):
        with running_server(tmp_path) as server:
            blob = encode_entry(repr(KEY), PAYLOAD)
            tampered = blob[:-4] + b"\xff\xff\xff\xff"
            assert blob_certificate(tampered) is None
            envelope = json.dumps({
                "key": repr(KEY),
                "shard": "0" * 16,
                # Honest digest of the tampered bytes: the structural
                # check must still refuse it.
                "sha256": blob_digest(tampered),
            }).encode()
            request = urllib.request.Request(
                server.url + "/entry",
                data=envelope + b"\n" + tampered,
                method="PUT",
            )
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(request)
            assert info.value.code == 400
            assert server.counters["verify_rejects"] == 1
            assert server.stats_payload()["entries"] == 0

    def test_sha_mismatch_rejected(self, tmp_path):
        with running_server(tmp_path) as server:
            blob = encode_entry(repr(KEY), PAYLOAD)
            envelope = json.dumps({
                "key": repr(KEY),
                "shard": "0" * 16,
                "sha256": "0" * 64,
            }).encode()
            request = urllib.request.Request(
                server.url + "/entry",
                data=envelope + b"\n" + blob,
                method="PUT",
            )
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(request)
            assert info.value.code == 400
            assert server.counters["verify_rejects"] == 1

    def test_manifest_round_trip(self, tmp_path):
        with running_server(tmp_path) as server:
            client = RemoteCache(server.url)
            client.store(KEY, PAYLOAD, manifest={"benchmark": "adder"})
            manifest = server.manifest_payload(repr(KEY), client.shard)
            assert manifest is not None
            assert manifest["benchmark"] == "adder"

    def test_unknown_route_404(self, tmp_path):
        with running_server(tmp_path) as server:
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(server.url + "/nope")
            assert info.value.code == 404

    @pytest.mark.parametrize(
        "method, path, length, status",
        [
            pytest.param("PUT", "/entry", "-1", 400, id="PUT-/entry--1"),
            pytest.param(
                "POST", "/lease/release", "-1", 400,
                id="POST-/lease/release--1",
            ),
            pytest.param("PUT", "/entry", "abc", 400, id="PUT-/entry-abc"),
            pytest.param(
                "PUT", "/entry", str(MAX_BODY_BYTES + 1), 413,
                id="PUT-/entry-oversize",
            ),
        ],
    )
    def test_bad_content_length_400(
        self, tmp_path, method, path, length, status
    ):
        """A negative length used to block the handler until the client
        hung up; a non-numeric one answered 500; an oversize one is
        refused before any byte is read."""
        with running_server(tmp_path) as server:
            assert raw_status(server, method, path, length) == status
            with urllib.request.urlopen(server.url + "/healthz") as response:
                assert response.status == 200

    @pytest.mark.parametrize(
        "method, path, body",
        [
            ("PUT", "/entry", b"[]\nblob"),
            ("POST", "/lease/release", b"[]"),
            ("POST", "/lease/release", b'{"key": "k", "token": 5}'),
        ],
        ids=["entry-array", "release-array", "release-int-token"],
    )
    def test_non_object_json_400(self, tmp_path, method, path, body):
        """A JSON array used to answer 500 (``AttributeError`` on
        ``.get``)."""
        with running_server(tmp_path) as server:
            assert _status(server, method, path, body) == 400
            with urllib.request.urlopen(server.url + "/healthz") as response:
                assert response.status == 200

    def test_shard_outside_root_400(self, tmp_path):
        """The client-named shard is a directory under the root; one that
        climbs out of it, or is absolute, used to be stored there."""
        blob = encode_entry(repr(KEY), PAYLOAD)
        with running_server(tmp_path) as server:
            for shard in ("../outside", str(tmp_path / "absolute")):
                envelope = json.dumps({
                    "key": repr(KEY),
                    "shard": shard,
                    "sha256": blob_digest(blob),
                }).encode()
                assert _status(
                    server, "PUT", "/entry", envelope + b"\n" + blob
                ) == 400
                query = f"?key=k&shard={urllib.parse.quote(shard)}"
                assert _status(server, "GET", "/entry" + query) == 400
                assert _status(server, "GET", "/manifest" + query) == 400
                release = {"key": "k", "shard": shard, "token": "t"}
                assert _status(
                    server, "POST", "/lease/release",
                    json.dumps(release).encode(),
                ) == 400
            root = server.disk.root
        strays = [
            path for path in tmp_path.rglob("*.pkl")
            if root not in path.parents
        ]
        assert strays == []

    @pytest.mark.parametrize(
        "pid", ["2147483648", "0", "-1", "9" * 5000],
        ids=["past-c-int", "zero", "negative", "too-many-digits"],
    )
    def test_pid_outside_a_c_int_is_no_pid(self, tmp_path, pid):
        """The holder probe hands the PID to ``os.kill``, which takes a
        positive C ``int``; any other ``pid`` must not make every later
        flight GET for the key answer 500 while the lease lives."""
        with running_server(tmp_path) as server:

            def flight(wait, pid=None):
                query = {"key": repr(KEY), "flight": "1", "wait": wait}
                if pid is not None:
                    query["pid"] = pid
                url = server.url + "/entry?" + urllib.parse.urlencode(query)
                try:
                    urllib.request.urlopen(url, timeout=10).close()
                except urllib.error.HTTPError as error:
                    with error:
                        return error.code, json.loads(error.read())
                pytest.fail("a cold key answered 200")

            status, answer = flight("0", pid)
            assert status == 404 and answer["lease"]
            (lease,) = server._leases.values()
            assert lease.pid is None  # TTL-only
            assert flight("0.2") == (404, {"timeout": True})


# ---------------------------------------------------------------------------
# certificates never narrow


def _result(certificate):
    """A compiled-result-shaped ``(result, certificate)`` entry."""
    return {"program": b"\x00" * 16}, certificate


class TestCertificatesNeverNarrow:
    """A certificate-256 entry keeps 256 after a later certificate-128
    write on every path into a root, and a wider write lands."""

    def test_through_a_second_client(self, tmp_path):
        with running_server(tmp_path) as server:
            wide, narrow = RemoteCache(server.url), RemoteCache(server.url)
            wide.store(KEY, _result(0))
            wide.store(KEY, _result(256), certificate=256)  # upgrade
            assert narrow.load(KEY) == _result(256)
            narrow.store(KEY, _result(128), certificate=128)
            assert RemoteCache(server.url).load(KEY) == _result(256)
            assert DiskCache(server.disk.root).load(KEY) == _result(256)
            # only the narrower leaseless write counts as a duplicate
            assert server.counters["duplicate_puts"] == 1

    def test_through_server_put(self, tmp_path):
        with running_server(tmp_path) as server:
            shard = server.disk.fingerprint[:16]

            def put(certificate):
                blob = encode_entry(
                    repr(KEY), _result(certificate), certificate
                )
                return server.put(repr(KEY), shard, blob)

            def served():
                kind, blob, _tier = server.fetch(repr(KEY), shard)
                assert kind == "hit"
                return blob_certificate(blob)

            assert put(256) == (True, None)
            assert put(128) == (False, None)
            assert served() == 256
            server.memory = MemoryTier()  # the disk holds 256 as well
            assert served() == 256
            assert put(512) == (True, None)
            assert served() == 512

    def test_on_the_fallback_root(self, tmp_path):
        client = RemoteCache("http://127.0.0.1:9", root=tmp_path / "fb")
        client.store(KEY, _result(256), certificate=256)
        client.store(KEY, _result(128), certificate=128)
        assert client.load(KEY) == _result(256)
        client.store(KEY, _result(512), certificate=512)
        assert client.load(KEY) == _result(512)

    def test_racing_clients_keep_the_widest(self, tmp_path):
        import random
        import sys

        widths = [16 * i for i in range(24)]
        random.Random(7).shuffle(widths)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with running_server(tmp_path) as server:

                def writer(chunk):
                    client = RemoteCache(server.url)
                    for width in chunk:
                        client.store(KEY, _result(width), certificate=width)

                threads = [
                    threading.Thread(target=writer, args=(widths[i::6],))
                    for i in range(6)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                shard = server.disk.fingerprint[:16]
                held = server.memory.peek((shard, repr(KEY)))
                assert blob_certificate(held) == max(widths)
                assert DiskCache(server.disk.root).load(KEY) == _result(
                    max(widths)
                )
        finally:
            sys.setswitchinterval(switch)

    def test_warm_tier_never_narrows(self):
        tier = MemoryTier()
        wide = encode_entry(repr(KEY), "wide", 256)
        assert tier.put(("s", "k"), wide)
        assert not tier.put(("s", "k"), encode_entry(repr(KEY), "n", 128))
        assert tier.peek(("s", "k")) == wide

    def test_store_is_one_put(self, tmp_path, monkeypatch):
        with running_server(tmp_path) as server:
            client = RemoteCache(server.url)
            client.store(KEY, _result(0))
            methods = []
            request = client._request

            def recording(method, path, **kwargs):
                methods.append(method)
                return request(method, path, **kwargs)

            monkeypatch.setattr(client, "_request", recording)
            client.store(KEY, _result(64), certificate=64)
            assert methods == ["PUT"]


# ---------------------------------------------------------------------------
# single-flight (threads)


class TestSingleFlight:
    def test_concurrent_identical_jobs_compile_once(self, tmp_path):
        with running_server(tmp_path) as server:
            compiles = []
            waits = []

            def worker(i):
                client = RemoteCache(server.url)
                result = client.load(KEY)
                if result is None:
                    with client.flight(KEY) as resolved:
                        if resolved is not None:
                            result = resolved
                        else:
                            compiles.append(i)
                            time.sleep(0.2)  # the "compile"
                            client.store(KEY, PAYLOAD)
                            result = PAYLOAD
                assert result == PAYLOAD
                waits.append(client.tier_counters()["remote_waits"])

            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert len(compiles) == 1
            stats = server.stats_payload()
            assert stats["duplicate_puts"] == 0
            # Everyone who raced ahead of the put blocked and was served
            # in-flight; stragglers hit the warm tier with a plain load.
            assert 1 <= stats["single_flight"]["served"] <= 5
            assert stats["single_flight"]["leases"] == 1
            # A client counts a wait exactly when the server served it
            # after one.
            assert sum(waits) == stats["single_flight"]["served"]

    def test_failed_holder_releases_to_next_waiter(self, tmp_path):
        with running_server(tmp_path) as server:
            order = []

            def failing_then_succeeding(i):
                client = RemoteCache(server.url)
                with client.flight(KEY) as resolved:
                    if resolved is not None:
                        order.append((i, "served"))
                        return
                    if not order:
                        order.append((i, "failed"))
                        raise RuntimeError("compile blew up")
                    order.append((i, "compiled"))
                    client.store(KEY, PAYLOAD)

            first = threading.Thread(
                target=lambda: pytest.raises(
                    RuntimeError, failing_then_succeeding, 0
                )
            )
            first.start()
            first.join(timeout=10)
            # The failed holder released its lease; the key is free.
            failing_then_succeeding(1)
            assert (1, "compiled") in order
            assert server.stats_payload()["entries"] == 1

    def test_wait_timeout_returns_timeout(self, tmp_path):
        with running_server(tmp_path) as server:
            kind, data, _tier = server.fetch(
                repr(KEY), "0" * 16, flight=True, wait=0
            )
            assert kind == "lease"
            # A second flight with a tiny wait cannot get the held lease.
            kind, _data, _tier = server.fetch(
                repr(KEY), "0" * 16, flight=True, wait=0.3
            )
            assert kind == "timeout"
            assert server.counters["flight_timeouts"] == 1

    def test_flight_wait_ends_with_the_stage_budget(self, tmp_path):
        """A waiter's long poll is capped at its remaining budget, not
        the client's ``flight_wait``."""
        with running_server(tmp_path) as server:
            holder = RemoteCache(server.url)
            waiter = RemoteCache(server.url, flight_wait=600.0)
            with holder.flight(KEY) as resolved:
                assert resolved is None  # the holder keeps the lease
                start = time.monotonic()
                with pytest.raises(StageTimeoutError):
                    with time_limit(0.3, stage="compile", job="adder"):
                        with waiter.flight(KEY) as waited:
                            assert waited is None
                assert time.monotonic() - start < 5.0
            assert server.counters["flight_timeouts"] == 1

    def test_lease_break_on_dead_pid(self, tmp_path):
        with running_server(tmp_path) as server:
            # Burn a PID that is guaranteed dead by the probe time.
            probe = multiprocessing.Process(target=lambda: None)
            probe.start()
            probe.join()
            kind, _data, _tier = server.fetch(
                repr(KEY), "0" * 16, flight=True, wait=0, pid=probe.pid
            )
            assert kind == "lease"
            kind, data, _tier = server.fetch(
                repr(KEY), "0" * 16, flight=True, wait=5
            )
            assert kind == "lease"  # broken and re-granted, not timeout
            assert server.counters["lease_breaks"] == 1

    def test_lease_break_on_ttl_expiry(self, tmp_path):
        with running_server(tmp_path, lease_timeout=0.2) as server:
            kind, _data, _tier = server.fetch(
                repr(KEY), "0" * 16, flight=True, wait=0
            )
            assert kind == "lease"
            kind, _data, _tier = server.fetch(
                repr(KEY), "0" * 16, flight=True, wait=5
            )
            assert kind == "lease"
            assert server.counters["lease_breaks"] == 1


# ---------------------------------------------------------------------------
# client degradation


class TestClientDegradation:
    def test_dead_server_falls_back_to_disk(self, tmp_path):
        client = RemoteCache(
            "http://127.0.0.1:9", root=tmp_path / "fallback"
        )
        assert client.load(KEY) is None
        client.store(KEY, PAYLOAD)
        assert client.load(KEY) == PAYLOAD
        assert client.tier_counters()["remote_fallbacks"] >= 1
        assert events.snapshot(kind="cache_fallback")

    def test_fallback_artefact_byte_identical_to_direct_disk(self, tmp_path):
        client = RemoteCache(
            "http://127.0.0.1:9", root=tmp_path / "fallback"
        )
        client.store(KEY, PAYLOAD)
        direct = DiskCache(tmp_path / "direct")
        direct.store(KEY, PAYLOAD)
        via_client = client.entry_path(KEY).read_bytes()
        via_disk = direct.entry_path(KEY).read_bytes()
        assert via_client == via_disk

    def test_injected_cache_io_fault_degrades(
        self, tmp_path, monkeypatch
    ):
        _arm(monkeypatch, tmp_path, "cache_io:count=1")
        with running_server(tmp_path) as server:
            client = RemoteCache(server.url, root=tmp_path / "fallback")
            client.store(KEY, PAYLOAD)  # fault fires here -> fallback
            assert client.tier_counters()["remote_fallbacks"] == 1
            assert (tmp_path / "fallback").exists()
            fallback = DiskCache(tmp_path / "fallback")
            assert fallback.load(KEY) == PAYLOAD
            # The server never saw the put.
            assert server.stats_payload()["puts"] == 0
            assert events.snapshot(kind="cache_fallback")

    def test_server_recovers_after_cooldown(self, tmp_path):
        with running_server(tmp_path) as server:
            client = RemoteCache(
                server.url, root=tmp_path / "fallback", retry_seconds=0.0
            )
            client._mark_down(OSError("boom"), None)
            # retry_seconds=0: the next call goes straight back to the
            # server.
            client.store(KEY, PAYLOAD)
            assert server.stats_payload()["puts"] == 1

    def test_flight_degrades_to_leaseless_compute(self, tmp_path):
        client = RemoteCache("http://127.0.0.1:9", root=tmp_path / "fb")
        with client.flight(KEY) as resolved:
            assert resolved is None  # caller computes locally


# ---------------------------------------------------------------------------
# session / runner integration


class TestSessionIntegration:
    def test_session_builds_remote_cache(self, tmp_path):
        with running_server(tmp_path) as server:
            session = Session(
                cache_url=server.url, cache_dir=tmp_path / "local"
            )
            assert isinstance(session.cache.disk, RemoteCache)
            assert session.cache_url == server.url
            spec = session.spec()
            assert spec.cache_url == server.url
            rebuilt = Session.from_spec(spec)
            assert isinstance(rebuilt.cache.disk, RemoteCache)

    def test_cache_url_env_resolution(self, tmp_path, monkeypatch):
        with running_server(tmp_path) as server:
            monkeypatch.setenv(CACHE_URL_ENV_VAR, server.url)
            session = Session.from_env()
            assert isinstance(session.cache.disk, RemoteCache)
            assert session.cache_url == server.url

    def test_counters_always_carry_remote_keys(self):
        session = Session(preset="tiny")
        counters = session.cache.counters()
        for key in (
            "remote_memory_hits",
            "remote_disk_hits",
            "remote_waits",
            "remote_fallbacks",
        ):
            assert counters[key] == 0

    def test_flow_compiles_through_server(self, tmp_path):
        with running_server(tmp_path) as server:
            session = Session(preset="tiny", cache_url=server.url)
            result = (
                Flow.for_config("naive", session=session)
                .source("adder").run().compilation
            )
            assert result.num_instructions > 0
            stats = server.stats_payload()
            assert stats["puts"] > 0
            # Warm rerun from a fresh session: served, not recompiled.
            warm = Session(preset="tiny", cache_url=server.url)
            warm_result = (
                Flow.for_config("naive", session=warm)
                .source("adder").run().compilation
            )
            assert warm_result.num_instructions == result.num_instructions
            remote = warm.cache.disk
            assert remote.tier_counters()["remote_memory_hits"] > 0


class TestRequestEconomy:
    """A cold stage reads each persisted key once: the single-flight
    window is the read, and an accepted PUT ends its lease, so no
    release follows."""

    @staticmethod
    def _recording(monkeypatch):
        """Log ``(method, path, query)`` of every client request."""
        requests = []
        request = RemoteCache._request

        def recording(self, method, path, **kwargs):
            requests.append((method, path, kwargs.get("query") or {}))
            return request(self, method, path, **kwargs)

        monkeypatch.setattr(RemoteCache, "_request", recording)
        return requests

    def test_one_get_per_persisted_key(self, tmp_path, monkeypatch):
        requests = self._recording(monkeypatch)
        with running_server(tmp_path) as server:

            def run(session):
                requests.clear()
                result = (
                    Flow.for_config("ea-full", session=session)
                    .source("adder")
                    .verify(16)
                    .run()
                )
                gets = sorted(
                    (query["key"].split("'")[1], query.get("flight"))
                    for method, _path, query in requests
                    if method == "GET"
                )
                writes = sorted(
                    (method, path)
                    for method, path, _query in requests
                    if method != "GET"
                )
                cached = {
                    name: stage.cached for name, stage in result.stages.items()
                }
                return gets, writes, cached

            # one flight GET a persisted key: the window is the read
            reads = [("mig", "1"), ("result", "1"), ("rewrite", "1")]
            session = Session(cache_url=server.url, preset="tiny")
            gets, writes, cached = run(session)
            assert gets == reads
            # one PUT a key and no lease release: the compile stage
            # stores the result once, already certified, so the verify
            # stage that follows is a memory hit
            assert writes == [("PUT", "/entry")] * 3
            assert cached == {
                "source": False, "rewrite": False, "compile": False,
                "verify": True,
            }
            assert server.counters["leases"] == 3
            # A rerun is served from memory ...
            gets, writes, cached = run(session)
            assert gets == [] and all(cached.values()), cached
            # ... and a fresh session from the server, one read a key.
            gets, writes, cached = run(
                Session(cache_url=server.url, preset="tiny")
            )
            assert gets == reads
            assert writes == []
            assert all(cached.values()), cached

    def test_window_reads_the_fallback_root(self, tmp_path):
        root = tmp_path / "fallback"
        DiskCache(root).store(KEY, PAYLOAD)
        with running_server(tmp_path) as server:
            client = RemoteCache(server.url, root=root)
        with client.flight(KEY) as entry:
            assert entry == PAYLOAD
        assert client.tier_counters()["remote_fallbacks"] == 1
        assert (client.hits, client.misses) == (1, 0)


# ---------------------------------------------------------------------------
# cross-process properties


def _hammer_worker(url, root, results):
    """One contender: miss -> flight -> compile or adopt."""
    client = RemoteCache(url, root=root)
    result = client.load(KEY)
    compiled = 0
    if result is None:
        with client.flight(KEY) as resolved:
            if resolved is not None:
                result = resolved
            else:
                compiled = 1
                time.sleep(0.3)  # the "compile" other processes must skip
                client.store(KEY, PAYLOAD)
                result = PAYLOAD
    results.put((os.getpid(), compiled, result == PAYLOAD))


def _lease_and_die(url):
    """Grab the key's lease, then die without storing or releasing."""
    client = RemoteCache(url)
    status, data, _headers = client._request(
        "GET",
        "/entry",
        query={
            "key": repr(KEY),
            "shard": client.shard,
            "flight": "1",
            "wait": "0",
            "pid": str(os.getpid()),
        },
    )
    assert status == 404 and b"lease" in data
    os._exit(0)  # no release, no store: the holder is simply gone


class TestCrossProcess:
    def test_hammer_compiles_exactly_once(self, tmp_path):
        context = multiprocessing.get_context("fork")
        with running_server(tmp_path) as server:
            results = context.Queue()
            workers = [
                context.Process(
                    target=_hammer_worker,
                    args=(server.url, str(tmp_path / "fallback"), results),
                )
                for _ in range(4)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
            outcomes = [results.get(timeout=5) for _ in workers]
            compiles = sum(compiled for _pid, compiled, _ok in outcomes)
            assert compiles == 1, outcomes
            assert all(ok for _pid, _compiled, ok in outcomes)
            stats = server.stats_payload()
            assert stats["duplicate_puts"] == 0
            assert stats["single_flight"]["breaks"] == 0

    def test_killed_holder_breaks_lease(self, tmp_path):
        context = multiprocessing.get_context("fork")
        with running_server(tmp_path) as server:
            holder = context.Process(
                target=_lease_and_die, args=(server.url,)
            )
            holder.start()
            holder.join(timeout=10)
            assert holder.exitcode == 0
            # The dead holder's lease must be broken and re-granted well
            # before the 600 s TTL (the PID probe catches it).
            client = RemoteCache(server.url)
            start = time.monotonic()
            with client.flight(KEY) as resolved:
                assert resolved is None  # we now hold the lease
                client.store(KEY, PAYLOAD)
            assert time.monotonic() - start < 30
            assert server.counters["lease_breaks"] == 1
            assert client.load(KEY) == PAYLOAD

    def test_parallel_matrix_matches_serial(self, tmp_path):
        """4 workers x one shared server == the serial lockfile path."""
        serial = Session(
            preset="tiny", cache_dir=tmp_path / "serial"
        ).run_matrix(["adder", "bar"], ["naive"], verify=False)
        with running_server(tmp_path) as server:
            shared = Session(
                preset="tiny",
                cache_url=server.url,
                cache_dir=tmp_path / "svc-root",
            ).run_matrix(["adder", "bar"], ["naive"], parallel=4,
                         verify=False)
            stats = server.stats_payload()
        assert stats["duplicate_puts"] == 0

        def signature(evaluations):
            return [
                {
                    config: (
                        res.num_instructions,
                        res.num_rrams,
                        tuple(res.program.write_counts()),
                    )
                    for config, res in ev.results.items()
                }
                for ev in evaluations
            ]

        assert signature(shared) == signature(serial)


# ---------------------------------------------------------------------------
# CLI


class TestCli:
    def test_cachesvc_stats_without_url(self, capsys):
        assert cli_main(["cachesvc", "stats"]) == 2
        assert "REPRO_CACHE_URL" in capsys.readouterr().err

    def test_cachesvc_stats_json(self, tmp_path, capsys):
        with running_server(tmp_path) as server:
            RemoteCache(server.url).store(KEY, PAYLOAD)
            assert cli_main(
                ["cachesvc", "stats", "--url", server.url, "--json"]
            ) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["service"] == "repro.cachesvc"
            assert payload["puts"] == 1

    def test_cachesvc_stats_human(self, tmp_path, capsys):
        with running_server(tmp_path) as server:
            assert cli_main(
                ["cachesvc", "stats", "--url", server.url]
            ) == 0
            out = capsys.readouterr().out
            assert "warm tier" in out
            assert "duplicate compiles" in out

    def test_cache_stats_grows_tiers_section(self, tmp_path, capsys):
        with running_server(tmp_path) as server:
            client = RemoteCache(server.url)
            client.store(KEY, PAYLOAD)
            client.load(KEY)
            assert cli_main([
                "cache", "stats",
                "--cache-dir", str(tmp_path / "svc-root"),
                "--cache-url", server.url,
                "--json",
            ]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["tiers"]["memory_hits"] == 1
            assert payload["server"]["service"] == "repro.cachesvc"

    def test_cache_stats_unreachable_server_warns(self, tmp_path, capsys):
        assert cli_main([
            "cache", "stats",
            "--cache-dir", str(tmp_path / "cache"),
            "--cache-url", "http://127.0.0.1:9",
        ]) == 0
        captured = capsys.readouterr()
        assert "unreachable" in captured.err
        assert "tiers" not in captured.out
