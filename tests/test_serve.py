"""Tests for :mod:`repro.serve` — compilation-as-a-service.

Three layers, cheapest first: schema validation (no server), the job
store and queue (no sockets), and real HTTP round-trips against an
ephemeral-port server.  The E2E class holds the acceptance property:
served artefacts are byte-identical to the serial ``Flow`` path, their
manifests verify, and repeats are pure cache hits.
"""

import json
import threading
import urllib.error
import urllib.request
from contextlib import contextmanager
from types import SimpleNamespace

import pytest

from repro.flow import Flow, Session
from repro.mig.io import dumps_aiger, dumps_program
from repro.mig.graph import Mig
from repro._http import MAX_BODY_BYTES
from repro.serve import (
    JobQueue,
    SchemaError,
    create_server,
    parse_job,
)
from repro.resilience import faults
from repro.serve.jobstore import JobStore
from repro.serve import queue as queue_module
from repro.serve import routes

from .conftest import raw_status


FRONTEND_TEXT = """
@mig_function(width=3)
def masked_inc(a):
    return (a + 1) & a
"""


def tiny_session(tmp_path=None, **kwargs):
    cache_dir = None if tmp_path is None else tmp_path / "cache"
    return Session(preset="tiny", cache_dir=cache_dir, **kwargs)


def small_aag() -> str:
    mig = Mig("andgate")
    a, b = mig.add_pi("a"), mig.add_pi("b")
    mig.add_po(mig.add_and(a, b), "f")
    return dumps_aiger(mig)


@contextmanager
def running_server(tmp_path=None, session=None, **kwargs):
    if session is None:
        session = tiny_session(tmp_path)
    kwargs.setdefault("isolate", False)
    server = create_server("127.0.0.1", 0, session=session, **kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.close()
        thread.join(timeout=10)


def api(server, method, path, body=None, timeout=60):
    """One HTTP round-trip; returns (status, decoded JSON or text)."""
    data = None
    headers = {}
    if body is not None:
        data = json.dumps(body).encode("utf-8")
        headers["Content-Type"] = "application/json"
    request = urllib.request.Request(
        server.url + path, data=data, headers=headers, method=method
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            raw = response.read()
            ctype = response.headers.get("Content-Type", "")
            status = response.status
            resp_headers = dict(response.headers)
    except urllib.error.HTTPError as error:
        raw = error.read()
        ctype = error.headers.get("Content-Type", "")
        status = error.code
        resp_headers = dict(error.headers)
    if "json" in ctype and "ndjson" not in ctype:
        return status, json.loads(raw.decode("utf-8")), resp_headers
    return status, raw.decode("utf-8"), resp_headers


def wait_done(server, job_id, timeout=120):
    assert server.store.wait_terminal(job_id, timeout), (
        f"{job_id} did not finish in {timeout}s"
    )
    job = server.store.get(job_id)
    assert job.status == "done", f"{job_id} failed: {job.error}"
    return job


def serial_artifact(spec, cache_dir):
    """The batch-path artefact for *spec*, from a fresh session."""
    session = Session(preset=spec.preset, cache_dir=cache_dir)
    result = Flow.for_job(
        spec.source,
        spec.config,
        preset=spec.preset,
        arch=spec.arch,
        opt=spec.opt,
        verify=spec.verify or None,
        session=session,
    ).run()
    return dumps_program(result.compilation.program)


class TestParseJob:
    def setup_method(self):
        self.session = tiny_session()

    def parse(self, payload, **kwargs):
        return parse_job(payload, self.session, **kwargs)

    def test_minimal_request_takes_session_defaults(self):
        spec = self.parse({"source": "adder"})
        assert spec.source.name == "adder"
        assert spec.preset == "tiny"
        assert spec.config.name == "ea-full"
        assert spec.arch.name == self.session.architecture.name
        assert spec.opt.label() == self.session.optimizer.label()
        assert spec.verify == 64
        assert spec.request["source"] == "adder"

    def test_non_object_body_rejected(self):
        with pytest.raises(SchemaError, match="JSON object"):
            self.parse(["adder"])

    def test_unknown_keys_rejected(self):
        with pytest.raises(SchemaError, match="unknown request keys: wibble"):
            self.parse({"source": "adder", "wibble": 1})

    def test_exactly_one_source_kind(self):
        with pytest.raises(SchemaError, match="exactly one"):
            self.parse({})
        with pytest.raises(SchemaError, match="exactly one"):
            self.parse({
                "source": "adder",
                "netlist": {"format": ".aag", "text": small_aag()},
            })

    def test_unresolvable_source(self):
        with pytest.raises(SchemaError, match="unresolvable source"):
            self.parse({"source": "no-such-benchmark"})

    def test_bad_preset(self):
        with pytest.raises(SchemaError, match="'preset'"):
            self.parse({"source": "adder", "preset": "huge"})

    def test_unknown_config_preset(self):
        with pytest.raises(SchemaError, match="unknown configuration"):
            self.parse({"source": "adder", "config": "nope"})

    def test_wmax_builds_full_management(self):
        spec = self.parse({"source": "adder", "wmax": 25})
        assert spec.config.name == "ea-full+wmax25"

    def test_wmax_and_config_exclusive(self):
        with pytest.raises(SchemaError, match="mutually exclusive"):
            self.parse({"source": "adder", "config": "naive", "wmax": 10})

    def test_wmax_must_be_positive_int(self):
        for bad in (0, -3, True, "10"):
            with pytest.raises(SchemaError):
                self.parse({"source": "adder", "wmax": bad})

    def test_effort_override(self):
        spec = self.parse({"source": "adder", "effort": 2})
        assert spec.config.effort == 2

    def test_verify_false_skips(self):
        assert self.parse({"source": "adder", "verify": False}).verify == 0
        assert self.parse({"source": "adder", "verify": None}).verify == 0

    def test_verify_rejects_negatives_and_bools(self):
        with pytest.raises(SchemaError, match="'verify'"):
            self.parse({"source": "adder", "verify": -1})
        with pytest.raises(SchemaError, match="'verify'"):
            self.parse({"source": "adder", "verify": True})

    def test_arch_and_opt_resolution(self):
        spec = self.parse({
            "source": "adder", "arch": "blocked", "opt": "greedy:write_cost",
        })
        assert spec.arch.name == "blocked"
        assert spec.opt.label() == "greedy:write_cost"

    def test_machine_refused_config_rejected(self):
        """A pair the machine refuses fails at submit, not at compile."""
        with pytest.raises(SchemaError, match="no per-cell wear counters"):
            self.parse({"source": "adder", "config": "ea-full",
                        "arch": "dac16"})
        assert self.parse({"source": "adder", "config": "naive",
                           "arch": "dac16"}).arch.name == "dac16"

    def test_default_config_follows_the_machine(self):
        """A request without ``config`` gets the last Table I column its
        machine runs; an explicit refused one stays a 400."""
        dac16 = tiny_session(arch="dac16")
        spec = parse_job({"source": "adder"}, dac16)
        assert (spec.arch.name, spec.config.name) == ("dac16", "dac16")
        for payload in ({"source": "adder", "config": "ea-full"},
                        {"source": "adder", "wmax": 10}):
            with pytest.raises(SchemaError, match="no per-cell wear"):
                parse_job(payload, dac16)
        assert self.parse(
            {"source": "adder", "arch": "dac16"}
        ).config.name == "dac16"
        assert self.parse(
            {"source": "adder", "arch": "blocked"}
        ).config.name == "ea-full"

    def test_unknown_arch_and_opt(self):
        with pytest.raises(SchemaError, match="unknown architecture"):
            self.parse({"source": "adder", "arch": "quantum"})
        with pytest.raises(SchemaError, match="bad optimizer"):
            self.parse({"source": "adder", "opt": "sorcery:???"})

    def test_inline_netlist(self):
        spec = self.parse({
            "netlist": {"format": "aag", "text": small_aag(), "name": "mini"},
        })
        assert spec.source.name == "mini"
        assert spec.request["netlist"] == "mini"

    def test_inline_netlist_bad_text(self):
        with pytest.raises(SchemaError, match="does not parse"):
            self.parse({"netlist": {"format": ".aag", "text": "garbage"}})
        with pytest.raises(SchemaError, match="unsupported inline"):
            self.parse({"netlist": {"format": ".aig", "text": "x"}})

    def test_identical_requests_share_a_signature(self):
        body = {"source": "adder", "config": "naive"}
        assert self.parse(dict(body)).signature == \
            self.parse(dict(body)).signature
        other = self.parse({"source": "adder", "config": "naive",
                            "opt": "greedy:write_cost"})
        assert other.signature != self.parse(dict(body)).signature
        netlist = {"netlist": {"format": ".aag", "text": small_aag()}}
        assert self.parse(dict(netlist)).signature == \
            self.parse(dict(netlist)).signature

    def test_frontend_gated(self):
        with pytest.raises(SchemaError, match="--allow-frontend"):
            self.parse({"frontend": {"text": FRONTEND_TEXT}})

    def test_frontend_parses_when_allowed(self):
        spec = self.parse(
            {"frontend": {"text": FRONTEND_TEXT}}, allow_frontend=True
        )
        assert spec.source.name == "masked_inc"

    def test_frontend_must_define_exactly_one_function(self):
        with pytest.raises(SchemaError, match="exactly one"):
            self.parse({"frontend": {"text": "x = 1"}}, allow_frontend=True)

    def test_frontend_syntax_and_import_errors(self):
        with pytest.raises(SchemaError, match="does not compile"):
            self.parse({"frontend": {"text": "def ("}}, allow_frontend=True)
        with pytest.raises(SchemaError, match="raised at import"):
            self.parse(
                {"frontend": {"text": "raise RuntimeError('no')"}},
                allow_frontend=True,
            )


class TestJobStore:
    def spec(self, **overrides):
        payload = {"source": "adder"}
        payload.update(overrides)
        return parse_job(payload, tiny_session())

    def test_submit_assigns_sequential_ids(self):
        store = JobStore()
        first = store.submit(self.spec())
        second = store.submit(self.spec(config="naive"))
        assert (first.id, second.id) == ("j000001", "j000002")
        assert first.coalesced_with is None
        assert second.coalesced_with is None

    def test_duplicate_in_flight_coalesces(self):
        store = JobStore()
        primary = store.submit(self.spec())
        follower = store.submit(self.spec())
        assert follower.coalesced_with == primary.id
        assert follower.events[0]["coalesced_with"] == primary.id
        assert store.counts()["coalesced"] == 1

    def test_terminal_primary_releases_signature(self):
        store = JobStore()
        primary = store.submit(self.spec())
        store.mark_running(primary.id)
        store.finish(primary.id, result={}, artifact="",
                     manifest_entry=None)
        fresh = store.submit(self.spec())
        assert fresh.coalesced_with is None

    def test_fail_releases_signature_too(self):
        store = JobStore()
        primary = store.submit(self.spec())
        store.fail(primary.id, "boom")
        assert store.get(primary.id).error == "boom"
        assert store.submit(self.spec()).coalesced_with is None

    def test_events_are_sequenced(self):
        store = JobStore()
        job = store.submit(self.spec())
        store.mark_running(job.id)
        store.append_event(job.id, {"kind": "stage_start", "stage": "source"})
        events, terminal = store.wait_events(job.id, 0, timeout=0)
        assert [e["seq"] for e in events] == [0, 1, 2]
        assert not terminal
        store.finish(job.id, result={}, artifact="", manifest_entry=None)
        events, terminal = store.wait_events(job.id, 3, timeout=0)
        assert terminal and events[-1]["status"] == "done"

    def test_wait_events_times_out_empty(self):
        store = JobStore()
        job = store.submit(self.spec())
        events, terminal = store.wait_events(job.id, 1, timeout=0.01)
        assert events == [] and not terminal

    def test_oldest_finished_jobs_are_evicted(self, monkeypatch):
        from repro.serve import jobstore

        monkeypatch.setattr(jobstore, "MAX_TERMINAL_JOBS", 1)
        store = JobStore()
        primary = store.submit(self.spec())
        follower = store.submit(self.spec())
        assert follower.coalesced_with == primary.id
        store.finish(primary.id, result={}, artifact="", manifest_entry=None)
        other = store.submit(self.spec(config="naive"))
        store.fail(other.id, "boom")
        # the primary was evicted; the in-flight follower never is
        assert [job.id for job in store.jobs()] == [follower.id, other.id]
        with pytest.raises(KeyError):
            store.get(primary.id)
        assert store.wait_terminal(primary.id, timeout=0)
        assert store.wait_events(primary.id, 0, timeout=0) == ([], True)
        assert store.counts() == {
            "queued": 1, "running": 0, "done": 1, "failed": 1,
            "total": 3, "coalesced": 1,
        }

    def test_close_releases_waiters(self):
        store = JobStore()
        job = store.submit(self.spec())
        waiter = threading.Thread(
            target=store.wait_terminal, args=(job.id,), daemon=True
        )
        waiter.start()
        store.close()
        waiter.join(timeout=5)
        assert not waiter.is_alive()


class TestRoutesDirect:
    """Route behaviour that needs no sockets and no executors."""

    def facade(self, **overrides):
        session = tiny_session()
        store = JobStore()
        facade = SimpleNamespace(
            session=session,
            store=store,
            queue=SimpleNamespace(
                stats=lambda: {"workers": 0, "isolate": False,
                               "depth": 0, "retry_attempts": 3},
                submit=store.submit,
            ),
            allow_frontend=False,
            allow_shutdown=False,
            started_at=0.0,
            request_shutdown=lambda: None,
        )
        for key, value in overrides.items():
            setattr(facade, key, value)
        return facade

    def test_index_lists_endpoints(self):
        response = routes.handle(self.facade(), "GET", "/", {}, None)
        assert response.status == 200
        assert "POST /jobs" in response.payload["endpoints"]

    def test_healthz(self):
        response = routes.handle(self.facade(), "GET", "/healthz", {}, None)
        assert (response.status, response.payload) == (
            200, {"status": "ok"}
        )

    def test_unknown_endpoint_404(self):
        assert routes.handle(
            self.facade(), "GET", "/nope", {}, None
        ).status == 404

    def test_method_not_allowed(self):
        assert routes.handle(
            self.facade(), "POST", "/healthz", {}, None
        ).status == 405
        assert routes.handle(
            self.facade(), "GET", "/shutdown", {}, None
        ).status == 405

    def test_bad_job_schema_is_400(self):
        response = routes.handle(
            self.facade(), "POST", "/jobs", {}, {"source": "nope"}
        )
        assert response.status == 400
        assert "unresolvable" in response.payload["error"]

    def test_machine_refused_job_is_400_and_not_queued(self):
        facade = self.facade()
        response = routes.handle(
            facade, "POST", "/jobs", {},
            {"source": "adder", "config": "ea-full", "arch": "dac16"},
        )
        assert response.status == 400
        assert "dac16" in response.payload["error"]
        assert facade.store.jobs() == []

    def test_unknown_job_404(self):
        assert routes.handle(
            self.facade(), "GET", "/jobs/j999999", {}, None
        ).status == 404

    def test_artifact_conflict_before_done(self):
        facade = self.facade()
        job = facade.store.submit(
            parse_job({"source": "adder"}, facade.session)
        )
        response = routes.handle(
            facade, "GET", f"/jobs/{job.id}/artifact", {}, None
        )
        assert response.status == 409
        assert routes.handle(
            facade, "GET", f"/jobs/{job.id}/manifest", {}, None
        ).status == 409

    def test_manifest_needs_persistent_cache(self):
        facade = self.facade()
        job = facade.store.submit(
            parse_job({"source": "adder"}, facade.session)
        )
        facade.store.finish(job.id, result={}, artifact="",
                            manifest_entry=None)
        response = routes.handle(
            facade, "GET", f"/jobs/{job.id}/manifest", {}, None
        )
        assert response.status == 404
        assert "--cache-dir" in response.payload["error"]

    def test_events_query_validation(self):
        facade = self.facade()
        job = facade.store.submit(
            parse_job({"source": "adder"}, facade.session)
        )
        for query in ({"since": ["-1"]}, {"since": ["x"]},
                      {"timeout": ["-2"]}, {"timeout": ["x"]},
                      {"timeout": ["nan"]}):
            assert routes.handle(
                facade, "GET", f"/jobs/{job.id}/events", query, None
            ).status == 400

    def test_shutdown_forbidden_by_default(self):
        response = routes.handle(
            self.facade(), "POST", "/shutdown", {}, None
        )
        assert response.status == 403

    def test_shutdown_allowed_when_enabled(self):
        calls = []
        facade = self.facade(
            allow_shutdown=True,
            request_shutdown=lambda: calls.append(1),
        )
        response = routes.handle(facade, "POST", "/shutdown", {}, None)
        assert response.status == 200 and calls == [1]

    def test_stats_shape(self):
        payload = routes.stats_payload(self.facade())
        assert payload["service"] == "repro.serve"
        assert set(payload["jobs"]) >= {"queued", "running", "done",
                                        "failed", "total", "coalesced"}
        assert "misses" in payload["cache"]
        assert payload["disk"] is None  # session has no cache dir


class TestJobQueue:
    def test_pre_start_submissions_coalesce_deterministically(self, tmp_path):
        """Satellite: the same job submitted twice → exactly one compile.

        Both submissions land before the (single) executor starts, so
        the follower is guaranteed to coalesce; it must then assemble
        purely from the warm cache — zero misses at either tier.
        """
        session = tiny_session(tmp_path)
        queue = JobQueue(session, workers=1, isolate=False)
        spec = parse_job({"source": "ctrl", "verify": 16}, session)
        primary = queue.submit(spec)
        follower = queue.submit(
            parse_job({"source": "ctrl", "verify": 16}, session)
        )
        assert follower.coalesced_with == primary.id
        queue.start()
        try:
            assert queue.store.wait_terminal(follower.id, 120)
            primary = queue.store.get(primary.id)
            follower = queue.store.get(follower.id)
            assert primary.status == "done", primary.error
            assert follower.status == "done", follower.error
            # the per-job delta covers every cache counter
            assert set(primary.counters) == {
                "hits", "misses", "disk_hits", "disk_misses",
                "disk_lock_skips", "remote_memory_hits", "remote_disk_hits",
                "remote_waits", "remote_fallbacks",
            }
            assert primary.counters["misses"] > 0
            assert follower.counters["misses"] == 0
            assert follower.counters["disk_misses"] == 0
            assert follower.artifact == primary.artifact
            assert any(
                e["kind"] == "coalesce_wait" for e in follower.events
            )
        finally:
            queue.stop()

    def test_executor_failure_marks_job_failed(self, tmp_path, monkeypatch):
        session = tiny_session(tmp_path)
        queue = JobQueue(session, workers=1, isolate=False)

        def explode(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(queue_module, "run_job", explode)
        queue.start()
        try:
            job = queue.submit(parse_job({"source": "adder"}, session))
            assert queue.store.wait_terminal(job.id, 60)
            job = queue.store.get(job.id)
            assert job.status == "failed"
            assert job.error == "RuntimeError: boom"
            assert job.events[-1]["status"] == "failed"
        finally:
            queue.stop()


    @pytest.mark.parametrize("stage", ["compile", "job"])
    def test_inline_job_honours_its_budget(self, tmp_path, stage):
        """An inline job's flow runs on an executor thread; its stage
        and job budgets still bind there."""
        session = tiny_session(tmp_path, timeouts=f"{stage}=1e-6")
        queue = JobQueue(session, workers=1, isolate=False)
        queue.start()
        try:
            job = queue.submit(parse_job({"source": "adder"}, session))
            assert queue.store.wait_terminal(job.id, 60)
            job = queue.store.get(job.id)
            assert job.status == "failed"
            assert job.error.startswith(
                f"StageTimeoutError: stage {stage!r} exceeded"
            ), job.error
            assert not any(e["kind"] == "retry" for e in job.events)
        finally:
            queue.stop()


    def test_inline_job_retries_a_transient_fault(
        self, tmp_path, monkeypatch
    ):
        """A served job passes the serial fault site and is retried under
        the server's policy, like a table row."""
        monkeypatch.setenv(faults.FAULTS_ENV_VAR, "job_fail:job=adder:count=1")
        monkeypatch.setenv(faults.LEDGER_ENV_VAR, str(tmp_path / "ledger"))
        (tmp_path / "ledger").mkdir()
        monkeypatch.setattr(faults, "_CACHED", None)
        session = tiny_session(tmp_path)
        queue = JobQueue(session, workers=1, isolate=False)
        queue.start()
        try:
            job = queue.submit(parse_job({"source": "adder"}, session))
            assert queue.store.wait_terminal(job.id, 60)
            job = queue.store.get(job.id)
            assert job.status == "done", job.error
            retries = [e for e in job.events if e["kind"] == "retry"]
            assert len(retries) == 1
            assert "FaultInjected" in retries[0]["error"]
        finally:
            queue.stop()


class TestServeHTTP:
    """Real HTTP round-trips against an ephemeral-port server."""

    def test_submit_poll_fetch_lifecycle(self, tmp_path):
        with running_server(tmp_path) as server:
            status, body, _ = api(server, "POST", "/jobs",
                                  {"source": "adder", "verify": 16})
            assert status == 202
            job_id = body["id"]
            assert body["url"] == f"/jobs/{job_id}"

            job = wait_done(server, job_id)
            status, body, _ = api(server, "GET", f"/jobs/{job_id}")
            assert status == 200
            assert body["status"] == "done"
            result = body["result"]
            assert result["benchmark"] == "adder"
            assert result["config"] == "ea-full"
            assert result["verified_patterns"] == 16
            assert result["instructions"] > 0
            assert result["stats"]["total_writes"] > 0
            assert body["urls"]["artifact"] == f"/jobs/{job_id}/artifact"

            status, listing, _ = api(server, "GET", "/jobs")
            assert status == 200
            assert [j["id"] for j in listing["jobs"]] == [job_id]

            status, text, headers = api(
                server, "GET", f"/jobs/{job_id}/artifact"
            )
            assert status == 200
            assert text == job.artifact
            assert "X-Artifact-SHA256" in headers

            status, manifest, _ = api(
                server, "GET", f"/jobs/{job_id}/manifest"
            )
            assert status == 200
            assert manifest["problems"] == []
            assert manifest["manifest"]["benchmark"]

            status, stats, _ = api(server, "GET", "/stats")
            assert status == 200
            assert stats["jobs"]["done"] == 1
            assert stats["disk"]["entries"] > 0

    def test_finished_jobs_are_bounded(self, tmp_path, monkeypatch):
        from repro.serve import jobstore

        monkeypatch.setattr(jobstore, "MAX_TERMINAL_JOBS", 2)
        with running_server(tmp_path) as server:
            ids = []
            for _ in range(5):
                _, body, _ = api(server, "POST", "/jobs", {"source": "dec"})
                ids.append(body["id"])
                wait_done(server, ids[-1])
            assert [job.id for job in server.store.jobs()] == ids[-2:]
            for leaf in ("", "/events", "/artifact", "/manifest"):
                status, _, _ = api(server, "GET", f"/jobs/{ids[0]}{leaf}")
                assert status == 404
            assert api(server, "GET", f"/jobs/{ids[-1]}")[0] == 200
            _, stats, _ = api(server, "GET", "/stats")
            assert stats["jobs"]["total"] == stats["jobs"]["done"] == 5

    def test_event_stream_is_ndjson(self, tmp_path):
        with running_server(tmp_path) as server:
            _, body, _ = api(server, "POST", "/jobs",
                             {"source": "ctrl", "verify": 8})
            job_id = body["id"]
            wait_done(server, job_id)
            status, text, headers = api(
                server, "GET", f"/jobs/{job_id}/events?timeout=30"
            )
            assert status == 200
            assert "ndjson" in headers["Content-Type"]
            events = [json.loads(line) for line in text.splitlines()]
            kinds = [e["kind"] for e in events]
            assert kinds[0] == "job" and events[0]["status"] == "queued"
            assert events[-1]["kind"] == "job"
            assert events[-1]["status"] == "done"
            started = [e["stage"] for e in events
                       if e["kind"] == "stage_start"]
            ended = [e["stage"] for e in events if e["kind"] == "stage_end"]
            assert started == ["source", "rewrite", "compile", "verify"]
            assert ended == started
            assert [e["seq"] for e in events] == list(range(len(events)))

            # `since` resumes mid-stream.
            status, tail, _ = api(
                server, "GET",
                f"/jobs/{job_id}/events?since={len(events) - 1}",
            )
            assert [json.loads(line)["seq"] for line in tail.splitlines()] \
                == [len(events) - 1]

    def test_bad_json_body_is_400(self, tmp_path):
        with running_server(tmp_path) as server:
            request = urllib.request.Request(
                server.url + "/jobs", data=b"{not json",
                headers={"Content-Type": "application/json"}, method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            assert excinfo.value.code == 400

    def test_concurrent_duplicates_compile_once(self, tmp_path):
        """Satellite: N concurrent identical submissions, one compile.

        Whether a submission coalesces (overlapped the primary) or runs
        warm (arrived after it landed), at most one job may miss the
        disk tier.
        """
        with running_server(tmp_path, workers=2) as server:
            body = {"source": "ctrl", "verify": 8}
            ids = []
            lock = threading.Lock()

            def post():
                _, payload, _ = api(server, "POST", "/jobs", dict(body))
                with lock:
                    ids.append(payload["id"])

            threads = [threading.Thread(target=post) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert len(ids) == 4

            jobs = [wait_done(server, job_id) for job_id in ids]
            artifacts = {job.artifact for job in jobs}
            assert len(artifacts) == 1
            cold = [j for j in jobs if j.counters["disk_misses"] > 0]
            assert len(cold) <= 1
            followers = [j for j in jobs if j.coalesced_with is not None]
            for job in followers:
                assert job.counters["disk_misses"] == 0

    def test_repeat_submission_is_fully_cached(self, tmp_path):
        with running_server(tmp_path) as server:
            body = {"source": "adder", "verify": 8}
            _, first, _ = api(server, "POST", "/jobs", dict(body))
            cold = wait_done(server, first["id"])
            assert cold.counters["disk_misses"] > 0

            _, second, _ = api(server, "POST", "/jobs", dict(body))
            warm = wait_done(server, second["id"])
            assert warm.counters["misses"] == 0
            assert warm.counters["disk_misses"] == 0
            assert warm.artifact == cold.artifact
            stage_ends = [e for e in warm.events if e["kind"] == "stage_end"]
            assert stage_ends and all(e["cached"] for e in stage_ends)

    def test_served_artifacts_match_serial_flow(self, tmp_path):
        """Acceptance: concurrent jobs across two (arch, opt) combos are
        byte-identical to the serial Flow path and their manifests
        verify."""
        combos = [
            {"source": "adder", "verify": 8,
             "arch": "endurance", "opt": "greedy:write_cost"},
            {"source": "adder", "verify": 8,
             "arch": "blocked", "opt": "greedy:node_count"},
            {"source": "ctrl", "verify": 8,
             "arch": "endurance", "opt": "greedy:write_cost"},
            {"source": "ctrl", "verify": 8,
             "arch": "blocked", "opt": "greedy:node_count"},
        ]
        with running_server(tmp_path, workers=3) as server:
            submitted = []
            for body in combos:
                _, payload, _ = api(server, "POST", "/jobs", dict(body))
                submitted.append(payload["id"])
            jobs = [wait_done(server, job_id) for job_id in submitted]

            for body, job in zip(combos, jobs):
                spec = parse_job(dict(body), tiny_session())
                expected = serial_artifact(
                    spec, tmp_path / "serial" / job.id
                )
                assert job.artifact == expected, body
                status, manifest, _ = api(
                    server, "GET", f"/jobs/{job.id}/manifest"
                )
                assert status == 200 and manifest["problems"] == [], body

            status, stats, _ = api(server, "GET", "/stats")
            assert stats["jobs"]["done"] == len(combos)
            assert stats["queue"]["depth"] == 0

    def test_frontend_job_over_http(self, tmp_path):
        with running_server(tmp_path, allow_frontend=True) as server:
            status, body, _ = api(server, "POST", "/jobs", {
                "frontend": {"text": FRONTEND_TEXT}, "verify": 8,
            })
            assert status == 202
            job = wait_done(server, body["id"])
            assert job.result["benchmark"] == "masked_inc"

            # and the same server still refuses it once disabled
            server.allow_frontend = False
            status, body, _ = api(server, "POST", "/jobs", {
                "frontend": {"text": FRONTEND_TEXT},
            })
            assert status == 400

    @pytest.mark.parametrize(
        "length, status",
        [
            pytest.param("-1", 400, id="-1"),
            pytest.param("abc", 400, id="abc"),
            pytest.param(str(MAX_BODY_BYTES + 1), 413, id="oversize"),
        ],
    )
    def test_bad_content_length_400(self, tmp_path, length, status):
        """A negative length used to block the handler until the client
        hung up; an oversize one is refused before any byte is read."""
        with running_server(tmp_path) as server:
            assert raw_status(server, "POST", "/jobs", length) == status
            status, _, _ = api(server, "GET", "/healthz")
            assert status == 200

    def test_shutdown_endpoint(self, tmp_path):
        session = tiny_session(tmp_path)
        server = create_server(
            "127.0.0.1", 0, session=session,
            isolate=False, allow_shutdown=True,
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            status, body, _ = api(server, "POST", "/shutdown")
            assert status == 200
            thread.join(timeout=10)
            assert not thread.is_alive()
        finally:
            server.close()
            thread.join(timeout=5)


@pytest.mark.slow
class TestServeIsolated:
    """Worker-process mode: the run_matrix supervised pool per job."""

    def test_isolated_job_round_trip(self, tmp_path):
        session = tiny_session(tmp_path)
        with running_server(session=session, isolate=True,
                            workers=1) as server:
            _, body, _ = api(server, "POST", "/jobs",
                             {"source": "ctrl", "verify": 8})
            job = wait_done(server, body["id"], timeout=300)
            assert any(e["kind"] == "dispatch" and e["mode"] == "process"
                       for e in job.events)

            status, manifest, _ = api(
                server, "GET", f"/jobs/{job.id}/manifest"
            )
            assert status == 200 and manifest["problems"] == []

            _, stats, _ = api(server, "GET", "/stats")
            assert stats["queue"]["isolate"] is True
            assert stats["cache"]["workers"].get("workers", 0) >= 1

            # Warm repeat short-circuits the process dispatch entirely.
            _, again, _ = api(server, "POST", "/jobs",
                              {"source": "ctrl", "verify": 8})
            warm = wait_done(server, again["id"], timeout=120)
            assert warm.counters["disk_misses"] == 0
            assert not any(e["kind"] == "dispatch" for e in warm.events)
            assert warm.artifact == job.artifact

    def test_dispatched_job_streams_its_stages(self, tmp_path):
        """A cold isolated job is dispatched to a worker process, then
        walked from the warm cache: its stream carries every stage,
        after the dispatch, each a cache hit."""
        session = tiny_session(tmp_path)
        with running_server(session=session, isolate=True,
                            workers=1) as server:
            _, body, _ = api(server, "POST", "/jobs",
                             {"source": "adder", "verify": 8})
            job = wait_done(server, body["id"], timeout=300)
        kinds = [event["kind"] for event in job.events]
        assert kinds.count("dispatch") == 1
        dispatch = kinds.index("dispatch")
        assert not any(kind.startswith("stage") for kind in kinds[:dispatch])
        stages = [
            event for event in job.events[dispatch:]
            if event["kind"] in ("stage_start", "stage_end")
        ]
        assert [(event["kind"], event["stage"]) for event in stages] == [
            (kind, stage)
            for stage in ("source", "rewrite", "compile", "verify")
            for kind in ("stage_start", "stage_end")
        ]
        assert all(
            event["cached"] for event in stages
            if event["kind"] == "stage_end"
        )
