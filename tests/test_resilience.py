"""Tests for the resilience layer (repro.resilience + its integration).

The fault-injection harness plants *real* faults — a worker calling
``os._exit`` mid-job, a torn cache blob, a failing job — so these tests
exercise the actual recovery paths: supervised retries, pool respawns,
cache fallbacks, manifest provenance, and the acceptance
criterion that a faulted parallel run produces artefacts byte-identical
to a fault-free serial run.
"""

import hashlib
import os
import pathlib

import pytest

from repro.analysis import runner
from repro.analysis.diskcache import DiskCache
from repro.flow import Session
from repro.resilience import (
    PermanentFault,
    RetriesExhaustedError,
    RetryPolicy,
    StageTimeoutError,
    TransientFault,
    Timeouts,
    WorkerCrashError,
    call_with_retry,
    classify_transient,
    events,
    iter_manifests,
    load_manifest,
    manifest_path,
    parse_faults,
    resolve_timeouts,
    time_limit,
    verify_manifest,
    write_manifest,
)
from repro.resilience import faults
from repro.resilience.manifest import append_manifest_events, build_manifest
from repro.resilience.timeouts import checkpoint

SUBSET = ["adder", "dec", "ctrl"]
FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@pytest.fixture(autouse=True)
def _clean_resilience_state(monkeypatch):
    """Isolate every test: no ambient fault spec, fresh plan cache/log."""
    monkeypatch.delenv(faults.FAULTS_ENV_VAR, raising=False)
    monkeypatch.delenv(faults.LEDGER_ENV_VAR, raising=False)
    monkeypatch.delenv("REPRO_TIMEOUT", raising=False)
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


def _result_signature(evaluation):
    """Comparable digest of one evaluation (programs incl. write counts)."""
    return {
        key: (
            res.num_instructions,
            res.num_rrams,
            tuple(res.program.write_counts()),
        )
        for key, res in evaluation.results.items()
    }


def _artefact_digests(root):
    """Map of cache-entry filename -> SHA-256 under one cache root."""
    digests = {}
    for path in pathlib.Path(root).rglob("*.pkl"):
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


class TestClassifyTransient:
    def test_repro_errors_are_authoritative(self):
        assert classify_transient(TransientFault("x"))
        assert not classify_transient(PermanentFault("x"))
        assert classify_transient(WorkerCrashError("adder", 1))
        assert not classify_transient(StageTimeoutError("compile", 30.0))
        assert not classify_transient(
            RetriesExhaustedError("adder", 3, TransientFault("x"))
        )

    def test_foreign_process_and_io_failures_are_transient(self):
        from concurrent.futures.process import BrokenProcessPool

        assert classify_transient(BrokenProcessPool("pool died"))
        assert classify_transient(OSError("disk hiccup"))
        assert classify_transient(EOFError())
        assert classify_transient(ConnectionError())

    def test_fatal_and_deterministic_failures_are_not(self):
        assert not classify_transient(KeyboardInterrupt())
        assert not classify_transient(MemoryError())
        assert not classify_transient(SystemExit(1))
        assert not classify_transient(ValueError("bad input"))
        assert not classify_transient(TypeError("bug"))


class TestRetryPolicy:
    def test_delays_are_deterministic(self):
        policy = RetryPolicy(attempts=5, base=0.05, jitter=0.25)
        first = [policy.delay(n, key=("adder",)) for n in (1, 2, 3)]
        again = [policy.delay(n, key=("adder",)) for n in (1, 2, 3)]
        assert first == again

    def test_exponential_growth_and_cap(self):
        policy = RetryPolicy(base=0.1, factor=2.0, max_delay=0.3, jitter=0.0)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.3)  # capped
        assert policy.delay(9) == pytest.approx(0.3)

    def test_jitter_bounded_and_key_dependent(self):
        policy = RetryPolicy(base=0.1, factor=1.0, max_delay=1.0, jitter=0.25)
        a = policy.delay(1, key=("adder",))
        b = policy.delay(1, key=("dec",))
        assert 0.1 <= a <= 0.125 and 0.1 <= b <= 0.125
        assert a != b  # jitter decorrelates per key

    def test_call_with_retry_recovers_transient(self):
        calls = []
        slept = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise TransientFault("hiccup")
            return "ok"

        seen = []
        out = call_with_retry(
            flaky,
            policy=RetryPolicy(attempts=3, jitter=0.0, base=0.01),
            key=("job",),
            on_retry=lambda n, e: seen.append((n, type(e).__name__)),
            sleep=slept.append,
        )
        assert out == "ok"
        assert len(calls) == 3
        assert seen == [(1, "TransientFault"), (2, "TransientFault")]
        assert slept == [pytest.approx(0.01), pytest.approx(0.02)]

    def test_call_with_retry_permanent_propagates_first_time(self):
        calls = []

        def broken():
            calls.append(1)
            raise PermanentFault("deterministic")

        with pytest.raises(PermanentFault):
            call_with_retry(broken, sleep=lambda s: None)
        assert len(calls) == 1

    def test_call_with_retry_exhausts_into_permanent(self):
        def always():
            raise TransientFault("never better")

        with pytest.raises(RetriesExhaustedError) as excinfo:
            call_with_retry(
                always,
                policy=RetryPolicy(attempts=2, base=0.0, jitter=0.0),
                job="adder",
                sleep=lambda s: None,
            )
        assert excinfo.value.attempts == 2
        assert isinstance(excinfo.value.__cause__, TransientFault)
        assert not excinfo.value.transient  # budget spent => permanent


class TestResolveRetry:
    def test_default_policy_without_flag_or_env(self, monkeypatch):
        from repro.resilience import DEFAULT_POLICY, resolve_retry

        monkeypatch.delenv("REPRO_RETRIES", raising=False)
        assert resolve_retry() is DEFAULT_POLICY
        assert resolve_retry(None) is DEFAULT_POLICY

    def test_flag_overrides_attempt_budget(self):
        from repro.resilience import DEFAULT_POLICY, resolve_retry

        policy = resolve_retry(5)
        assert policy.attempts == 5
        assert policy.base == DEFAULT_POLICY.base  # backoff shape kept
        assert resolve_retry("7").attempts == 7

    def test_env_var_used_when_no_flag(self, monkeypatch):
        from repro.resilience import resolve_retry

        monkeypatch.setenv("REPRO_RETRIES", "4")
        assert resolve_retry().attempts == 4

    def test_flag_beats_env(self, monkeypatch):
        from repro.resilience import resolve_retry

        monkeypatch.setenv("REPRO_RETRIES", "9")
        assert resolve_retry(2).attempts == 2

    def test_default_budget_returns_shared_policy(self, monkeypatch):
        from repro.resilience import DEFAULT_POLICY, resolve_retry

        assert resolve_retry(DEFAULT_POLICY.attempts) is DEFAULT_POLICY

    def test_malformed_and_non_positive_rejected(self, monkeypatch):
        from repro.resilience import resolve_retry

        with pytest.raises(ValueError, match="invalid retry budget"):
            resolve_retry("lots")
        with pytest.raises(ValueError, match=">= 1"):
            resolve_retry(0)
        monkeypatch.setenv("REPRO_RETRIES", "nope")
        with pytest.raises(ValueError, match="invalid retry budget"):
            resolve_retry()


class TestTimeouts:
    def test_parse_bare_number_sets_stage_default(self):
        t = Timeouts.parse("30")
        assert t.limit("compile") == 30.0
        assert t.limit("verify") == 30.0
        # the whole-job budget is only ever explicit
        assert t.limit("job") is None

    def test_parse_named_entries(self):
        t = Timeouts.parse("compile=120,verify=30,job=600")
        assert t.limit("compile") == 120.0
        assert t.limit("verify") == 30.0
        assert t.limit("job") == 600.0
        assert t.limit("rewrite") is None

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            Timeouts.parse("compile=soon")
        with pytest.raises(ValueError):
            Timeouts.parse("teleport=30")
        # non-finite seconds are malformed, not unlimited
        for spec in ("nan", "inf", "1e400", "compile=nan", float("inf")):
            with pytest.raises(ValueError, match="bad timeout entry"):
                Timeouts.parse(spec)

    def test_zero_means_unlimited(self):
        assert not Timeouts.parse("0")
        assert Timeouts.parse("compile=0").limit("compile") is None

    def test_spec_round_trips(self):
        for spec in ("30", "compile=120,job=600", "15,verify=5"):
            t = Timeouts.parse(spec)
            assert Timeouts.parse(t.spec()) == t
        assert Timeouts.parse(None).spec() is None

    def test_resolution_precedence(self, monkeypatch):
        monkeypatch.setenv("REPRO_TIMEOUT", "7")
        assert resolve_timeouts("5").default == 5.0  # explicit beats env
        assert resolve_timeouts(None).default == 7.0  # env beats nothing
        monkeypatch.delenv("REPRO_TIMEOUT")
        assert resolve_timeouts(None).default is None

    def test_session_threads_timeouts(self, monkeypatch):
        monkeypatch.setenv("REPRO_TIMEOUT", "compile=40")
        session = Session(preset="tiny")
        assert session.timeouts.limit("compile") == 40.0
        explicit = Session(preset="tiny", timeouts="compile=9,job=60")
        assert explicit.timeouts.limit("compile") == 9.0
        # the spec ships to worker processes and round-trips
        assert Session.from_spec(explicit.spec()).timeouts == explicit.timeouts

    def test_time_limit_interrupts_a_wedged_loop(self):
        import time as _time

        with pytest.raises(StageTimeoutError) as excinfo:
            with time_limit(0.1, stage="compile", job="adder"):
                deadline = _time.monotonic() + 5.0
                while _time.monotonic() < deadline:
                    checkpoint()
        assert _time.monotonic() < deadline  # stopped by the checkpoint
        assert excinfo.value.stage == "compile"
        assert excinfo.value.job == "adder"
        assert not excinfo.value.transient

    def test_time_limit_none_is_noop(self):
        with time_limit(None, stage="compile"):
            pass
        with time_limit(0, stage="compile"):
            pass

    def test_time_limit_nests(self):
        import time as _time

        with time_limit(5.0, stage="job"):
            with pytest.raises(StageTimeoutError) as excinfo:
                with time_limit(0.05, stage="compile"):
                    _time.sleep(1.0)
            assert excinfo.value.stage == "compile"
            _time.sleep(0.05)  # outer budget re-armed, not expired

    def test_time_limit_expiring_at_once_raises(self):
        """A budget that runs out the moment it is set raises at the
        block's first checkpoint."""
        reached = []
        for _ in range(20):
            with pytest.raises(StageTimeoutError):
                with time_limit(1e-9, stage="compile"):
                    checkpoint()
                    reached.append(True)
        assert reached == []

    def test_time_limit_fires_off_the_main_thread(self):
        def body():
            with time_limit(0.05, stage="compile", job="adder"):
                while True:
                    checkpoint()

        error = _raised_on_a_thread(body)
        assert isinstance(error, StageTimeoutError)
        assert (error.stage, error.job, error.seconds) == (
            "compile", "adder", 0.05,
        )

    def test_outer_budget_expiring_first_names_itself(self):
        import time as _time

        with pytest.raises(StageTimeoutError) as excinfo:
            with time_limit(0.02, stage="job", job="adder"):
                with time_limit(5.0, stage="compile", job="adder"):
                    _time.sleep(0.05)
                    checkpoint()
        assert excinfo.value.stage == "job"

    def test_deadline_is_thread_local(self):
        """A budget on one thread never binds another."""
        with pytest.raises(StageTimeoutError):
            with time_limit(1e-9, stage="compile"):
                assert _raised_on_a_thread(checkpoint) is None


def _raised_on_a_thread(body):
    """Run *body* on a fresh (non-main) thread; return what it raised."""
    import threading

    raised = []

    def run():
        try:
            body()
        except BaseException as error:  # noqa: BLE001 — handed back
            raised.append(error)

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    return raised[0] if raised else None


class TestStageCheckpoints:
    """Each stage's loop stops at its next checkpoint once the budget is
    spent — on a non-main thread, and long before the loop would end."""

    BUDGET = 0.05

    @pytest.fixture
    def clock(self, monkeypatch):
        """The deadline clock, standing still until :meth:`_expire`."""
        from repro.resilience import timeouts

        now = [0.0]
        monkeypatch.setattr(timeouts, "_now", lambda: now[0])
        return now

    def _expire(self, clock):
        clock[0] += self.BUDGET * 2

    def test_rewrite_stops_at_the_next_pass(self, clock):
        from repro.mig.rewrite import rebuild
        from repro.synth.registry import build_benchmark

        mig = build_benchmark("adder", "tiny")
        passes = []
        slept = []

        def transform(new, ctx, node, children):
            if passes[-1] == 3 and not slept:
                slept.append(node)
                self._expire(clock)  # the budget runs out inside pass 3

        def body():
            with time_limit(self.BUDGET, stage="rewrite", job="adder"):
                for n in range(1000):
                    passes.append(n)
                    rebuild(mig, transform)

        error = _raised_on_a_thread(body)
        assert isinstance(error, StageTimeoutError)
        assert error.stage == "rewrite"
        # pass 3 finishes; pass 4 raises at its entry
        assert passes == [0, 1, 2, 3, 4]

    def test_compile_stops_within_one_gate_batch(self, clock, monkeypatch):
        from repro.plim import compiler
        from repro.synth.registry import build_benchmark

        mig = build_benchmark("log2", "tiny")
        assert mig.num_live_gates() > 10 + 2 * compiler.CHECKPOINT_GATES
        translated = []
        original = compiler.schedule

        def schedule(*args, **kwargs):
            # Count the gates as the translation loop draws them.
            def counting(order):
                for node in order:
                    translated.append(node)
                    if len(translated) == 10:
                        self._expire(clock)
                    yield node

            return counting(original(*args, **kwargs))

        monkeypatch.setattr(compiler, "schedule", schedule)

        def body():
            with time_limit(self.BUDGET, stage="compile", job="log2"):
                compiler.PlimCompiler().compile(mig)

        error = _raised_on_a_thread(body)
        assert isinstance(error, StageTimeoutError)
        assert error.stage == "compile"
        assert 10 < len(translated) <= 10 + compiler.CHECKPOINT_GATES

    def test_verify_stops_at_the_next_pattern_batch(self, clock, monkeypatch):
        from repro.mig.simulate import RANDOM_WIDTH
        from repro.plim import verify
        from repro.plim.compiler import PlimCompiler
        from repro.synth.registry import build_benchmark

        mig = build_benchmark("multiplier", "tiny")
        program = PlimCompiler().compile(mig)
        batches = []
        original = verify.simulate

        def simulate(*args, **kwargs):
            batches.append(True)
            self._expire(clock)
            return original(*args, **kwargs)

        monkeypatch.setattr(verify, "simulate", simulate)

        def body():
            with time_limit(self.BUDGET, stage="verify", job="multiplier"):
                verify.verify_program(
                    program, mig, patterns=4 * RANDOM_WIDTH
                )

        error = _raised_on_a_thread(body)
        assert isinstance(error, StageTimeoutError)
        assert error.stage == "verify"
        assert len(batches) == 1

    def test_flow_stage_budget_binds_off_the_main_thread(self):
        from repro.flow import Flow

        session = Session(preset="tiny", timeouts="compile=1e-6")
        error = _raised_on_a_thread(
            Flow.for_job("adder", "ea-full", session=session).run
        )
        assert isinstance(error, StageTimeoutError)
        assert (error.stage, error.job) == ("compile", "adder")

    def test_stage_budget_binds_in_a_serial_matrix(self):
        session = Session(preset="tiny", timeouts="compile=1e-9")
        with pytest.raises(StageTimeoutError) as caught:
            session.run_matrix(["adder"], ["naive"])
        assert (caught.value.stage, caught.value.job) == ("compile", "adder")

    @pytest.mark.slow
    def test_stage_budget_binds_in_matrix_workers(self):
        session = Session(preset="tiny", timeouts="compile=1e-9")
        with pytest.raises(StageTimeoutError) as caught:
            session.run_matrix(["adder", "dec"], ["naive"], parallel=2)
        assert caught.value.stage == "compile"

    def test_stage_timeout_survives_pickling(self):
        import pickle

        error = pickle.loads(
            pickle.dumps(StageTimeoutError("verify", 0.5, "dec"))
        )
        assert (error.stage, error.seconds, error.job) == ("verify", 0.5, "dec")

    @staticmethod
    def _round_trip(error):
        import pickle

        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is type(error)
        assert str(copy) == str(error)
        return copy

    def test_fault_injected_survives_pickling(self):
        error = self._round_trip(faults.FaultInjected("job_fail", "dec"))
        assert (error.point, error.job) == ("job_fail", "dec")
        assert str(error) == "injected fault at 'job_fail' on job 'dec'"

    def test_worker_crash_survives_pickling(self):
        error = self._round_trip(WorkerCrashError("dec", 2, "SIGKILL"))
        assert (error.job, error.attempt, error.detail) == ("dec", 2, "SIGKILL")

    def test_retries_exhausted_survives_pickling(self):
        error = self._round_trip(
            RetriesExhaustedError("dec", 3, TransientFault("flaky"))
        )
        assert (error.job, error.attempts) == ("dec", 3)
        assert type(error.__cause__) is TransientFault
        assert str(error.__cause__) == "flaky"


class TestFaultSpec:
    def test_parse_directives(self):
        plan = parse_faults(
            "worker_crash:job=mult4:count=2,cache_corrupt,"
            "worker_hang:seconds=0.5,job_fail:mode=permanent"
        )
        crash, corrupt, hang, fail = plan
        assert (crash.point, crash.job, crash.count) == (
            "worker_crash", "mult4", 2,
        )
        assert (corrupt.point, corrupt.job, corrupt.count) == (
            "cache_corrupt", None, 1,
        )
        assert hang.seconds == 0.5
        assert fail.mode == "permanent"
        assert crash.index != corrupt.index  # distinct ledger identities
        assert crash.ledger_id() != corrupt.ledger_id()

    def test_parse_rejects_unknown_point(self):
        with pytest.raises(ValueError, match="unknown fault point"):
            parse_faults("segfault:count=1")

    def test_parse_rejects_bad_field(self):
        with pytest.raises(ValueError, match="bad fault field"):
            parse_faults("worker_crash:sev=high")
        with pytest.raises(ValueError, match="bad fault mode"):
            parse_faults("job_fail:mode=flaky")

    def test_job_scoping(self):
        directive = parse_faults("worker_crash:job=adder")[0]
        assert directive.matches("adder")
        assert not directive.matches("dec")
        assert parse_faults("worker_crash")[0].matches("anything")


class TestFaultLedger:
    def test_count_caps_fires_within_one_plan(self, tmp_path):
        ledger = tmp_path / "ledger"
        ledger.mkdir()
        plan = faults.FaultPlan.parse("job_fail:count=2", ledger=str(ledger))
        assert plan.fire("job_fail") is not None
        assert plan.fire("job_fail") is not None
        assert plan.fire("job_fail") is None  # budget spent

    def test_budget_holds_across_plan_instances(self, tmp_path):
        """A retried worker re-parses the spec; the ledger must stop it
        from re-firing a spent count=1 fault forever."""
        ledger = tmp_path / "ledger"
        ledger.mkdir()
        first = faults.FaultPlan.parse("worker_crash", ledger=str(ledger))
        assert first.fire("worker_crash", "adder") is not None
        # a fresh plan (fresh process) sharing the ledger sees it spent
        second = faults.FaultPlan.parse("worker_crash", ledger=str(ledger))
        assert second.fire("worker_crash", "adder") is None

    def test_local_budget_without_ledger(self):
        plan = faults.FaultPlan.parse("job_fail:count=1", ledger=None)
        assert plan.fire("job_fail") is not None
        assert plan.fire("job_fail") is None

    def test_fire_records_event(self, tmp_path):
        ledger = tmp_path / "ledger"
        ledger.mkdir()
        plan = faults.FaultPlan.parse("job_fail:job=adder", ledger=str(ledger))
        with events.capture() as log:
            assert plan.fire("job_fail", "dec") is None  # wrong job
            assert plan.fire("job_fail", "adder") is not None
        assert [e["kind"] for e in log] == ["fault_injected"]
        assert log[0]["job"] == "adder"

    def test_unfired_directives_are_reported(self, tmp_path):
        ledger = tmp_path / "ledger"
        spec = "job_fail:job=adder:count=2,cache_io:count=1,worker_hang:job=dec"
        # nothing fired yet, not even a ledger directory
        assert [
            (d.point, fires) for d, fires in faults.unfired(spec, str(ledger))
        ] == [("job_fail", 0), ("cache_io", 0), ("worker_hang", 0)]
        plan = faults.FaultPlan.parse(spec, ledger=str(ledger))
        assert plan.fire("job_fail", "adder") is not None
        assert plan.fire("cache_io", "bar") is not None
        assert [
            (d.point, fires) for d, fires in faults.unfired(spec, str(ledger))
        ] == [("job_fail", 1), ("worker_hang", 0)]
        assert plan.fire("job_fail", "adder") is not None
        assert plan.fire("worker_hang", "dec") is not None
        assert faults.unfired(spec, str(ledger)) == []

    def test_active_plan_exports_ledger(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV_VAR, "job_fail:count=1")
        faults._CACHED = None
        plan = faults.active_plan()
        assert plan is not None and plan.ledger is not None
        # exported so forked pool workers share the fire budget
        assert os.environ[faults.LEDGER_ENV_VAR] == plan.ledger


class TestEvents:
    def test_capture_scopes_collection(self):
        with events.capture() as outer:
            events.record("retry", job="adder", attempt=1)
            with events.capture() as inner:
                events.record("pool_respawn", jobs=["dec"])
            events.record("retry", job="dec", attempt=1)
        assert [e["kind"] for e in outer] == ["retry", "pool_respawn", "retry"]
        assert [e["kind"] for e in inner] == ["pool_respawn"]

    def test_snapshot_filters(self):
        events.record("retry", job="adder", attempt=1)
        events.record("cache_fallback", job="dec", url="http://x")
        assert [
            e["job"] for e in events.snapshot(kind="retry")
        ] == ["adder"]
        assert [
            e["kind"] for e in events.snapshot(job="dec")
        ] == ["cache_fallback"]

    def test_log_keeps_the_newest_events_and_sinks_see_all(self):
        extra = 5
        with events.capture() as log:
            for i in range(events.MAX_EVENTS + extra):
                events.record("retry", attempt=i)
        assert len(log) == events.MAX_EVENTS + extra
        kept = [e["attempt"] for e in events.snapshot()]
        assert kept == list(range(extra, events.MAX_EVENTS + extra))


class TestManifest:
    def _store_one(self, tmp_path, payload="payload"):
        disk = DiskCache(tmp_path / "cache")
        key = ("result", "adder", "tiny", "cfg")
        disk.store(
            key,
            payload,
            manifest={
                "benchmark": "adder",
                "config": "naive",
                "verified_patterns": 64,
                "events": [{"kind": "retry", "job": "adder", "attempt": 1}],
            },
        )
        return disk, key, disk.entry_path(key)

    def test_store_writes_validating_sidecar(self, tmp_path):
        disk, key, entry = self._store_one(tmp_path)
        sidecar = manifest_path(entry)
        assert sidecar.is_file()
        manifest = load_manifest(entry)
        assert manifest["benchmark"] == "adder"
        assert manifest["artefact"]["sha256"] == hashlib.sha256(
            entry.read_bytes()
        ).hexdigest()
        assert [e["kind"] for e in manifest["events"]] == ["retry"]
        assert verify_manifest(sidecar) == []

    def test_verify_flags_tampered_artefact(self, tmp_path):
        disk, key, entry = self._store_one(tmp_path)
        entry.write_bytes(entry.read_bytes() + b"garbage")
        problems = verify_manifest(manifest_path(entry))
        assert any("digest mismatch" in p for p in problems)
        assert any("size mismatch" in p for p in problems)

    def test_verify_flags_missing_artefact(self, tmp_path):
        disk, key, entry = self._store_one(tmp_path)
        entry.unlink()
        problems = verify_manifest(manifest_path(entry))
        assert any("missing" in p for p in problems)

    def test_append_events_merges_without_duplicates(self, tmp_path):
        disk, key, entry = self._store_one(tmp_path)
        crash = {"kind": "pool_respawn", "jobs": ["adder"]}
        assert append_manifest_events(entry, [crash])
        assert append_manifest_events(entry, [crash])  # exact dup dropped
        manifest = load_manifest(entry)
        assert [e["kind"] for e in manifest["events"]] == [
            "retry", "pool_respawn",
        ]
        assert verify_manifest(manifest_path(entry)) == []

    def test_rewrite_preserves_event_history(self, tmp_path):
        """A certificate upgrade must not erase the original run's log."""
        disk, key, entry = self._store_one(tmp_path)
        fresh = build_manifest(
            entry,
            key_repr=repr(key),
            meta={"verified_patterns": 256},
            events=[{"kind": "cache_fallback", "job": "adder"}],
        )
        write_manifest(entry, fresh)
        manifest = load_manifest(entry)
        assert manifest["verified_patterns"] == 256
        assert [e["kind"] for e in manifest["events"]] == [
            "retry", "cache_fallback",
        ]

    def test_iter_manifests_scopes_by_fingerprint(self, tmp_path):
        disk, key, entry = self._store_one(tmp_path)
        found = list(iter_manifests(disk.root))
        assert len(found) == 1
        assert found[0][1]["benchmark"] == "adder"
        assert list(iter_manifests(disk.root, fingerprint="0" * 64)) == []
        assert list(
            iter_manifests(disk.root, fingerprint=disk.fingerprint)
        ) == found

    def test_unreadable_sidecar_surfaces_in_iteration(self, tmp_path):
        disk, key, entry = self._store_one(tmp_path)
        manifest_path(entry).write_text("{torn")
        ((path, manifest),) = iter_manifests(disk.root)
        assert manifest == {}
        assert verify_manifest(path) == ["manifest unreadable or not valid JSON"]


class TestDiskCacheChaos:
    def test_injected_corruption_is_a_miss_then_heals(
        self, tmp_path, monkeypatch
    ):
        disk = DiskCache(tmp_path / "cache")
        key = ("result", "adder", "tiny")
        disk.store(key, {"v": 1})
        _arm(monkeypatch, tmp_path, "cache_corrupt:job=adder:count=1")
        assert disk.load(key) is None  # corrupt => miss, never data
        assert disk.load(key) == {"v": 1}  # budget spent, file intact

    def test_injected_store_io_fault_skips_persist(
        self, tmp_path, monkeypatch
    ):
        disk = DiskCache(tmp_path / "cache")
        key = ("result", "adder", "tiny")
        _arm(monkeypatch, tmp_path, "cache_io:job=adder:count=1")
        disk.store(key, {"v": 1})  # swallowed, no crash
        faults._CACHED = None
        assert disk.load(key) is None
        disk.store(key, {"v": 1})  # budget spent: persists now
        assert disk.load(key) == {"v": 1}

    def test_store_releases_lock_after_io_fault(self, tmp_path, monkeypatch):
        disk = DiskCache(tmp_path / "cache")
        key = ("result", "adder", "tiny")
        _arm(monkeypatch, tmp_path, "cache_io:job=adder:count=1")
        disk.store(key, {"v": 1})
        lock = disk.entry_path(key).with_suffix(".lock")
        assert not lock.exists()  # a failed write never wedges siblings


class TestSupervisedRunner:
    def test_serial_retry_recovers_transient_job_fault(
        self, tmp_path, monkeypatch
    ):
        baseline = Session(preset="tiny").run_matrix(SUBSET, ["naive"])
        _arm(monkeypatch, tmp_path, "job_fail:job=dec:count=1")
        with events.capture() as log:
            faulted = Session(preset="tiny").run_matrix(SUBSET, ["naive"])
        retries = [e for e in log if e["kind"] == "retry"]
        assert [e["job"] for e in retries] == ["dec"]
        assert "FaultInjected" in retries[0]["error"]
        for reference, survivor in zip(baseline, faulted):
            assert _result_signature(survivor) == _result_signature(reference)

    def test_serial_permanent_fault_propagates(self, tmp_path, monkeypatch):
        _arm(monkeypatch, tmp_path, "job_fail:job=dec:mode=permanent")
        with pytest.raises(PermanentFault):
            Session(preset="tiny").run_matrix(SUBSET, ["naive"])

    def test_serial_exhausted_budget_surfaces(self, tmp_path, monkeypatch):
        _arm(monkeypatch, tmp_path, "job_fail:job=dec:count=99")
        monkeypatch.setattr(
            runner, "DEFAULT_POLICY",
            RetryPolicy(attempts=2, base=0.0, jitter=0.0),
        )
        with pytest.raises(RetriesExhaustedError) as excinfo:
            Session(preset="tiny").run_matrix(SUBSET, ["naive"])
        assert excinfo.value.attempts == 2

    def test_renamed_netlist_manifest_keeps_job_events(
        self, tmp_path, monkeypatch
    ):
        """Jobs record events under their source's name (the file stem),
        which differs from the graph name when a netlist's ``.model``
        name does; the manifest must still carry the job's events."""
        netlist = tmp_path / "fa_copy.blif"
        netlist.write_bytes((FIXTURES / "fulladder.blif").read_bytes())
        _arm(monkeypatch, tmp_path, "job_fail:job=fa_copy:count=1")
        root = tmp_path / "cache"
        Session(cache_dir=root).run_matrix([str(netlist)], ["naive"])
        ((_, manifest),) = iter_manifests(root)
        assert manifest["benchmark"] == "fulladder"
        assert [e["kind"] for e in manifest["events"]] == [
            "fault_injected", "retry",
        ]
        assert {e["job"] for e in manifest["events"]} == {"fa_copy"}

    def test_worker_crash_respawns_pool_and_completes(
        self, tmp_path, monkeypatch
    ):
        """An os._exit mid-job breaks the whole pool; the supervisor must
        respawn it, retry the lost jobs, and still complete the matrix."""
        session = Session(cache_dir=tmp_path / "cache", preset="tiny")
        _arm(monkeypatch, tmp_path, "worker_crash:job=dec:count=1")
        with events.capture() as log:
            evaluations = session.run_matrix(
                ["adder", "dec", "ctrl", "bar"], ["naive"], parallel=2
            )
        assert len(evaluations) == 4
        assert all(ev.results for ev in evaluations)
        kinds = [e["kind"] for e in log]
        assert "pool_respawn" in kinds
        respawn = next(e for e in log if e["kind"] == "pool_respawn")
        assert "dec" in respawn["jobs"]
        assert any(
            e["kind"] == "retry" and e["job"] == "dec" for e in log
        )

    def test_worker_hang_hits_job_deadline(self, tmp_path, monkeypatch):
        _arm(
            monkeypatch, tmp_path,
            "worker_hang:job=adder:count=1:seconds=30",
        )
        session = Session(
            cache_dir=tmp_path / "cache", preset="tiny", timeouts="job=1"
        )
        with pytest.raises(StageTimeoutError) as excinfo:
            session.run_matrix(["adder", "dec"], ["naive"], parallel=2)
        assert excinfo.value.stage == "job"

    def test_faulted_parallel_matches_fault_free_serial(
        self, tmp_path, monkeypatch
    ):
        """ISSUE acceptance: a parallel run surviving an injected worker
        crash, an injected transient job fault, and a corrupted cache entry
        must produce artefacts byte-identical to a fault-free serial run,
        with every run manifest validating and the recovery events on
        record."""
        benchmarks = ["adder", "dec", "ctrl", "bar"]
        configs = ["naive", "ea-full"]

        serial_root = tmp_path / "serial-cache"
        serial = Session(cache_dir=serial_root, preset="tiny").run_matrix(
            benchmarks, configs, verify=256
        )

        # The job fault targets 'bar', which is only scheduled after
        # the pool respawn: a directive aimed at a job in flight beside
        # the crashing one can have its single ledger slot claimed by a
        # worker that is then SIGTERM'd before recording the event —
        # the budget is spent, and no retry is ever observed.
        _arm(
            monkeypatch, tmp_path,
            "worker_crash:job=dec:count=1,job_fail:job=bar:count=1",
        )
        faulted_root = tmp_path / "faulted-cache"
        with events.capture() as log:
            faulted = Session(cache_dir=faulted_root, preset="tiny").run_matrix(
                benchmarks, configs, verify=256, parallel=2
            )
            # second pass over the warm cache: the corruption directive
            # garbles one read, which must degrade to a miss + recompute.
            # Armed only now, in this process: during the parallel pass
            # a retried ctrl worker reading its predecessor's entries
            # could spend the one slot where this log never sees it.
            _arm(monkeypatch, tmp_path, "cache_corrupt:job=ctrl:count=1")
            warm = Session(cache_dir=faulted_root, preset="tiny").run_matrix(
                benchmarks, configs, verify=256
            )

        # the matrix completed and matches the fault-free reference
        for reference, survivor, rewarmed in zip(serial, faulted, warm):
            assert _result_signature(survivor) == _result_signature(reference)
            assert _result_signature(rewarmed) == _result_signature(reference)

        # artefacts are byte-identical to the fault-free serial run
        assert _artefact_digests(faulted_root) == _artefact_digests(
            serial_root
        )

        # the crash and the corruption were actually injected + recovered
        injected = {
            e["point"] for e in log if e["kind"] == "fault_injected"
        }
        assert "cache_corrupt" in injected
        assert any(e["kind"] == "pool_respawn" for e in log)

        # every run manifest validates, and the recovery history is there
        manifests = list(iter_manifests(faulted_root))
        assert manifests
        for path, manifest in manifests:
            assert verify_manifest(path, manifest) == []
        recorded = {
            (e["kind"], e.get("job"))
            for _, manifest in manifests
            for e in manifest.get("events", [])
        }
        assert ("retry", "dec") in recorded  # the crashed job's retries
        assert ("retry", "bar") in recorded  # the failed job's retry
