"""The benchmark's four seeded workloads, driven through the public API.

Every workload has the same shape:

``setup(ctx)``
    one-time preparation (counted in ``setup_s``);
``prepare(ctx, state)``
    per-pass preparation — a fresh session, fresh servers, fresh graph
    copies — so every pass starts cold (its median counts in
    ``setup_s``);
``run_pass(ctx, state, prepared)``
    the timed work: a fixed set of jobs, each timed and checked;
    returns ``(quality, outputs)`` — the output-quality totals and a
    comparable digest of everything the pass produced;
``extra(ctx, prepared)``
    public counters read after a traced pass (cache tiers, servers,
    flow observers);
``teardown(ctx, prepared)``
    stops whatever ``prepare`` started.

The seed only reorders or redistributes work whose total is fixed, so
every seed measures the same amount of work.
"""

from __future__ import annotations

import http.client
import importlib
import json
import pickle
import random
import shutil
import tempfile
import threading
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.analysis.report import render_table1, render_table3
from repro.analysis.runner import TABLE1_PRESETS, BenchmarkEvaluation
from repro.analysis.tables import TABLE3_CAPS
from repro.cachesvc import create_cache_server
from repro.flow import Flow, Session
from repro.serve import create_server
from repro.synth.registry import BENCHMARK_ORDER
import repro.plim.verify as verify_mod

from .metrics import Outcome, SpeedLog

# repro.mig re-exports a function named simulate over the module name.
simulate_mod = importlib.import_module("repro.mig.simulate")

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

#: opt-greedy: every suite benchmark except the three whose greedy runs
#: dominate the full-suite cost (log2 8.5 s, sin 3.3 s, mem_ctrl 1.7 s).
GREEDY_BENCHMARKS = [b for b in BENCHMARK_ORDER if b not in ("log2", "sin", "mem_ctrl")]

#: serve-mixed: the 12 benchmarks cheapest to compile at the default preset.
SERVE_BENCHMARKS = [
    "int2float", "adder", "bar", "ctrl", "dec", "priority",
    "router", "max", "i2c", "sqrt", "div", "cavlc",
]
SERVE_ARCHS = ["endurance", "blocked"]
SERVE_REQUESTS = 300
SERVE_HOT_KEYS = 30
SERVE_HOT_SHARE = 0.7
SERVE_CLIENTS = 2


@dataclass
class Context:
    """What a workload needs from the runner."""

    preset: str
    seed: int
    out_dir: Path
    outcome: Outcome
    tracer: object = None
    speed: SpeedLog = field(default_factory=SpeedLog)
    #: Probe the host's speed before and after every job, for workloads
    #: whose jobs run one at a time on the calling thread; otherwise the
    #: runner samples it at a fixed rate during each pass.
    probe_jobs: bool = True
    #: ``(start, end)`` perf-counter interval of every job.
    job_spans: List[Tuple[float, float]] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def job(self, label: str, work):
        """Run one job, between two speed probes when :attr:`probe_jobs`,
        and record its interval and verdict (thread-safe).

        A job fails when *work* raises or returns ``False``; the result
        is returned, or ``None`` for a failed job.
        """
        if self.probe_jobs:
            self.speed.probe()
        start = time.perf_counter()
        try:
            result = work()
            error = None if result is not False else "check failed"
        except Exception as exc:  # noqa: BLE001 — a failed job is a result
            result, error = None, repr(exc)
        end = time.perf_counter()
        if self.probe_jobs:
            self.speed.probe()
        with self._lock:
            self.job_spans.append((start, end))
            self.outcome.check(error is None, label if error is None else f"{label}: {error}")
        return result if error is None else None

    def latencies_ms(self) -> List[float]:
        """Job latencies in reference-speed milliseconds."""
        return [self.speed.normalize(s, e) * 1e3 for s, e in self.job_spans]


def quality(results) -> Dict[str, float]:
    """Output-quality totals over compiled programs.

    *results* holds ``(instructions, rrams, stdev, max_writes)`` tuples;
    they are summed in sorted order, so the float means do not depend on
    the seeded job order.
    """
    results = sorted(results)
    n = max(1, len(results))
    return {
        "rm3_instructions": sum(r[0] for r in results),
        "rram_devices": sum(r[1] for r in results),
        "write_stdev_mean": sum(r[2] for r in results) / n,
        "max_writes_mean": sum(r[3] for r in results) / n,
    }


def _row(compilation) -> Tuple:
    stats = compilation.stats
    return (
        compilation.num_instructions, compilation.num_rrams,
        stats.stdev, stats.max_writes,
    )


def _suite_job(ctx: Context, session: Session, name: str, config, cap=None):
    """One compile job through ``Session.evaluate_suite``, co-simulated
    (``verify=True``); returns the evaluation or ``None``."""
    return ctx.job(
        f"{name}/{config or f'wmax{cap}'}",
        lambda: session.evaluate_suite(
            [name],
            configs=[config] if config else [],
            caps=[cap] if cap else None,
            verify=True,
        )[0],
    )


def _merge(evaluations: Dict[str, BenchmarkEvaluation], evaluation) -> None:
    if evaluation is None:
        return
    known = evaluations.setdefault(evaluation.name, evaluation)
    if known is not evaluation:
        known.results.update(evaluation.results)


def _cache_extra(cache) -> Dict[str, float]:
    counters = cache.counters()
    hits, misses = counters["hits"], counters["misses"]
    return {
        "cache.memory_hits": hits,
        "cache.memory_misses": misses,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "disk.hits": counters["disk_hits"],
        "disk.misses": counters["disk_misses"],
        "disk.lock_skips": counters["disk_lock_skips"],
        **{f"cachesvc.{k}": counters[k] for k in (
            "remote_memory_hits", "remote_disk_hits",
            "remote_waits", "remote_fallbacks",
        )},
    }


class Workload:
    """Defaults of the workload shape described above."""

    name: str
    #: Jobs run one at a time on the runner's thread, so the runner may
    #: probe the host's speed between them (see ``Context.probe_jobs``).
    probe_jobs = True
    #: Traced counters that depend on thread timing; the exact-count
    #: repeat check leaves them out.
    volatile_counts: Tuple[str, ...] = ()

    def extra(self, ctx: Context, prepared) -> Dict[str, float]:
        return {}

    def teardown(self, ctx: Context, prepared) -> None:
        pass


class PaperSuite(Workload):
    """ROADMAP yardstick: evaluate_suite over 18 benchmarks x 9 configs,
    verified.  Stresses rewrite (~half) and compile (~45%); verify ~3%;
    bypasses disk cache, cachesvc and serve."""

    name = "paper-suite"

    def setup(self, ctx: Context):
        order = list(BENCHMARK_ORDER)
        random.Random(ctx.seed).shuffle(order)
        expected = {}
        for table in ("table1", "table3"):
            path = EXPECTED_DIR / f"{table}-{ctx.preset}.txt"
            if path.is_file():
                expected[table] = path.read_text(encoding="utf-8")
        return order, expected

    def prepare(self, ctx: Context, state):
        return Session(preset=ctx.preset)

    def run_pass(self, ctx: Context, state, session: Session):
        order, expected = state
        evaluations: Dict[str, BenchmarkEvaluation] = {}
        for name in order:
            for config in TABLE1_PRESETS:
                _merge(evaluations, _suite_job(ctx, session, name, config))
            for cap in TABLE3_CAPS:
                _merge(evaluations, _suite_job(ctx, session, name, None, cap))
        rows = [evaluations[n] for n in BENCHMARK_ORDER if n in evaluations]
        try:
            tables = {"table1": render_table1(rows), "table3": render_table3(rows)}
        except KeyError as error:  # a failed job left a column empty
            ctx.outcome.check(False, f"tables do not render: {error!r}")
            tables = {}
        for table, text in expected.items():
            got = tables.get(table, "").splitlines()
            want = text.splitlines()
            for index, line in enumerate(want):
                ctx.outcome.check(
                    index < len(got) and got[index] == line,
                    f"{table} row {index} differs from the expected rows",
                )
            if len(got) > len(want):
                ctx.outcome.check(False, f"{table} has extra rows")
        results = [
            _row(compilation)
            for ev in rows for _, compilation in sorted(ev.results.items())
        ]
        return quality(results), (tables, results)

    def extra(self, ctx: Context, session: Session):
        return _cache_extra(session.cache)


class ProveSuite(Workload):
    """Proves 35 compiled programs exhaustively: stresses kernel
    (equivalent) and verify (array co-simulation); rewriting only in
    setup; bypasses caches and serve."""

    name = "prove-suite"

    #: Exhaustive proofs run up to this many inputs.
    MAX_INPUTS = 20

    def setup(self, ctx: Context):
        session = Session(preset=ctx.preset)
        names = [
            name for name in BENCHMARK_ORDER
            if session.cache.benchmark_mig(name, ctx.preset).num_pis <= self.MAX_INPUTS
        ]
        programs = []
        for name in names:
            for config in TABLE1_PRESETS:
                ctx.speed.probe()  # setup_s is normalized like job times
                result = Flow.for_job(name, config, session=session).run()
                programs.append((
                    f"{name}/{config}", result.mig, result.rewritten,
                    result.program, _row(result.compilation),
                ))
        random.Random(ctx.seed).shuffle(programs)
        # Graphs memoize simulation plans; every pass proves fresh copies.
        return pickle.dumps(programs, protocol=pickle.HIGHEST_PROTOCOL)

    def prepare(self, ctx: Context, blob: bytes):
        return pickle.loads(blob)

    def run_pass(self, ctx: Context, blob: bytes, programs):
        verdicts = []
        for label, mig, rewritten, program, _ in programs:
            proved = ctx.job(
                label,
                lambda: simulate_mod.equivalent(mig, rewritten)
                and verify_mod.verify_program(
                    program, mig, exhaustive_limit=self.MAX_INPUTS
                ),
            )
            verdicts.append((label, bool(proved)))
        results = [row for *_, row in programs]
        return quality(results), (sorted(verdicts), sorted(results))


class OptGreedy(Workload):
    """Greedy write_cost optimizer on a seeded order of 15 benchmarks,
    then ea-full and its caps: stresses rewrite passes and objective
    scoring; bypasses caches and serve."""

    name = "opt-greedy"

    OPT = "greedy:write_cost"

    def setup(self, ctx: Context):
        order = list(GREEDY_BENCHMARKS)
        random.Random(ctx.seed).shuffle(order)
        return order

    def prepare(self, ctx: Context, order):
        return Session(preset=ctx.preset, opt=self.OPT)

    def run_pass(self, ctx: Context, order, session: Session):
        evaluations: Dict[str, BenchmarkEvaluation] = {}
        for name in order:
            _merge(evaluations, _suite_job(ctx, session, name, "ea-full"))
            for cap in TABLE3_CAPS:
                _merge(evaluations, _suite_job(ctx, session, name, None, cap))
        results = sorted(
            (name, label, _row(compilation))
            for name, ev in evaluations.items()
            for label, compilation in ev.results.items()
        )
        return quality(r[2] for r in results), results

    def extra(self, ctx: Context, session: Session):
        return _cache_extra(session.cache)


def draw_requests(seed: int) -> List[Dict[str, str]]:
    """The serve-mixed job sequence for *seed*.

    Every one of the 120 (benchmark, configuration, machine) keys is
    requested at least once, so each pass compiles the same programs.
    A seeded hot set of 30 keys takes 70% of the 300 requests; the
    other 90 keys are requested exactly once (first-seen).
    """
    rng = random.Random(seed)
    keys = [
        {"source": name, "config": config, "arch": arch}
        for name in SERVE_BENCHMARKS
        for config in TABLE1_PRESETS
        for arch in SERVE_ARCHS
    ]
    rng.shuffle(keys)
    hot, cold = keys[:SERVE_HOT_KEYS], keys[SERVE_HOT_KEYS:]
    repeats = round(SERVE_REQUESTS * SERVE_HOT_SHARE) - len(hot)
    requests = hot + cold + [rng.choice(hot) for _ in range(repeats)]
    rng.shuffle(requests)
    return [dict(r) for r in requests]


class _StageTotals:
    """Session observer summing flow stage seconds and cache hits."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.totals: Counter = Counter()

    def on_stage_end(self, event) -> None:
        with self.lock:
            self.totals[f"flow.{event.stage}.s"] += event.seconds or 0.0
            self.totals[f"flow.{event.stage}.cached"] += int(bool(event.cached))


@dataclass
class _Servers:
    root: str
    cache_server: object
    server: object
    threads: List[threading.Thread]
    observer: _StageTotals
    http_requests: int = 0


def _http(port: int, method: str, path: str, body: Optional[dict] = None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=180)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class ServeMixed(Workload):
    """300 seeded jobs from 2 closed-loop HTTP clients, 70% to a hot
    set: stresses serve, job store, cachesvc tiers, single-flight and
    compile; little rewriting."""

    name = "serve-mixed"
    # Two clients keep a job in flight at all times, so the speed is
    # sampled at a fixed rate instead of between jobs.
    probe_jobs = False
    # Which request finds an entry on disk rather than in the warm tier
    # depends on how the two clients interleave.
    volatile_counts = ("disk.hits", "disk.misses")

    def setup(self, ctx: Context):
        return draw_requests(ctx.seed)

    def prepare(self, ctx: Context, requests) -> _Servers:
        root = tempfile.mkdtemp(prefix="serve-", dir=ctx.out_dir)
        cache_server = create_cache_server("127.0.0.1", 0, root=root)
        session = Session(preset=ctx.preset, cache_url=cache_server.url, cache_dir=root)
        observer = session.add_observer(_StageTotals())
        server = create_server(
            "127.0.0.1", 0, session=session, workers=2, isolate=False
        )
        threads = [
            threading.Thread(target=s.serve_forever, daemon=True)
            for s in (cache_server, server)
        ]
        for thread in threads:
            thread.start()
        return _Servers(root, cache_server, server, threads, observer)

    def run_pass(self, ctx: Context, requests, servers: _Servers):
        port = servers.server.server_address[1]
        lock = threading.Lock()
        position = iter(range(len(requests)))
        results: Dict[Tuple, List] = {}

        def call(method: str, path: str, body: Optional[dict] = None):
            with lock:
                servers.http_requests += 1
            return _http(port, method, path, body)

        def submit_and_wait(request) -> Tuple:
            with ctx.span("serve.submit"):
                status, body = call("POST", "/jobs", {**request, "preset": ctx.preset})
            if status != 202:
                raise RuntimeError(f"POST /jobs -> {status}")
            job = json.loads(body)["id"]
            with ctx.span("serve.wait"):
                status, _ = call("GET", f"/jobs/{job}/events?timeout=120")
            if status != 200:
                raise RuntimeError(f"GET events -> {status}")
            with ctx.span("serve.result"):
                status, body = call("GET", f"/jobs/{job}")
            payload = json.loads(body)
            if status != 200 or payload["status"] != "done":
                raise RuntimeError(f"job {job} ended {payload.get('status')}")
            result = payload["result"]
            if result["verified_patterns"] < 1:
                raise RuntimeError(f"job {job} was not co-simulated")
            return (
                result["instructions"], result["rrams"],
                result["stats"]["stdev"], result["stats"]["max_writes"],
            )

        def one(request) -> None:
            key = (request["source"], request["config"], request["arch"])
            row = ctx.job("/".join(key), lambda: submit_and_wait(request))
            if row is not None:
                with lock:
                    results.setdefault(key, []).append(row)

        def client() -> None:
            while True:
                with lock:
                    index = next(position, None)
                if index is None:
                    return
                one(requests[index])

        clients = [threading.Thread(target=client) for _ in range(SERVE_CLIENTS)]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join()
        distinct = {}
        for key, rows in sorted(results.items()):
            ctx.outcome.check(
                all(row == rows[0] for row in rows),
                f"{'/'.join(key)} served differing results",
            )
            distinct[key] = rows[0]
        return quality(distinct.values()), sorted(distinct.items())

    def extra(self, ctx: Context, servers: _Servers):
        svc = servers.cache_server.stats_payload()
        jobs = servers.server.store.counts()
        return {
            **_cache_extra(servers.server.session.cache),
            "cachesvc.duplicate_puts": svc["duplicate_puts"],
            "cachesvc.verify_rejects": svc["verify_rejects"],
            "serve.http_requests": servers.http_requests,
            "serve.coalesced": jobs["coalesced"],
            "serve.jobs_failed": jobs["failed"],
            **servers.observer.totals,
        }

    def teardown(self, ctx: Context, servers: _Servers) -> None:
        servers.server.shutdown()
        servers.server.close()
        servers.cache_server.close()
        for thread in servers.threads:
            thread.join(timeout=30)
        shutil.rmtree(servers.root, ignore_errors=True)


WORKLOADS = {w.name: w for w in (PaperSuite(), ProveSuite(), OptGreedy(), ServeMixed())}
