"""Tests of the benchmark itself: metric rules, accounting, seeded
generation, the tracer, and a tiny-preset smoke of every workload.

Run from the repository root: ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from perfbench import layers, metrics, run, workloads
from perfbench.tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


# -- percentile rule -------------------------------------------------------

def test_p90_needs_ten_samples_beyond_it():
    assert metrics.tail_percentile(list(range(1, 101)), 90) == pytest.approx(90.5, abs=0.05)
    with pytest.raises(metrics.InsufficientSamples):
        metrics.tail_percentile(list(range(1, 100)), 90)
    assert metrics.samples_needed(90) == 100
    assert metrics.samples_needed(50) == 20


def test_percentile_of_unsorted_samples():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 20
    assert metrics.tail_percentile(samples, 50) == pytest.approx(3.0)
    assert metrics.tail_percentile(samples, 90) == pytest.approx(5.0, abs=0.02)


def test_percentile_between_two_clusters_moves_smoothly():
    # 89 fast and 11 slow samples: nearest rank puts p90 on a fast one,
    # and one sample crossing over would move it to a slow one.
    fast, slow = [10.0] * 89, [20.0] * 11
    low = metrics.tail_percentile(fast + slow, 90)
    high = metrics.tail_percentile(fast[1:] + slow + [20.0], 90)
    assert 10.0 < low < high < 20.0
    assert high - low < 2.0


# -- metric names ----------------------------------------------------------

@pytest.mark.parametrize("name", ["wall_s", "rewrite.I_rl_1_3.s", "job-p90", "9x"])
def test_valid_metric_names(name):
    assert metrics.check_name(name) == name


@pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "a/b", "x" * 65, "é"])
def test_invalid_metric_names(name):
    with pytest.raises(ValueError):
        metrics.check_name(name)


def test_benchmark_file_matches_the_code():
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    for entry in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        metrics.check_name(entry["name"])
        assert UNIT.match(entry["unit"])
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"]) <= 0.25


# -- failure accounting ----------------------------------------------------

def test_failed_ratio_counts_failures_over_attempts():
    outcome = metrics.Outcome()
    assert outcome.failed_ratio == 0.0
    assert outcome.check(True, "a")
    assert not outcome.check(False, "b")
    outcome.check(True, "c")
    outcome.check(False, "d")
    assert (outcome.attempted, outcome.failed) == (4, 2)
    assert outcome.failed_ratio == 0.5
    assert outcome.errors == ["b", "d"]


def test_jobs_count_into_the_outcome():
    ctx = workloads.Context("tiny", 0, ROOT, metrics.Outcome())

    def boom():
        raise RuntimeError("http 500")

    assert ctx.job("ok", lambda: 7) == 7
    assert ctx.job("refuted", lambda: False) is None
    assert ctx.job("boom", boom) is None
    assert len(ctx.latencies_ms()) == 3
    assert (ctx.outcome.attempted, ctx.outcome.failed) == (3, 2)
    assert ctx.outcome.errors == ["refuted: check failed", "boom: RuntimeError('http 500')"]


# -- reference-speed times -------------------------------------------------

def test_speed_log_scales_intervals_by_probe_time(monkeypatch):
    monkeypatch.setattr(metrics, "SMOOTHING", 0)
    log = metrics.SpeedLog()
    assert log.normalize(0.0, 2.0) == 2.0  # no probes: measured time
    ref = metrics.REFERENCE_S
    log._probes = [(1.0, 1.0 + ref, ref), (3.0, 3.0 + 2 * ref, 2 * ref)]  # host slows down 2x
    assert log.normalize(0.0, 1.0) == pytest.approx(1.0)
    assert log.normalize(1.0 + ref, 3.0) == pytest.approx((2.0 - ref) / 1.5)
    assert log.normalize(4.0, 6.0) == pytest.approx(1.0)
    assert log.probe() > 0 and len(log._probes) == 3


def test_speed_log_leaves_probe_time_out(monkeypatch):
    monkeypatch.setattr(metrics, "SMOOTHING", 0)
    log = metrics.SpeedLog()
    ref = metrics.REFERENCE_S
    log._probes = [(1.0, 1.0 + ref, ref), (3.0, 3.0 + 2 * ref, 2 * ref)]
    assert log.normalize(1.0, 1.0 + ref) == pytest.approx(0.0)
    assert log.normalize(0.0, 4.0) == pytest.approx(
        1.0 + (2.0 - ref) / 1.5 + (1.0 - 2 * ref) / 2
    )


def test_speed_log_smooths_out_one_jittery_probe():
    log = metrics.SpeedLog()
    ref = metrics.REFERENCE_S
    log._probes = [(float(t), t + ref, ref) for t in range(10)]
    log._probes[5] = (5.0, 5.0 + ref, 3 * ref)
    assert log.normalize(4.5, 5.0) == pytest.approx(0.5)
    assert log.normalize(5.0 + ref, 5.5) == pytest.approx(0.5 - ref)


def test_concurrent_workloads_sample_instead_of_probing_jobs():
    ctx = workloads.Context("tiny", 0, ROOT, metrics.Outcome(), probe_jobs=False)
    ctx.job("ok", lambda: time.sleep(0.01))
    assert ctx.speed._probes == []
    assert ctx.latencies_ms()[0] >= 10.0  # no probes: measured time
    assert not workloads.WORKLOADS["serve-mixed"].probe_jobs
    with ctx.speed.sampling(0.01):
        time.sleep(0.2)
    assert len(ctx.speed._probes) >= 3
    assert not any(t.name == "speed-probe" for t in threading.enumerate())


def test_cpu_time_probes_do_not_count_time_spent_waiting():
    log = metrics.SpeedLog()
    idle = log.probe(5, clock=time.thread_time)
    spinning = threading.Event()

    def spin():
        while not spinning.is_set():
            sum(range(1000))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(0.0002)  # hand the GIL over many times per probe
    thread = threading.Thread(target=spin)
    thread.start()
    try:
        contended = log.probe(5, clock=time.thread_time)
    finally:
        spinning.set()
        thread.join(timeout=10)
        sys.setswitchinterval(interval)
    assert not thread.is_alive()
    assert contended < 1.5 * idle


# -- seeded generation -----------------------------------------------------

def test_serve_requests_are_seeded_and_cover_every_key():
    first, again, other = (workloads.draw_requests(s) for s in (7, 7, 8))
    assert first == again and first != other
    keys = [tuple(sorted(r.items())) for r in first]
    assert len(keys) == workloads.SERVE_REQUESTS
    assert len(set(keys)) == 120  # every key compiles once per pass
    repeated = {k for k in keys if keys.count(k) > 1}
    hot_requests = sum(1 for k in keys if k in repeated)
    assert hot_requests <= round(workloads.SERVE_REQUESTS * workloads.SERVE_HOT_SHARE)
    assert sorted(set(keys)) == sorted(set(tuple(sorted(r.items())) for r in other))


# -- tracer ----------------------------------------------------------------

class _Target:
    def outer(self):
        time.sleep(0.02)
        return self.inner()

    def inner(self):
        time.sleep(0.03)
        return 1


def test_tracer_self_time_and_restore():
    tracer = Tracer()
    original = _Target.__dict__["outer"]
    tracer.wrap(_Target, "outer", "layer.outer")
    tracer.wrap(_Target, "inner", "layer.inner", after=lambda a, k, r: tracer.count("n"))
    start = time.perf_counter()
    assert _Target().outer() == 1
    end = time.perf_counter()
    seconds, calls = tracer.self_times()
    assert calls == {"layer.outer": 1, "layer.inner": 1}
    assert 0.015 < seconds["layer.outer"] < 0.028
    assert 0.025 < seconds["layer.inner"] < 0.04
    assert tracer.counts["n"] == 1
    assert tracer.covered_seconds(start, end) == pytest.approx(end - start, abs=0.005)
    tracer.restore()
    assert _Target.__dict__["outer"] is original
    assert "inner" in _Target.__dict__


def test_greedy_commits_are_counted_once_per_improving_round():
    from repro.arch import get_architecture
    from repro.opt.engine import Optimizer
    from repro.opt.passes import candidate_passes
    from repro.synth.registry import build_benchmark

    mig = build_benchmark("ctrl", "tiny")
    counts = {}
    for spec in ("greedy:write_cost", "budget:write_cost"):
        tracer = Tracer()
        layers.install(tracer)
        try:
            Optimizer(spec, get_architecture("endurance")).run(mig, "endurance", effort=2)
        finally:
            tracer.restore()
        counts[spec] = tracer.counts
    greedy = counts["greedy:write_cost"]
    # Greedy applies every candidate once per round; every round but
    # the last, which finds no improvement, commits to one of them.
    rounds, rest = divmod(greedy["opt.candidates"], len(candidate_passes()))
    assert rest == 0 and rounds >= 2
    assert greedy["opt.accepted"] == rounds - 1
    budget = counts["budget:write_cost"]
    assert budget["opt.candidates"] > 0 and budget["opt.accepted"] == 0


def test_tracer_patches_dict_entries():
    registry = {"p": lambda x: x + 1}
    tracer = Tracer()
    original = registry["p"]
    tracer.patch(registry, "p", lambda x: x + 2)
    assert registry["p"](1) == 3
    tracer.restore()
    assert registry["p"] is original


# -- smoke -----------------------------------------------------------------

def _run(cwd: Path, workload: str, trace: int, *extra: str):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_preset_smoke(workload, trace):
    proc = _run(ROOT, workload, trace, "--preset", "tiny")
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = _run(tmp_path, "paper-suite", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- exact-count repeat check ----------------------------------------------

def test_count_drift_flags_every_differing_counter(capsys):
    assert run.count_drift({"a": 1, "b": 2}, {"a": 1, "b": 2}, "pinned") == 0
    assert run.count_drift({"a": 1, "b": 2}, {"a": 1, "b": 3}, "pinned") == 1
    assert run.count_drift({"a": 1}, {}, "pinned") == 1
    assert "count drift: b pinned 2 now 3" in capsys.readouterr().err


def test_paper_suite_counts_are_pinned():
    pinned = run.pinned_counts("paper-suite", "default")
    assert (pinned["rewrite.calls"], pinned["rewrite.noops"]) == (1074, 877)
    assert pinned["compile.calls"] == 162
    assert run.pinned_counts("paper-suite", "tiny") is None
