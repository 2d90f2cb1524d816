"""Repository benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload paper-suite --seed 1 --seconds 10 --trace 0

Each run pins the environment, imports the package from ``src/``,
prepares the workload, then repeats *passes* — a fixed set of jobs on
fresh state — until ``--seconds`` of timed work (and enough job samples
for p90) have accumulated.  Times are reported in reference-speed
seconds: short probes of a fixed loop track the shared host's speed,
which drifts up to 3x within minutes (see ``metrics.SpeedLog``).  They
run around every pass, and around every job on workloads whose jobs run
one at a time on this thread; on serve-mixed, where jobs overlap, a
background thread probes every ``SAMPLE_PERIOD_S`` instead.  Probes time
CPU time, so waiting for the GIL does not count; probe time is left out
of every measured interval, and the measured times are printed on the
``info:`` line.
Every job is checked (co-simulation, equivalence, expected table rows,
HTTP status), and the last stdout line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (``wall_s`` is the median
pass time).  ``--trace 1`` runs one untraced pass and at least two
traced ones, whose layer entry points are wrapped (see ``layers.py``);
it checks that all produce identical outputs and that the traced passes
repeat each other's counts, reports drift from the pinned counts
(``expected/counts.json``), and reports the per-layer metrics; spans
and counters go to ``.perfbench_out/``.  The exit code is non-zero when
any check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.metrics import (  # noqa: E402
    Outcome, SpeedLog, check_name, samples_needed, tail_percentile,
)

OUT_DIR = ROOT / ".perfbench_out"
PINNED_COUNTS = Path(__file__).resolve().parent / "expected" / "counts.json"
WORKLOAD_NAMES = ("paper-suite", "prove-suite", "opt-greedy", "serve-mixed")

#: Reference loops per speed probe around a pass and around set-up,
#: which span many seconds between two probes.
PASS_PROBE_LOOPS = 21

#: Seconds between speed probes during a pass whose jobs overlap; each
#: probe holds the GIL for about 2% of that.
SAMPLE_PERIOD_S = 0.1

#: Output-quality totals, reported from the first pass.
QUALITY_KEYS = ("rm3_instructions", "rram_devices", "write_stdev_mean", "max_writes_mean")


def pin_environment() -> None:
    """Clear every ``REPRO_*`` knob, then pin the simulation threads.

    An ambient backend, cache, fault plan, architecture, optimizer,
    source, timeout or retry setting must not change what is measured.
    """
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_SIM_THREADS"] = str(min(2, os.cpu_count() or 1))


def import_package():
    """Import the package from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"repro imported from {repro.__file__}, not from {src}")
    from perfbench import layers, workloads

    return layers, workloads


def provenance(workload: str, seed: int) -> dict:
    import numpy
    from repro.analysis.diskcache import code_fingerprint
    from repro.mig.kernel import get_kernel, resolve_sim_threads

    try:
        top, commit = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
        if Path(top).resolve() != ROOT:
            commit = None  # an enclosing repository's commit, not ours
    except (OSError, ValueError, subprocess.SubprocessError):
        commit = None  # checkouts without git metadata
    return {
        "workload": workload,
        "seed": seed,
        "git_commit": commit,
        "code_fingerprint": code_fingerprint(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": get_kernel().name,
        "sim_threads": resolve_sim_threads(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_passes(workload, ctx, state, seconds: float, min_jobs: int, wrap=None):
    """Repeat prepare/run/teardown until *seconds* of timed work and
    *min_jobs* job samples; returns per-pass records.  The speed is
    probed here, between jobs (``Context.job``), or, where jobs overlap,
    from a sampling thread during the pass."""
    passes = []
    timed = 0.0
    while not passes or timed < seconds or len(ctx.job_spans) < min_jobs:
        ctx.speed.probe(PASS_PROBE_LOOPS)
        start = time.perf_counter()
        prepared = workload.prepare(ctx, state)
        prepared_at = time.perf_counter()
        ctx.speed.probe(PASS_PROBE_LOOPS)
        prep = ctx.speed.normalize(start, prepared_at)
        sampling = (
            nullcontext() if ctx.probe_jobs else ctx.speed.sampling(SAMPLE_PERIOD_S)
        )
        try:
            with wrap() if wrap else nullcontext(), sampling:
                begin = time.perf_counter()
                quality, outputs = workload.run_pass(ctx, state, prepared)
                end = time.perf_counter()
            extra = workload.extra(ctx, prepared)
        finally:
            workload.teardown(ctx, prepared)
        ctx.speed.probe(PASS_PROBE_LOOPS)
        timed += end - begin
        passes.append({
            "prep": prep, "begin": begin, "end": end,
            "wall": ctx.speed.normalize(begin, end), "quality": quality,
            "outputs": outputs, "extra": extra, "tracer": ctx.tracer,
        })
    return passes


def check_repeats(outcome: Outcome, passes, reference) -> None:
    """Every pass must reproduce the reference pass's outputs exactly."""
    for index, record in enumerate(passes):
        outcome.check(
            record["outputs"] == reference["outputs"],
            f"pass {index} outputs differ from the reference pass",
        )


def end_to_end(ctx, passes, import_s: float, setup_s: float) -> dict:
    """The end-to-end metrics; times are reference-speed seconds (see
    :class:`~perfbench.metrics.SpeedLog`)."""
    walls = [p["wall"] for p in passes]
    latencies = ctx.latencies_ms()
    measured = [(e - s) * 1e3 for s, e in ctx.job_spans]
    metrics = {
        "setup_s": (import_s + setup_s + statistics.median(p["prep"] for p in passes), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "jobs_per_s": (len(latencies) / sum(walls), "1/s"),
        "job_p50_ms": (tail_percentile(latencies, 50), "ms"),
        "job_p90_ms": (tail_percentile(latencies, 90), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    units = {"rm3_instructions": "count", "rram_devices": "count"}
    for key in QUALITY_KEYS:
        metrics[key] = (passes[0]["quality"][key], units.get(key, "writes"))
    print(
        f"info: {len(passes)} passes, {len(latencies)} job samples; reference-speed "
        f"pass walls {[round(w, 3) for w in walls]} s, job p50/p90 "
        f"{metrics['job_p50_ms'][0]:.2f}/{metrics['job_p90_ms'][0]:.2f} ms; measured "
        f"pass walls {[round(p['end'] - p['begin'], 3) for p in passes]} s, job p50/p90 "
        f"{tail_percentile(measured, 50):.2f}/{tail_percentile(measured, 90):.2f} ms",
        flush=True,
    )
    return metrics


def pinned_counts(workload: str, preset: str):
    """The counts recorded for *workload* at the default preset, if any."""
    if preset != "default" or not PINNED_COUNTS.is_file():
        return None
    return json.loads(PINNED_COUNTS.read_text()).get(workload)


def count_drift(reference: dict, counts: dict, label: str) -> int:
    """Counters of *reference* that *counts* does not repeat exactly."""
    drift = sorted(key for key in reference if counts.get(key) != reference[key])
    for key in drift:
        print(f"count drift: {key} {label} {reference[key]} now {counts.get(key)}",
              file=sys.stderr)
    return len(drift)


def traced(args, layers, ctx, workload, state) -> dict:
    """One untraced pass, then traced passes until at least two of them
    and *seconds* of traced work; per-layer metrics are per-pass means
    over the traced passes."""
    from perfbench.tracer import Tracer

    @contextmanager
    def install():
        ctx.tracer = Tracer()
        layers.install(ctx.tracer)
        try:
            yield
        finally:
            ctx.tracer.restore()

    untraced = run_passes(workload, ctx, state, 0.0, 0)
    passes = []
    while len(passes) < 2 or sum(p["end"] - p["begin"] for p in passes) < args.seconds:
        passes += run_passes(workload, ctx, state, 0.0, 0, wrap=install)
    check_repeats(ctx.outcome, untraced + passes, untraced[0])
    overhead = statistics.median(p["wall"] for p in passes) / untraced[0]["wall"] - 1.0
    pinned = pinned_counts(workload.name, args.preset)
    all_counts = []
    for record in passes:
        counts = layers.pass_counts(record["tracer"], record["extra"])
        counts.update(record["quality"])
        all_counts.append(counts)
    # The exact-count repeat check.  The traced passes of one run must
    # repeat each other's deterministic counts; drift from the counts
    # pinned for this workload is reported, since a change may move them.
    first = {k: v for k, v in all_counts[0].items() if k not in workload.volatile_counts}
    per_pass = []
    for index, (record, counts) in enumerate(zip(passes, all_counts)):
        repeat = count_drift(first, counts, "first traced pass")
        ctx.outcome.check(repeat == 0, f"traced pass {index} counts differ from the first")
        extra = dict(record["extra"])
        extra["trace.overhead_ratio"] = overhead
        extra["trace.count_drift"] = repeat + (
            count_drift(pinned, counts, "pinned") if pinned else 0
        )
        per_pass.append(layers.layer_metrics(
            record["tracer"], record["begin"], record["end"], extra,
        ))
    last = passes[-1]
    last["tracer"].dump(
        OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json",
        provenance=provenance(workload.name, args.seed),
        pass_counts=all_counts,
    )
    return {
        name: (statistics.fmean(p[name] for p in per_pass), unit)
        for name, unit in layers.per_layer()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--preset", default="default", choices=("tiny", "default"),
        help="benchmark width preset (tiny: smoke runs only)",
    )
    args = parser.parse_args(argv)

    speed = SpeedLog()
    speed.probe(PASS_PROBE_LOOPS)
    start = time.perf_counter()
    pin_environment()
    layers, workloads = import_package()
    imported_at = time.perf_counter()
    speed.probe(PASS_PROBE_LOOPS)
    import_s = speed.normalize(start, imported_at)

    OUT_DIR.mkdir(exist_ok=True)
    outcome = Outcome()
    workload = workloads.WORKLOADS[args.workload]
    ctx = workloads.Context(
        preset=args.preset, seed=args.seed, out_dir=OUT_DIR, outcome=outcome,
        speed=speed, probe_jobs=workload.probe_jobs,
    )
    print("provenance " + json.dumps(provenance(workload.name, args.seed)), flush=True)

    begin = time.perf_counter()
    state = workload.setup(ctx)
    end = time.perf_counter()
    speed.probe(PASS_PROBE_LOOPS)
    setup_s = speed.normalize(begin, end)

    if args.trace:
        metrics = traced(args, layers, ctx, workload, state)
    else:
        passes = run_passes(
            workload, ctx, state, args.seconds, samples_needed(90)
        )
        check_repeats(outcome, passes, passes[0])
        metrics = end_to_end(ctx, passes, import_s, setup_s)

    for error in outcome.errors[:20]:
        print(f"failed: {error}", file=sys.stderr)
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            check_name(name): {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
