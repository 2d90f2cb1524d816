"""Shared infrastructure for the benchmark harness.

Every file under ``benchmarks/`` regenerates one table or figure of the
paper.  Suite evaluations are expensive (18 benchmarks x 9 compiler
configurations), so all of them route through one session-scoped
:class:`repro.flow.Session`: each (benchmark, configuration) pair is
built, rewritten, and compiled exactly once per pytest session no matter
how many table/figure modules ask for it — in particular, the capped
Table III evaluation reuses every Table I column instead of recompiling
it.  Rendered tables are written to ``benchmarks/output/`` so a harness
run leaves the reproduced artefacts on disk.

Set ``REPRO_BENCH_PRESET=tiny`` for a fast smoke run, ``paper`` for the
paper's full widths (slow in pure Python).  ``REPRO_BENCH_PARALLEL=N``
fans the suite evaluation out over N worker processes (results are
identical to the serial run).  With ``REPRO_CACHE_DIR=<dir>`` the
session reads through / writes back to the persistent on-disk cache, so
a warm rerun of the harness deserialises instead of recompiling.  All
of these resolve through ``Session.from_env()``.

Every benchmark session additionally emits a timing artefact,
``benchmarks/output/BENCH_suite.json``: suite wall-clock per evaluation
stage, per-stage flow timings from the session's observer hooks,
the experiment cache's counters (memory, disk and remote tiers, in the
schema of ``ExperimentCache.counters``) and the simulation kernel in
use — the perf trajectory of the harness is tracked from these files.
Every ``BENCH_*.json`` carries a ``provenance`` block
(:func:`provenance`) saying which commit, how many CPUs and which
Python version produced its numbers.
"""

from __future__ import annotations

import functools
import json
import os
import pathlib
import platform
import subprocess
import time
import warnings

import pytest

from repro.flow import Session
from repro.mig.kernel import get_kernel


_BENCH_DIR = pathlib.Path(__file__).parent


def pytest_collection_modifyitems(items):
    """Mark everything collected under ``benchmarks/`` as ``bench``.

    Centralised here so new table/figure modules land in the slow lane
    (`-m "not bench"` deselects them) without per-file boilerplate.  The
    hook sees the whole session's items, hence the path filter.
    """
    for item in items:
        if _BENCH_DIR in item.path.parents:
            item.add_marker(pytest.mark.bench)

#: Benchmark widths used by the harness (see repro.synth.registry).
PRESET = os.environ.get("REPRO_BENCH_PRESET", "default")

def _parallel_from_env() -> "int | None":
    """Parse REPRO_BENCH_PARALLEL; serial when unset, <= 1, or garbage."""
    raw = os.environ.get("REPRO_BENCH_PARALLEL", "")
    if not raw:
        return None
    try:
        value = int(raw)
        if value < 0:
            raise ValueError("negative worker count")
    except ValueError as exc:
        warnings.warn(
            f"ignoring REPRO_BENCH_PARALLEL={raw!r} ({exc}); running serially",
            stacklevel=1,
        )
        return None
    return value if value > 1 else None


#: Worker processes for the suite evaluation (serial when unset/<=1).
PARALLEL = _parallel_from_env()

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"

#: One session per pytest run, shared by every benchmark module; its
#: cache is persistent across runs when REPRO_CACHE_DIR points at a
#: root.
SESSION = Session.from_env(preset=PRESET, parallel=PARALLEL)

#: The session's experiment cache — kept under its historic name for the
#: ablation modules that drive it directly.
SESSION_CACHE = SESSION.cache

#: Accumulated BENCH_suite.json content (stage timings); written out at
#: session finish.
BENCH_REPORT: dict = {"suite_seconds": {}, "stages": {}}


class _StageTimes:
    """Session observer folding flow stage events into BENCH_REPORT."""

    def on_stage_end(self, event):
        entry = BENCH_REPORT["stages"].setdefault(
            event.stage, {"events": 0, "cached": 0, "seconds": 0.0}
        )
        entry["events"] += 1
        entry["cached"] += 1 if event.cached else 0
        entry["seconds"] += event.seconds or 0.0


SESSION.add_observer(_StageTimes())


@functools.lru_cache(maxsize=None)
def suite_plain():
    """The five Table I configurations over all 18 benchmarks."""
    start = time.perf_counter()
    result = SESSION.evaluate_suite(verify=False)
    BENCH_REPORT["suite_seconds"]["plain"] = time.perf_counter() - start
    return result


@functools.lru_cache(maxsize=None)
def suite_with_caps():
    """Table I configurations plus the four Table III write caps.

    With the shared session cache this only compiles the four capped
    configurations on top of :func:`suite_plain`'s results.
    """
    from repro.analysis.tables import TABLE3_CAPS

    start = time.perf_counter()
    result = SESSION.evaluate_suite(caps=tuple(TABLE3_CAPS), verify=False)
    BENCH_REPORT["suite_seconds"]["with_caps"] = time.perf_counter() - start
    return result


def provenance() -> dict:
    """The ``provenance`` block of every ``BENCH_*.json``: git commit
    (``None`` outside a checkout), CPU count and Python version."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=_BENCH_DIR,
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "commit": commit,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
    }


def write_artifact(name: str, text: str) -> pathlib.Path:
    """Persist a rendered table under ``benchmarks/output/``."""
    OUTPUT_DIR.mkdir(exist_ok=True)
    path = OUTPUT_DIR / name
    path.write_text(text + "\n", encoding="utf-8")
    return path


def pytest_sessionfinish(session):
    """Emit ``BENCH_suite.json`` (the suite/stage story) for whatever
    actually ran."""
    if not BENCH_REPORT["suite_seconds"]:
        return
    root = getattr(SESSION.disk, "root", None)
    report = {
        "provenance": provenance(),
        "preset": PRESET,
        "parallel": PARALLEL,
        "backend": get_kernel().name,
        # The session cache's own counters (ExperimentCache.counters),
        # plus its disk root and the counters aggregated over every
        # run_matrix(parallel=N) worker process of the session.
        "cache": {
            **SESSION_CACHE.counters(),
            "root": None if root is None else str(root),
            "workers": dict(SESSION_CACHE.worker_counters),
        },
        **BENCH_REPORT,
    }
    write_artifact("BENCH_suite.json", json.dumps(report, indent=2))
