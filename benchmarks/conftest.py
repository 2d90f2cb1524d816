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
a warm rerun of the harness deserialises instead of recompiling;
``REPRO_SIM_BACKEND`` picks the simulation kernel.  All of these resolve
through ``Session.from_env()``.

Every benchmark session additionally emits a timing artefact,
``benchmarks/output/BENCH_suite.json``: suite wall-clock per evaluation
stage, per-stage flow timings from the session's observer hooks,
experiment-cache hit rates (memory and disk), the active simulation
backend, and the backend micro-benchmark numbers recorded by
``test_simbackend.py`` — the perf trajectory of the harness is tracked
from these files.
"""

from __future__ import annotations

import functools
import json
import os
import pathlib
import time
import warnings

import pytest

from repro.flow import Session


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
#: root, and its backend follows REPRO_SIM_BACKEND.
SESSION = Session.from_env(preset=PRESET, parallel=PARALLEL)

#: The session's experiment cache — kept under its historic name for the
#: ablation modules that drive it directly.
SESSION_CACHE = SESSION.cache

#: Accumulated BENCH_suite.json content (stage timings, backend
#: micro-benchmarks); written out at session finish.
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


def write_artifact(name: str, text: str) -> pathlib.Path:
    """Persist a rendered table under ``benchmarks/output/``."""
    OUTPUT_DIR.mkdir(exist_ok=True)
    path = OUTPUT_DIR / name
    path.write_text(text + "\n", encoding="utf-8")
    return path


def pytest_sessionfinish(session):
    """Emit the benchmark JSON artefacts for whatever actually ran.

    ``BENCH_suite.json`` carries the suite/stage story;
    ``BENCH_kernel.json`` carries the simulation-kernel comparison
    (bigint vs numpy timings from ``test_simbackend.py``) plus the
    same stage timings, so the kernel perf trajectory is
    recorded even when only the kernel lane ran.
    """
    if "kernel" in BENCH_REPORT:
        write_artifact(
            "BENCH_kernel.json",
            json.dumps(
                {
                    "preset": PRESET,
                    "backend": SESSION.kernel.name,
                    "kernel": BENCH_REPORT["kernel"],
                    "stages": BENCH_REPORT["stages"],
                    "suite_seconds": BENCH_REPORT["suite_seconds"],
                },
                indent=2,
            ),
        )
    if not BENCH_REPORT["suite_seconds"] and "kernel" not in BENCH_REPORT:
        return
    disk = SESSION.disk
    report = {
        "preset": PRESET,
        "parallel": PARALLEL,
        "backend": SESSION.kernel.name,
        "cache": {
            "memory_hits": SESSION_CACHE.hits,
            "memory_misses": SESSION_CACHE.misses,
            "disk": (
                {
                    "root": str(disk.root),
                    "hits": disk.hits,
                    "misses": disk.misses,
                    "lock_skips": disk.lock_skips,
                }
                if disk is not None
                else None
            ),
            # Remote-tier counters (shared cache server, see
            # repro.cachesvc): all zero for a local disk root.
            "tiers": disk.tier_counters() if disk is not None else None,
            # Aggregated over every run_matrix(parallel=N) worker
            # process of the session: the parent's counters alone
            # under-report what a fanned-out suite actually hit.
            "workers": dict(SESSION_CACHE.worker_counters),
        },
        **BENCH_REPORT,
    }
    write_artifact("BENCH_suite.json", json.dumps(report, indent=2))
