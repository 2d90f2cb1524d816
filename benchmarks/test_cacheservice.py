"""Shared cache-service benchmark: cold vs warm vs 4-way shared server.

Times three evaluation shapes against one :mod:`repro.cachesvc` server
over the same disk root and emits
``benchmarks/output/BENCH_cache.json``:

* **cold** — a fresh root: every (benchmark, config) pair compiles and
  is stored through the server;
* **warm** — the same matrix again from a fresh client: everything is
  served from the server's in-memory tier (the disk tier never spins);
* **shared** — a fresh root evaluated by ``run_matrix(parallel=4)``,
  all four worker processes pointed at one server: the single-flight
  leases must keep the duplicate-compile count at **zero**, which this
  module asserts from the server's ``/stats``.

The artefact records the wall-clock of each shape, the server tier
counters, and the warm-run hit ratio — the nightly perf trajectory
reads the warm-vs-cold speedup from here.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.cachesvc import RemoteCache, create_cache_server
from repro.flow import Session

from .conftest import provenance, write_artifact

#: Small fixed slice of the registry: enough distinct keys to exercise
#: the tiers, small enough for the nightly lane.
BENCHMARKS = ["adder", "bar", "ctrl", "int2float"]
CONFIGS = ["naive", "ea-full"]


@pytest.fixture
def cache_server(tmp_path):
    server = create_cache_server(port=0, root=str(tmp_path / "root"))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.close()
        thread.join(timeout=5)


def _evaluate(url, root, *, parallel=None):
    import time

    session = Session(
        cache_url=url, cache_dir=str(root), preset="tiny", parallel=parallel
    )
    start = time.perf_counter()
    evaluations = session.run_matrix(
        BENCHMARKS, CONFIGS, verify=False, parallel=parallel
    )
    return time.perf_counter() - start, evaluations, session


def test_cache_service_bench(cache_server, tmp_path):
    url = cache_server.url

    cold_seconds, cold, _ = _evaluate(url, tmp_path / "root")
    warm_seconds, warm, warm_session = _evaluate(url, tmp_path / "root")

    # The warm rerun must be answered from the server, not recompiled:
    # every pair that stored on the cold pass hits on the warm pass.
    remote = warm_session.cache.disk
    assert isinstance(remote, RemoteCache)
    tiers = remote.tier_counters()
    assert tiers["remote_memory_hits"] > 0, tiers
    assert tiers["remote_fallbacks"] == 0, tiers
    warm_requests = remote.hits + remote.misses
    warm_ratio = remote.hits / warm_requests if warm_requests else 0.0
    cold_stats = cache_server.stats_payload()

    # Shared-server fan-out: four worker processes, one server, fresh
    # root — the single-flight leases must absorb every duplicate.
    shared_server = create_cache_server(port=0, root=str(tmp_path / "shared"))
    thread = threading.Thread(
        target=shared_server.serve_forever, daemon=True
    )
    thread.start()
    try:
        shared_seconds, shared, _ = _evaluate(
            shared_server.url, tmp_path / "shared", parallel=4
        )
        shared_stats = shared_server.stats_payload()
    finally:
        shared_server.close()
        thread.join(timeout=5)

    # Zero duplicates is only meaningful if the workers actually stored
    # through the server — a silent fallback to direct disk would pass
    # vacuously.
    assert shared_stats["puts"] > 0, shared_stats
    assert shared_stats["duplicate_puts"] == 0, shared_stats
    # Same matrix, same preset: the shared run reproduces the serial
    # artefacts (byte-identical programs => identical stat rows).
    assert _rows(shared) == _rows(cold)
    assert _rows(warm) == _rows(cold)

    write_artifact(
        "BENCH_cache.json",
        json.dumps(
            {
                "provenance": provenance(),
                "benchmarks": BENCHMARKS,
                "configs": CONFIGS,
                "preset": "tiny",
                "cold_seconds": cold_seconds,
                "warm_seconds": warm_seconds,
                "shared_parallel4_seconds": shared_seconds,
                "warm_hit_ratio": warm_ratio,
                "warm_tiers": tiers,
                "server": {
                    "cold_warm": cold_stats["tiers"],
                    "shared": shared_stats["tiers"],
                },
                "duplicate_compiles": shared_stats["duplicate_puts"],
            },
            indent=2,
        ),
    )


def _rows(evaluations):
    return [
        (
            ev.name,
            sorted(
                (cfg, r.num_instructions, r.num_rrams)
                for cfg, r in ev.results.items()
            ),
        )
        for ev in evaluations
    ]
