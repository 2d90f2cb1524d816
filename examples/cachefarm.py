#!/usr/bin/env python3
"""A compile-cache farm: one ``repro.cachesvc`` server, many clients.

``run_matrix(parallel=N)`` workers, ``repro serve`` executors, and
separate CLI runs used to coordinate through per-entry lockfiles on a
shared root.  The cache service centralises that coordination in one
daemon that owns the root: a byte-budgeted warm in-memory tier over the
disk tier, plus cross-process *single-flight* — the first requester of
a missing key gets a lease and compiles, every concurrent requester
blocks and receives the stored artefact, so a racing fleet compiles
each key exactly once.  This walkthrough:

1. boots a cache server on an ephemeral port (standalone:
   ``python -m repro cachesvc serve``);
2. evaluates a small matrix through ``Session(cache_url=...)`` — every
   artefact is stored through the server;
3. re-evaluates from a fresh session: pure warm-tier hits, nothing
   recompiles;
4. races 4 threads at one *missing* key and shows the single-flight
   counters: one lease, zero duplicate compiles;
5. scrapes ``/stats`` — the same payload behind
   ``repro cachesvc stats`` and ``repro cache stats --cache-url``.

Timings, the port and the race's winner go to stderr, so stdout is the
same on every run.

Run:  python examples/cachefarm.py
"""

import os
import sys
import tempfile
import threading
import time

from repro import RemoteCache, Session, create_cache_server

PRESET = os.environ.get("REPRO_EXAMPLE_PRESET", "tiny")
BENCHMARKS = ["adder", "bar", "ctrl"]
CONFIGS = ["naive", "ea-full"]


def main() -> None:
    root = os.path.join(tempfile.mkdtemp(prefix="repro-cachefarm-"), "cache")
    server = create_cache_server(port=0, root=root)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    print(f"cache server up at {server.url} (root={root})", file=sys.stderr)
    print(f"cache server up (preset={PRESET})\n")

    # -- 1. cold evaluation through the server ------------------------
    start = time.perf_counter()
    session = Session(preset=PRESET, cache_url=server.url, cache_dir=root)
    session.run_matrix(BENCHMARKS, CONFIGS, verify=False)
    cold = time.perf_counter() - start
    print(f"cold matrix ({len(BENCHMARKS)}x{len(CONFIGS)}): "
          f"{session.cache.misses} compiles")
    print(f"cold matrix: {cold:.2f}s", file=sys.stderr)

    # -- 2. warm rerun: a fresh client, zero recompiles ---------------
    start = time.perf_counter()
    warm_session = Session(preset=PRESET, cache_url=server.url, cache_dir=root)
    warm_session.run_matrix(BENCHMARKS, CONFIGS, verify=False)
    warm = time.perf_counter() - start
    tiers = warm_session.cache.disk.tier_counters()
    print(f"warm matrix: {warm_session.cache.misses} compiles "
          f"({tiers['remote_memory_hits']} warm-tier hits, "
          f"{tiers['remote_fallbacks']} fallbacks)\n")
    print(f"warm matrix: {warm:.2f}s", file=sys.stderr)

    # -- 3. single-flight: race 4 clients at one missing key ----------
    key = ("result", "demo", "race", "key")
    compiles = []

    def contender(i: int) -> None:
        client = RemoteCache(server.url, root=root)
        with client.flight(key) as resolved:
            if resolved is not None:
                return  # adopted the winner's artefact, no work done
            compiles.append(i)
            time.sleep(0.2)  # pretend this is an expensive compile
            client.store(key, (f"artefact by thread {i}", 64))

    threads = [
        threading.Thread(target=contender, args=(i,)) for i in range(4)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    print(f"4 contenders, {len(compiles)} compile(s)")
    print(f"thread {compiles[0]} won the lease", file=sys.stderr)

    # -- 4. the numbers behind it -------------------------------------
    stats = server.stats_payload()
    flight = stats["single_flight"]
    print(f"leases granted {flight['leases']}, "
          f"duplicate compiles {stats['duplicate_puts']}")
    # How many contenders waited in flight rather than finding the
    # stored artefact depends on thread timing.
    print(f"waiters served in-flight {flight['served']}, "
          f"tiers: {stats['tiers']}", file=sys.stderr)

    server.close()
    assert len(compiles) == 1
    assert stats["duplicate_puts"] == 0
    print("\ncache farm done: every key compiled exactly once.")


if __name__ == "__main__":
    main()
