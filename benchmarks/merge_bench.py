#!/usr/bin/env python3
"""Merge sharded ``BENCH_suite.json`` artefacts into one report.

The nightly CI lane shards the benchmark suite across a job matrix;
each shard emits its own ``BENCH_suite.json`` (see ``conftest.py``).
This script folds any number of shard reports into a single file with
the same schema, so downstream perf tracking keeps reading one
artefact:

* ``suite_seconds`` entries are merged keyed by evaluation name,
  prefixed with the shard label on collision;
* ``stages`` counters (events / cached / seconds) are summed per stage;
* cache hit/miss counters are summed (memory and disk), as are the
  remote-tier counters of shards that read through a shared cache
  server (``cache.tiers``, see :mod:`repro.cachesvc`);
* scalar fields (preset, backend, parallel) must agree across shards —
  a mismatch aborts loudly rather than averaging apples and oranges;
* every other top-level key (e.g. the ``kernel`` micro-benchmark
  block) is taken from whichever shard produced it.

Usage::

    python benchmarks/merge_bench.py shard-a/BENCH_suite.json \
        shard-b/BENCH_suite.json -o merged/BENCH_suite.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import List


def merge_reports(reports: List[dict], labels: List[str]) -> dict:
    merged: dict = {
        "shards": labels,
        "suite_seconds": {},
        "stages": {},
        "cache": {
            "memory_hits": 0,
            "memory_misses": 0,
            "disk": None,
            "tiers": None,
            "workers": {},
        },
    }
    for label, report in zip(labels, reports):
        for scalar in ("preset", "parallel", "backend"):
            if scalar in report:
                previous = merged.setdefault(scalar, report[scalar])
                if previous != report[scalar]:
                    raise SystemExit(
                        f"shard {label}: {scalar}={report[scalar]!r} "
                        f"disagrees with {previous!r}; refusing to merge"
                    )
        for name, seconds in report.get("suite_seconds", {}).items():
            key = name if name not in merged["suite_seconds"] else (
                f"{label}:{name}"
            )
            merged["suite_seconds"][key] = seconds
        for stage, entry in report.get("stages", {}).items():
            bucket = merged["stages"].setdefault(
                stage, {"events": 0, "cached": 0, "seconds": 0.0}
            )
            bucket["events"] += entry.get("events", 0)
            bucket["cached"] += entry.get("cached", 0)
            bucket["seconds"] += entry.get("seconds", 0.0)
        cache = report.get("cache", {})
        merged["cache"]["memory_hits"] += cache.get("memory_hits", 0)
        merged["cache"]["memory_misses"] += cache.get("memory_misses", 0)
        disk = cache.get("disk")
        if disk:
            bucket = merged["cache"]["disk"] or {
                "root": disk.get("root"), "hits": 0, "misses": 0,
                "lock_skips": 0,
            }
            bucket["hits"] += disk.get("hits", 0)
            bucket["misses"] += disk.get("misses", 0)
            bucket["lock_skips"] += disk.get("lock_skips", 0)
            merged["cache"]["disk"] = bucket
        tiers = cache.get("tiers")
        if tiers:
            bucket = merged["cache"]["tiers"] or {}
            for key, value in tiers.items():
                bucket[key] = bucket.get(key, 0) + value
            merged["cache"]["tiers"] = bucket
        for key, value in cache.get("workers", {}).items():
            workers = merged["cache"]["workers"]
            workers[key] = workers.get(key, 0) + value
        for key, value in report.items():
            if key in ("suite_seconds", "stages", "cache", "preset",
                       "parallel", "backend"):
                continue
            merged.setdefault(key, value)
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("shards", nargs="+", type=pathlib.Path,
                        help="per-shard BENCH_suite.json files")
    parser.add_argument("-o", "--output", type=pathlib.Path, required=True,
                        help="merged report destination")
    args = parser.parse_args(argv)

    reports, labels = [], []
    for path in args.shards:
        reports.append(json.loads(path.read_text(encoding="utf-8")))
        labels.append(path.parent.name or path.stem)
    merged = merge_reports(reports, labels)
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(merged, indent=2) + "\n",
                           encoding="utf-8")
    print(f"merged {len(reports)} shard(s) -> {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
