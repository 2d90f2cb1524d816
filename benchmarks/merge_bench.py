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
* every number under ``cache`` is summed, nested ones (the
  ``workers`` block) included, whatever counters the shards carry;
  other values (the ``root``) keep the first shard's;
* scalar fields (preset, backend, parallel) must agree across shards —
  a mismatch aborts loudly rather than averaging apples and oranges;
* each shard's ``provenance`` block (commit, CPUs, Python version) is
  kept, in shard order, as the ``provenance`` list (``None`` for a
  shard without one);
* every other top-level key is taken from whichever shard produced it.

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


def _sum_numbers(total: dict, block: dict) -> None:
    """Add every number of *block* into *total*, recursing into nested
    dicts; any other value keeps the first one seen."""
    for key, value in block.items():
        if isinstance(value, dict):
            _sum_numbers(total.setdefault(key, {}), value)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            total[key] = total.get(key, 0) + value
        else:
            total.setdefault(key, value)


def merge_reports(reports: List[dict], labels: List[str]) -> dict:
    merged: dict = {
        "shards": labels,
        "provenance": [report.get("provenance") for report in reports],
        "suite_seconds": {},
        "stages": {},
        "cache": {},
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
        _sum_numbers(merged["stages"], report.get("stages", {}))
        _sum_numbers(merged["cache"], report.get("cache", {}))
        for key, value in report.items():
            if key in ("suite_seconds", "stages", "cache", "preset",
                       "parallel", "backend", "provenance"):
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
