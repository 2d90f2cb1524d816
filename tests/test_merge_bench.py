"""Tests for ``benchmarks/merge_bench.py``, the BENCH_suite.json merger."""

import json

from benchmarks.merge_bench import main, merge_reports


def shard(commit, cpus, seconds):
    return {
        "provenance": {
            "commit": commit, "cpu_count": cpus,
            "python": "3.11.7",
        },
        "preset": "default",
        "parallel": None,
        "backend": "bigint",
        "suite_seconds": {"plain": seconds},
        "stages": {"rewrite": {"events": 2, "cached": 1, "seconds": seconds}},
        "cache": {
            "hits": 3, "misses": 1, "disk_hits": 2, "remote_waits": 1,
            "root": f"/cache/{commit}",
            "workers": {"workers": 2, "hits": 1, "misses": 4},
        },
    }


def test_merge_keeps_each_shards_provenance():
    a, b = shard("abc123", 2, 1.5), shard(None, 4, 2.5)
    old = {key: value for key, value in shard("x", 1, 1.0).items()
           if key != "provenance"}
    merged = merge_reports([a, b, old], ["a", "b", "old"])
    assert merged["shards"] == ["a", "b", "old"]
    assert merged["provenance"] == [a["provenance"], b["provenance"], None]
    assert merged["stages"]["rewrite"] == {
        "events": 6, "cached": 3, "seconds": 5.0,
    }
    assert merged["cache"] == {
        "hits": 9, "misses": 3, "disk_hits": 6, "remote_waits": 3,
        "root": "/cache/abc123",
        "workers": {"workers": 6, "hits": 3, "misses": 12},
    }


def test_cli_writes_the_provenance_list(tmp_path):
    paths = []
    for label, commit in (("left", "c1"), ("right", "c2")):
        path = tmp_path / label / "BENCH_suite.json"
        path.parent.mkdir()
        path.write_text(json.dumps(shard(commit, 2, 1.0)), encoding="utf-8")
        paths.append(str(path))
    out = tmp_path / "merged" / "BENCH_suite.json"
    assert main(paths + ["-o", str(out)]) == 0
    merged = json.loads(out.read_text(encoding="utf-8"))
    assert [block["commit"] for block in merged["provenance"]] == ["c1", "c2"]
    assert merged["shards"] == ["left", "right"]
