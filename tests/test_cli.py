"""Smoke tests for the command-line interface."""

import pathlib

import pytest

from repro.analysis.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for cmd in ("table1", "table2", "table3", "headline", "fig1",
                    "fig2", "list"):
            args = parser.parse_args([cmd] if cmd in ("fig1", "fig2", "list")
                                     else [cmd, "--preset", "tiny"])
            assert callable(args.func)

    def test_bench_validates_name(self, capsys):
        # names validate at resolve time now (paths are legal too), so
        # a typo is a clean diagnostic + exit 2, not an argparse abort
        assert main(["bench", "nonesuch"]) == 2
        assert "unknown source 'nonesuch'" in capsys.readouterr().err

    def test_bench_accepts_netlist_path(self):
        args = build_parser().parse_args(["bench", "circuits/alu.blif"])
        assert args.name == "circuits/alu.blif"

    def test_bench_name_optional(self):
        assert build_parser().parse_args(["bench"]).name is None

    def test_source_list_subcommand(self, capsys):
        assert main(["source", "list"]) == 0
        out = capsys.readouterr().out
        assert "adder" in out and "registry" in out

    def test_sourcesweep_defaults(self):
        args = build_parser().parse_args(["sourcesweep", "adder"])
        assert args.sources == ["adder"]
        assert args.configs == ["naive", "ea-full"]


def _run_cold(*argv):
    """``python -m repro *argv*`` in a subprocess with no cache root or
    cache server, so every stage really computes."""
    import os
    import pathlib
    import subprocess
    import sys

    env = {
        k: v for k, v in os.environ.items()
        if k not in ("REPRO_CACHE_DIR", "REPRO_CACHE_URL")
    }
    env["PYTHONPATH"] = str(pathlib.Path(__file__).parents[1] / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True, text=True, env=env, timeout=300,
    )


class TestCommands:
    def test_table_stage_budget_fails_the_command(self):
        proc = _run_cold(
            "table1", "--preset", "tiny", "--benchmarks", "adder",
            "--timeout", "compile=0.000001",
        )
        assert proc.returncode != 0
        assert "StageTimeoutError" in proc.stderr

    def test_grid_job_budget_fails_the_command(self):
        # bench walks Session.grid: each source is one job under the
        # session's job budget, as a table row is
        proc = _run_cold(
            "bench", "dec", "--preset", "tiny", "--timeout", "job=0.000001"
        )
        assert proc.returncode != 0
        assert "StageTimeoutError" in proc.stderr

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "adder" in out and "voter" in out

    def test_fig1(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "writes per device" in out

    def test_fig2(self, capsys):
        assert main(["fig2"]) == 0
        out = capsys.readouterr().out
        assert "value lifetime" in out

    def test_bench(self, capsys):
        assert main(["bench", "dec", "--preset", "tiny", "--wmax", "10"]) == 0
        out = capsys.readouterr().out
        assert "naive" in out and "ea-full" in out and "wmax10" in out

    def test_table1_subset(self, capsys):
        assert main([
            "table1", "--preset", "tiny", "--benchmarks", "dec", "ctrl",
        ]) == 0
        out = capsys.readouterr().out
        assert "TABLE I" in out
        assert "dec" in out

    def test_table2_subset(self, capsys):
        assert main([
            "table2", "--preset", "tiny", "--benchmarks", "dec",
            "--no-verify",
        ]) == 0
        assert "TABLE II" in capsys.readouterr().out

    def test_table3_subset(self, capsys):
        assert main([
            "table3", "--preset", "tiny", "--benchmarks", "ctrl",
        ]) == 0
        assert "TABLE III" in capsys.readouterr().out

    def test_headline_subset(self, capsys):
        assert main([
            "headline", "--preset", "tiny", "--benchmarks", "dec", "ctrl",
        ]) == 0
        assert "HEADLINE" in capsys.readouterr().out


FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "cli"

#: The commands whose stdout is pinned byte for byte, by fixture name.
PINNED_COMMANDS = {
    "archsweep_dec": ["archsweep", "dec", "--preset", "tiny"],
    "optsweep_ctrl": ["optsweep", "ctrl", "--preset", "tiny"],
    "sourcesweep_adder_dec": [
        "sourcesweep", "adder", "dec", "--preset", "tiny",
    ],
    "bench_dec_wmax10": ["bench", "dec", "--preset", "tiny", "--wmax", "10"],
    "fig1": ["fig1"],
    "fig2": ["fig2"],
}


class TestPinnedOutput:
    """The sweep, bench and figure commands print exactly the recorded
    tables (``tests/fixtures/cli/<name>.txt``)."""

    @pytest.mark.parametrize("name", sorted(PINNED_COMMANDS))
    def test_stdout_matches_fixture(self, name, capsys, monkeypatch):
        from repro.flow.options import KNOBS

        for knob in KNOBS.values():
            monkeypatch.delenv(knob.env_var, raising=False)
        assert main(PINNED_COMMANDS[name]) == 0
        expected = (FIXTURES / f"{name}.txt").read_text()
        assert capsys.readouterr().out == expected


class TestEmptyAxis:
    """An axis flag given with no values is a usage error, not an empty
    (or crashing) run."""

    @pytest.mark.parametrize("argv", [
        ["table1", "--preset", "tiny", "--benchmarks"],
        ["table2", "--preset", "tiny", "--benchmarks"],
        ["table3", "--preset", "tiny", "--benchmarks"],
        ["headline", "--preset", "tiny", "--benchmarks"],
        ["report", "--preset", "tiny", "--benchmarks"],
        ["archsweep", "dec", "--preset", "tiny", "--archs"],
        ["archsweep", "dec", "--preset", "tiny", "--configs"],
        ["optsweep", "dec", "--preset", "tiny", "--configs"],
        ["optsweep", "dec", "--preset", "tiny", "--opts"],
        ["sourcesweep", "dec", "--preset", "tiny", "--configs"],
    ], ids=lambda argv: f"{argv[0]}{argv[-1]}")
    def test_exits_with_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "expected at least one argument" in captured.err

    def test_bench_bad_cap_prints_nothing(self, capsys):
        assert main(["bench", "dec", "--preset", "tiny", "--wmax", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "w_max below 3" in captured.err


class TestArchOption:
    def test_arch_list(self, capsys):
        assert main(["arch", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("dac16", "endurance", "blocked"):
            assert name in out
        assert "word lines of 8" in out

    def test_list_shows_architectures(self, capsys):
        assert main(["list"]) == 0
        assert "architectures" in capsys.readouterr().out

    def test_unknown_arch_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--arch", "quantum"])

    def test_bench_accepts_arch(self, capsys):
        assert main([
            "bench", "dec", "--preset", "tiny", "--arch", "blocked",
        ]) == 0
        assert "naive" in capsys.readouterr().out

    def test_default_arch_does_not_change_artifacts(self, capsys):
        """Pinning the default machine must not change any table —
        the architecture layer's core parity promise, at CLI level."""
        argv = ["table1", "--preset", "tiny", "--benchmarks", "dec"]
        assert main(argv) == 0
        ambient = capsys.readouterr().out
        assert main(argv + ["--arch", "endurance"]) == 0
        assert capsys.readouterr().out == ambient

    def test_archsweep(self, capsys):
        assert main([
            "archsweep", "dec", "--preset", "tiny", "--no-verify",
        ]) == 0
        out = capsys.readouterr().out
        assert "ARCHITECTURE SWEEP" in out
        for name in ("dac16", "endurance", "blocked"):
            assert name in out
        assert "unsupported pairs:" in out  # dac16/ea-full gap

    def test_archsweep_subset(self, capsys):
        assert main([
            "archsweep", "dec", "--preset", "tiny", "--no-verify",
            "--archs", "blocked", "--configs", "naive",
        ]) == 0
        out = capsys.readouterr().out
        assert "blocked" in out and "dac16" not in out

    @pytest.mark.parametrize("argv", [
        ["bench", "dec", "--preset", "tiny"],
        ["fig1"],
        ["fig2"],
        ["optsweep", "ctrl", "--preset", "tiny", "--no-verify"],
        ["sourcesweep", "dec", "--preset", "tiny", "--no-verify"],
    ], ids=lambda argv: argv[0])
    def test_refused_configuration_fails_before_printing(self, argv, capsys):
        # only archsweep renders the pairs a machine refuses as gaps
        assert main(argv + ["--arch", "dac16"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no per-cell wear counters" in captured.err

    def test_env_selects_arch(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_ARCH", "blocked")
        assert main(["bench", "dec", "--preset", "tiny"]) == 0
        blocked_out = capsys.readouterr().out
        monkeypatch.delenv("REPRO_ARCH")
        assert main(["bench", "dec", "--preset", "tiny"]) == 0
        # the word-addressed machine provisions whole lines: different #R
        assert blocked_out != capsys.readouterr().out


class TestCachePrecedence:
    def test_flag_beats_env(self, tmp_path, monkeypatch, capsys):
        env_root = tmp_path / "env"
        flag_root = tmp_path / "flag"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(env_root))
        assert main([
            "table1", "--preset", "tiny", "--benchmarks", "dec",
            "--no-verify", "--cache-dir", str(flag_root),
        ]) == 0
        capsys.readouterr()
        assert flag_root.is_dir()
        assert not env_root.exists()

    def test_flag_beats_env_for_maintenance(self, tmp_path, monkeypatch, capsys):
        env_root = tmp_path / "env"
        flag_root = tmp_path / "flag"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(env_root))
        assert main(["cache", "stats", "--cache-dir", str(flag_root)]) == 0
        assert str(flag_root) in capsys.readouterr().out

    def test_every_suite_subcommand_has_cache_dir(self):
        parser = build_parser()
        for cmd in ("table1", "table2", "table3", "headline", "report",
                    "bench"):
            argv = [cmd, "--cache-dir", "somewhere"]
            if cmd == "bench":
                argv.insert(1, "dec")
            args = parser.parse_args(argv)
            assert args.cache_dir == "somewhere"


class TestCacheCommands:
    def test_cache_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache"])

    def test_stats_on_empty_root(self, tmp_path, capsys):
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries      : 0" in out

    def test_suite_populates_then_stats_then_clear(self, tmp_path, capsys):
        root = str(tmp_path / "cache")
        assert main([
            "table1", "--preset", "tiny", "--benchmarks", "dec",
            "--no-verify", "--cache-dir", root,
        ]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", root]) == 0
        out = capsys.readouterr().out
        assert "entries      : 0" not in out and "(current)" in out
        assert main(["cache", "clear", "--cache-dir", root]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", root]) == 0
        assert "entries      : 0" in capsys.readouterr().out

    def test_env_var_enables_cache(self, tmp_path, monkeypatch, capsys):
        root = tmp_path / "envcache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
        assert main([
            "table1", "--preset", "tiny", "--benchmarks", "ctrl",
            "--no-verify",
        ]) == 0
        capsys.readouterr()
        assert root.is_dir()
        assert main(["cache", "stats"]) == 0
        assert str(root) in capsys.readouterr().out

    def test_stats_json(self, tmp_path, capsys):
        import json

        root = str(tmp_path / "cache")
        assert main([
            "table1", "--preset", "tiny", "--benchmarks", "dec",
            "--no-verify", "--cache-dir", root,
        ]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--json", "--cache-dir", root]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["root"] == root
        assert stats["entries"] > 0
        assert stats["shards"] and "fingerprint" in stats["shards"][0]


class TestOptimizerOption:
    def test_opt_list(self, capsys):
        assert main(["opt", "list"]) == 0
        out = capsys.readouterr().out
        for token in ("script", "greedy", "budget", "write_cost",
                      "node_count", "cycle:endurance"):
            assert token in out

    def test_list_shows_optimizers(self, capsys):
        main(["list"])
        assert "optimizers" in capsys.readouterr().out

    def test_optsweep(self, capsys):
        assert main([
            "optsweep", "ctrl", "--preset", "tiny", "--no-verify",
            "--opts", "script", "greedy",
        ]) == 0
        out = capsys.readouterr().out
        assert "OPTIMIZER SWEEP" in out
        assert "greedy:write_cost" in out

    def test_bench_accepts_opt(self, capsys):
        assert main([
            "bench", "ctrl", "--preset", "tiny", "--opt", "greedy",
        ]) == 0
        assert "naive" in capsys.readouterr().out

    def test_table1_accepts_opt(self, capsys):
        assert main([
            "table1", "--preset", "tiny", "--benchmarks", "ctrl",
            "--no-verify", "--opt", "greedy:node_count",
        ]) == 0
        assert "TABLE I" in capsys.readouterr().out

    def test_invalid_opt_spec_rejected(self, capsys):
        assert main(
            ["bench", "ctrl", "--preset", "tiny", "--opt", "warp"]
        ) == 2
        assert "error:" in capsys.readouterr().err


class TestManifestCommands:
    def _seed_cache(self, tmp_path):
        from repro.analysis.diskcache import DiskCache

        disk = DiskCache(tmp_path)
        key = ("result", "adder", "tiny", "cfg")
        disk.store(
            key,
            {"answer": 42},
            manifest={
                "benchmark": "adder",
                "config": "naive",
                "arch": "endurance",
                "opt": "script",
                "verified_patterns": 64,
                "events": [{"kind": "retry", "job": "adder", "attempt": 1}],
            },
        )
        return disk.entry_path(key)

    def test_manifest_show(self, tmp_path, capsys):
        self._seed_cache(tmp_path)
        assert main(["manifest", "show", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "adder" in out and "naive" in out
        assert "events=[retry]" in out
        assert "1 manifest(s)" in out

    def test_manifest_show_verbose(self, tmp_path, capsys):
        self._seed_cache(tmp_path)
        assert main([
            "manifest", "show", "--cache-dir", str(tmp_path), "-v",
        ]) == 0
        out = capsys.readouterr().out
        assert "sha256" in out
        assert "event : retry" in out

    def test_manifest_verify_clean(self, tmp_path, capsys):
        self._seed_cache(tmp_path)
        assert main(["manifest", "verify", "--cache-dir", str(tmp_path)]) == 0
        assert "0 failed" in capsys.readouterr().out

    def test_manifest_verify_flags_tampering(self, tmp_path, capsys):
        entry = self._seed_cache(tmp_path)
        entry.write_bytes(entry.read_bytes() + b"tampered")
        assert main(["manifest", "verify", "--cache-dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "digest mismatch" in out
        assert "1 failed" in out

    def test_manifest_empty_cache(self, tmp_path, capsys):
        assert main(["manifest", "show", "--cache-dir", str(tmp_path)]) == 0
        assert "0 manifest(s)" in capsys.readouterr().out

    def test_manifest_verify_json_clean(self, tmp_path, capsys):
        import json

        self._seed_cache(tmp_path)
        assert main([
            "manifest", "verify", "--json", "--cache-dir", str(tmp_path),
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["root"] == str(tmp_path)
        assert report["checked"] == 1
        assert report["failed"] == 0
        assert report["failures"] == []

    def test_manifest_verify_json_flags_tampering(self, tmp_path, capsys):
        import json

        entry = self._seed_cache(tmp_path)
        entry.write_bytes(entry.read_bytes() + b"tampered")
        assert main([
            "manifest", "verify", "--json", "--cache-dir", str(tmp_path),
        ]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["failed"] == 1
        assert report["failures"][0]["path"].endswith(".manifest.json")
        assert any(
            "digest mismatch" in problem
            for problem in report["failures"][0]["problems"]
        )


class TestServeCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8321
        assert args.workers == 2
        assert not args.no_isolate
        assert not args.allow_frontend
        assert not args.allow_shutdown
        assert args.retries is None

    def test_parser_accepts_session_flags(self):
        args = build_parser().parse_args([
            "serve", "--port", "0", "--workers", "4", "--no-isolate",
            "--preset", "tiny", "--arch", "blocked", "--retries", "5",
            "--allow-frontend", "--allow-shutdown",
        ])
        assert args.port == 0 and args.workers == 4
        assert args.no_isolate and args.allow_frontend
        assert args.preset == "tiny" and args.arch == "blocked"
        assert args.retries == "5"

    def test_bad_retry_budget_exits_2(self, capsys):
        assert main(["serve", "--port", "0", "--retries", "zero"]) == 2
        assert "invalid retry budget" in capsys.readouterr().err

    def test_serve_starts_and_shuts_down(self, tmp_path, capsys):
        """`repro serve` end-to-end in-process: bind an ephemeral port,
        serve one health check, stop via /shutdown."""
        import json
        import threading
        import urllib.request

        from repro.serve import create_server

        server = create_server(
            "127.0.0.1", 0, isolate=False, allow_shutdown=True,
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with urllib.request.urlopen(
                server.url + "/healthz", timeout=10
            ) as response:
                assert json.load(response) == {"status": "ok"}
            request = urllib.request.Request(
                server.url + "/shutdown", data=b"", method="POST"
            )
            with urllib.request.urlopen(request, timeout=10) as response:
                assert response.status == 200
            thread.join(timeout=10)
            assert not thread.is_alive()
        finally:
            server.close()
            thread.join(timeout=5)


class TestInterruptHandling:
    def test_keyboard_interrupt_exits_130(self, capsys, monkeypatch):
        """Ctrl-C is a request, not a crash: conventional exit status,
        a one-line notice on stderr, and no traceback."""
        import repro.analysis.cli as cli

        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "cmd_list", interrupted)
        assert main(["list"]) == 130
        captured = capsys.readouterr()
        assert "interrupted" in captured.err
        assert "Traceback" not in captured.err


#: Every subcommand's options at the point the option table
#: (repro.flow.options.KNOBS) started generating them: option strings
#: (or positional dest) -> (default, choices, metavar).  The generated
#: parser must add and drop nothing.
CLI_SURFACE = {
    '': {},
    'arch': {},
    'arch list': {},
    'archsweep': {'--archs': (None, ['dac16', 'endurance', 'blocked'], 'ARCH'),
                  '--cache-dir': (None, None, 'DIR'),
                  '--cache-url': (None, None, 'URL'),
                  '--configs': (['naive', 'ea-full'], None, 'CONFIG'),
                  '--no-verify': (False, None, None),
                  '--opt': (None, None, 'SPEC'),
                  '--preset': ('default', ['tiny', 'default', 'paper'], None),
                  '--timeout': (None, None, 'SPEC'),
                  'name': (None, None, 'NAME_OR_PATH')},
    'bench': {'--arch': (None, ['dac16', 'endurance', 'blocked'], None),
              '--cache-dir': (None, None, 'DIR'),
              '--cache-url': (None, None, 'URL'),
              '--opt': (None, None, 'SPEC'),
              '--preset': ('default', ['tiny', 'default', 'paper'], None),
              '--source': (None, None, 'NAME_OR_PATH'),
              '--timeout': (None, None, 'SPEC'),
              '--wmax': (None, None, None),
              'name': (None, None, 'NAME_OR_PATH')},
    'cache': {},
    'cache clear': {'--all': (False, None, None), '--cache-dir': (None, None, 'DIR')},
    'cache stats': {'--cache-dir': (None, None, 'DIR'),
                    '--cache-url': (None, None, 'URL'),
                    '--json': (False, None, None)},
    'cachesvc': {},
    'cachesvc serve': {'--cache-dir': (None, None, 'DIR'),
                       '--host': ('127.0.0.1', None, None),
                       '--lease-timeout': (600.0, None, 'S'),
                       '--memory-mb': (256, None, 'MB'),
                       '--port': (8344, None, None),
                       '-v/--verbose': (False, None, None)},
    'cachesvc stats': {'--json': (False, None, None), '--url': (None, None, 'URL')},
    'fig1': {'--arch': (None, ['dac16', 'endurance', 'blocked'], None),
             '--opt': (None, None, 'SPEC'),
             '--timeout': (None, None, 'SPEC')},
    'fig2': {'--arch': (None, ['dac16', 'endurance', 'blocked'], None),
             '--opt': (None, None, 'SPEC'),
             '--timeout': (None, None, 'SPEC')},
    'headline': {'--arch': (None, ['dac16', 'endurance', 'blocked'], None),
                 '--benchmarks': (None, None, 'NAME_OR_PATH'),
                 '--cache-dir': (None, None, 'DIR'),
                 '--cache-url': (None, None, 'URL'),
                 '--effort': (5, None, None),
                 '--no-verify': (False, None, None),
                 '--opt': (None, None, 'SPEC'),
                 '--parallel': (None, None, 'N'),
                 '--preset': ('default', ['tiny', 'default', 'paper'], None),
                 '--timeout': (None, None, 'SPEC')},
    'list': {},
    'manifest': {},
    'manifest show': {'--all': (False, None, None),
                      '--cache-dir': (None, None, 'DIR'),
                      '-v/--verbose': (False, None, None)},
    'manifest verify': {'--all': (False, None, None),
                        '--cache-dir': (None, None, 'DIR'),
                        '--json': (False, None, None)},
    'opt': {},
    'opt list': {},
    'optsweep': {'--arch': (None, ['dac16', 'endurance', 'blocked'], None),
                 '--cache-dir': (None, None, 'DIR'),
                 '--cache-url': (None, None, 'URL'),
                 '--configs': (['ea-full'], None, 'CONFIG'),
                 '--no-verify': (False, None, None),
                 '--opts': (['script', 'greedy', 'budget'], None, 'SPEC'),
                 '--preset': ('default', ['tiny', 'default', 'paper'], None),
                 '--timeout': (None, None, 'SPEC'),
                 'name': (None, None, 'NAME_OR_PATH')},
    'report': {'--arch': (None, ['dac16', 'endurance', 'blocked'], None),
               '--benchmarks': (None, None, 'NAME_OR_PATH'),
               '--cache-dir': (None, None, 'DIR'),
               '--cache-url': (None, None, 'URL'),
               '--effort': (5, None, None),
               '--no-verify': (False, None, None),
               '--opt': (None, None, 'SPEC'),
               '--parallel': (None, None, 'N'),
               '--preset': ('default', ['tiny', 'default', 'paper'], None),
               '--timeout': (None, None, 'SPEC')},
    'serve': {'--allow-frontend': (False, None, None),
              '--allow-shutdown': (False, None, None),
              '--arch': (None, ['dac16', 'endurance', 'blocked'], None),
              '--cache-dir': (None, None, 'DIR'),
              '--cache-url': (None, None, 'URL'),
              '--host': ('127.0.0.1', None, None),
              '--no-isolate': (False, None, None),
              '--opt': (None, None, 'SPEC'),
              '--port': (8321, None, None),
              '--preset': ('default', ['tiny', 'default', 'paper'], None),
              '--retries': (None, None, 'N'),
              '--timeout': (None, None, 'SPEC'),
              '--workers': (2, None, 'N'),
              '-v/--verbose': (False, None, None)},
    'source': {},
    'source list': {},
    'sourcesweep': {'--arch': (None, ['dac16', 'endurance', 'blocked'], None),
                      '--cache-dir': (None, None, 'DIR'),
                    '--cache-url': (None, None, 'URL'),
                    '--configs': (['naive', 'ea-full'], None, 'CONFIG'),
                    '--no-verify': (False, None, None),
                    '--opt': (None, None, 'SPEC'),
                    '--preset': ('default', ['tiny', 'default', 'paper'], None),
                    '--timeout': (None, None, 'SPEC'),
                    'sources': (None, None, 'NAME_OR_PATH')},
    'table1': {'--arch': (None, ['dac16', 'endurance', 'blocked'], None),
               '--benchmarks': (None, None, 'NAME_OR_PATH'),
               '--cache-dir': (None, None, 'DIR'),
               '--cache-url': (None, None, 'URL'),
               '--effort': (5, None, None),
               '--no-verify': (False, None, None),
               '--opt': (None, None, 'SPEC'),
               '--parallel': (None, None, 'N'),
               '--preset': ('default', ['tiny', 'default', 'paper'], None),
               '--timeout': (None, None, 'SPEC')},
    'table2': {'--arch': (None, ['dac16', 'endurance', 'blocked'], None),
               '--benchmarks': (None, None, 'NAME_OR_PATH'),
               '--cache-dir': (None, None, 'DIR'),
               '--cache-url': (None, None, 'URL'),
               '--effort': (5, None, None),
               '--no-verify': (False, None, None),
               '--opt': (None, None, 'SPEC'),
               '--parallel': (None, None, 'N'),
               '--preset': ('default', ['tiny', 'default', 'paper'], None),
               '--timeout': (None, None, 'SPEC')},
    'table3': {'--arch': (None, ['dac16', 'endurance', 'blocked'], None),
               '--benchmarks': (None, None, 'NAME_OR_PATH'),
               '--cache-dir': (None, None, 'DIR'),
               '--cache-url': (None, None, 'URL'),
               '--effort': (5, None, None),
               '--no-verify': (False, None, None),
               '--opt': (None, None, 'SPEC'),
               '--parallel': (None, None, 'N'),
               '--preset': ('default', ['tiny', 'default', 'paper'], None),
               '--timeout': (None, None, 'SPEC')},
}


def _surface(parser, prefix=()):
    """``{subcommand path: {option: (default, choices, metavar)}}``."""
    import argparse

    surface = {}
    options = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                surface.update(_surface(sub, prefix + (name,)))
        elif not isinstance(action, argparse._HelpAction):
            key = "/".join(action.option_strings) or action.dest
            choices = list(action.choices) if action.choices is not None else None
            options[key] = (action.default, choices, action.metavar)
    surface[" ".join(prefix)] = options
    return surface


class TestCliSurface:
    def test_matches_snapshot(self):
        assert _surface(build_parser()) == CLI_SURFACE
