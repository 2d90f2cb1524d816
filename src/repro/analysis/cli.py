"""Command-line interface: ``repro-plim`` / ``python -m repro``.

Subcommands regenerate each experiment of the paper:

* ``table1`` / ``table2`` / ``table3`` — the three evaluation tables;
* ``headline`` — the abstract's aggregate numbers;
* ``fig1`` / ``fig2`` — the motivating write-imbalance scenarios;
* ``bench NAME_OR_PATH`` — one circuit under all configurations;
* ``arch list`` — the registered PLiM machine models;
* ``archsweep NAME_OR_PATH`` — one circuit across machine models;
* ``opt list`` — the registered optimizer strategies/objectives/passes;
* ``optsweep NAME_OR_PATH`` — one circuit across rewriting optimizers;
* ``source list`` — the registered circuit sources;
* ``sourcesweep NAME_OR_PATH...`` — one pipeline across sources;
* ``cache stats`` / ``cache clear`` — the on-disk experiment cache
  (``stats --json`` for machine-readable ops scraping; with
  ``--cache-url``/``$REPRO_CACHE_URL`` the stats grow a ``tiers``
  section aggregated from the shared cache server);
* ``cachesvc serve`` / ``cachesvc stats`` — the shared compile-cache
  service (:mod:`repro.cachesvc`): warm in-memory tier plus
  cross-process single-flight over one disk root;
* ``manifest show`` / ``manifest verify`` — the ``run_manifest.json``
  provenance sidecars next to cached experiment results
  (``verify --json`` for machine-readable results);
* ``serve`` — the compilation-as-a-service HTTP front
  (:mod:`repro.serve`);
* ``list`` — available benchmarks and presets.

Wherever a command takes a circuit, it accepts either a registry
benchmark name or a netlist path (``.mig``/``.blif``/``.aag``/
``.aiger``/``.aig``) — imported files run the same cached pipeline,
keyed by content fingerprint.

Every subcommand routes through one :class:`repro.flow.Session` built
from its arguments.  The tables run its ``run_matrix``; ``fig1``,
``fig2``, ``bench`` and the three sweeps are each one
:meth:`~repro.flow.Session.grid` call, and the sweeps share one parser
helper and one handler (:func:`cmd_sweep`).  The knob flags (``--arch``, ``--opt``,
``--source``, ``--timeout``, ``--cache-dir``, ``--cache-url``,
``--retries``) come from one table, :data:`repro.flow.options.KNOBS`:
each beats its ``$REPRO_*`` variable and is validated at startup.
``--parallel`` fans benchmarks out over worker processes and
``--preset`` picks the benchmark widths.  There is one simulation
engine (:mod:`repro.mig.kernel`), so no flag picks it.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..arch import (
    DEFAULT_ARCHITECTURE,
    ArchitectureError,
    available_architectures,
    get_architecture,
)
from ..core.manager import PRESETS, full_management
from ..opt import (
    DEFAULT_OPTIMIZER,
    available_objectives,
    available_passes,
    available_strategies,
    get_objective,
    get_pass,
    get_strategy,
)
from ..cachesvc import DEFAULT_PORT as CACHESVC_DEFAULT_PORT
from ..cachesvc import resolve_cache_url
from ..flow import Session, resolve_cache_dir
from ..flow.options import KNOBS
from ..mig.io import NETLIST_READERS
from ..resilience import iter_manifests, verify_manifest
from ..source import available_sources, get_source, resolve_source
from ..synth.registry import BENCHMARKS, BENCHMARK_ORDER
from . import report, scenarios
from .diskcache import DEFAULT_ROOT, DiskCache

_NETLIST_FORMATS = "/".join(NETLIST_READERS)


def _add_suite_options(parser: argparse.ArgumentParser) -> None:
    """Session knobs plus the suite-shape options shared by the tables."""
    Session.add_arguments(parser)
    parser.add_argument(
        "--benchmarks",
        nargs="+",
        default=None,
        metavar="NAME_OR_PATH",
        help=(
            f"subset of benchmarks, or netlist paths ({_NETLIST_FORMATS}) "
            "(default: all 18)"
        ),
    )
    parser.add_argument(
        "--effort", type=int, default=5, help="rewriting cycles (paper: 5)"
    )
    parser.add_argument(
        "--no-verify",
        action="store_true",
        help="skip program-vs-MIG co-simulation (faster)",
    )


def _suite(args, caps=None):
    session = Session.from_args(args)
    return session.evaluate_suite(
        args.benchmarks,
        caps=caps,
        effort=args.effort,
        verify=not args.no_verify,
    )


def cmd_table1(args) -> int:
    print(report.render_table1(_suite(args)))
    return 0


def cmd_table2(args) -> int:
    print(report.render_table2(_suite(args)))
    return 0


def cmd_table3(args) -> int:
    evaluations = _suite(args, caps=report.TABLE3_CAPS)
    print(report.render_table3(evaluations))
    return 0


def cmd_headline(args) -> int:
    evaluations = _suite(args, caps=[100])
    print(report.render_headline(evaluations))
    return 0


def cmd_report(args) -> int:
    session = Session.from_args(args)
    artifacts = session.full_report(
        args.benchmarks,
        effort=args.effort,
        verify=not args.no_verify,
    )
    for name in ("table1", "table2", "table3", "headline"):
        print(artifacts[name])
        print()
    return 0


def _refuse_gaps(points):
    """*points*, raising the refusal of the first configuration its
    machine cannot run; only ``archsweep`` renders such gaps."""
    for point in points:
        if point.result is None:
            raise ArchitectureError(point.reason)
    return points


def cmd_fig1(args) -> int:
    session = Session.from_args(args)
    mig = scenarios.fig1_mig()
    points = _refuse_gaps(
        session.grid([mig], ("naive", "min-write", "ea-full"))
    )
    print(mig.dump())
    print()
    for point in points:
        counts = point.result.program.write_counts()
        print(
            f"{point.config.name:10s}: writes per device = {counts} "
            f"(stdev {point.result.stats.stdev:.2f})"
        )
    return 0


def cmd_fig2(args) -> int:
    session = Session.from_args(args)
    mig = scenarios.fig2_mig()
    points = _refuse_gaps(session.grid([mig], ("dac16", "ea-full")))
    print(mig.dump())
    print()
    for point in points:
        longest, mean = scenarios.storage_pressure(point.result.program)
        print(
            f"{point.config.name:10s}: longest value lifetime = {longest} "
            f"instructions, mean = {mean:.1f}, "
            f"stdev of writes = {point.result.stats.stdev:.2f}"
        )
    return 0


def _cli_source(args, session):
    """Positional NAME_OR_PATH > ``--source`` > ``$REPRO_SOURCE``."""
    name = getattr(args, "name", None)
    if name is not None:
        return resolve_source(name)
    return session.default_source


def cmd_bench(args) -> int:
    session = Session.from_args(args)
    source = _cli_source(args, session)
    if source is None:
        print(
            "bench: no source given; pass NAME_OR_PATH, --source, or "
            "set $REPRO_SOURCE",
            file=sys.stderr,
        )
        return 2
    configs = list(PRESETS.values())
    if args.wmax is not None:
        configs.append(full_management(args.wmax))
    points = _refuse_gaps(session.grid([source], configs))
    mig = points[0].result.mig
    print(f"{source.name}: {mig.num_pis} PIs, {mig.num_pos} POs, "
          f"{mig.num_live_gates()} gates")
    for point in points:
        result, stats = point.result.compilation, point.result.stats
        print(
            f"  {point.config.name:16s} #I={result.num_instructions:8d} "
            f"#R={result.num_rrams:6d} writes {stats.min_writes}/"
            f"{stats.max_writes} stdev {stats.stdev:.2f}"
        )
    return 0


def cmd_arch_list(args) -> int:
    print("PLiM machine models (select with --arch or $REPRO_ARCH):")
    for name in available_architectures():
        arch = get_architecture(name)
        marker = "*" if name == DEFAULT_ARCHITECTURE else " "
        print(f" {marker} {name:12s} {arch.description}")
        geometry = arch.geometry
        shape = (
            "unbounded crossbar"
            if geometry.block_size is None
            else f"word lines of {geometry.block_size}"
        )
        if geometry.capacity is not None:
            shape += f", capacity {geometry.capacity}"
        wear = (
            "wear counters + retirement"
            if arch.endurance.supports_retirement
            else "wear counters"
            if arch.endurance.wear_tracking
            else "no wear counters"
        )
        print(f"   {'':12s} geometry: {shape}; endurance: {wear}")
    print("\n(* = default; register custom machines via "
          "repro.arch.register_architecture)")
    return 0


def cmd_source_list(args) -> int:
    print("circuit sources (select with a name/path, --source, or "
          "$REPRO_SOURCE):")
    for name in available_sources():
        source = get_source(name)
        print(f"   {name:14s} [{source.kind}]")
    print(f"\nnetlist paths ({_NETLIST_FORMATS}) work everywhere a "
          "name\ndoes; register custom sources via "
          "repro.source.register_source, or\ncompile Python functions "
          "with @repro.synth.frontend.mig_function")
    return 0


def cmd_opt_list(args) -> int:
    print("optimizer strategies (select with --opt or $REPRO_OPT, "
          "spec = STRATEGY[:OBJECTIVE][@DEPTH]):")
    for name in available_strategies():
        strategy = get_strategy(name)
        marker = "*" if name == DEFAULT_OPTIMIZER else " "
        lines = (strategy.__doc__ or "").strip().splitlines()
        print(f" {marker} {name:12s} {lines[0] if lines else ''}")
    print("\nobjectives (lower is better; register custom ones via "
          "repro.opt.register_objective):")
    for name in available_objectives():
        objective = get_objective(name)
        arch_note = " [arch-aware]" if objective.arch_sensitive else ""
        print(f"   {name:12s} {objective.description}{arch_note}")
    print("\nrewrite passes (candidates of the search strategies):")
    for name in available_passes():
        rewrite_pass = get_pass(name)
        print(f"   {name:16s} {rewrite_pass.description}")
    print("\n(* = default; the script strategy replays the paper's "
          "fixed pipelines byte-identically)")
    return 0


def cmd_sweep(args) -> int:
    """``archsweep``/``optsweep``/``sourcesweep``: one grid, rendered."""
    session = Session.from_args(args)
    sources = args.sources if "sources" in args else [args.name]
    archs = None  # the session's machine, except in archsweep: all of them
    if "archs" in args:
        archs = args.archs or available_architectures()
    points = session.grid(
        sources, args.configs, archs=archs, opts=getattr(args, "opts", None),
        verify=not args.no_verify,
    )
    if archs is None:  # gaps render only where machines are swept
        _refuse_gaps(points)
    title = args.title.format(
        subject=args.name if "name" in args else f"{len(sources)} sources",
        preset=session.preset,
        machine=session.architecture.name,
    )
    print(args.render(points, title=title))
    return 0


def _add_sweep(sub, command, help, *, axis, configs, title, render, **knobs):
    """One sweep subcommand for :func:`cmd_sweep`: *axis* is the swept
    ``(flag, add_argument keywords)``, ``None`` when the sources are
    (``sourcesweep``); *knobs* drop that dimension's session flag."""
    p = sub.add_parser(command, help=help)
    if axis is None:
        p.add_argument(
            "sources",
            nargs="+",
            metavar="NAME_OR_PATH",
            help="sources to sweep (registry names and/or netlist paths)",
        )
    else:
        p.add_argument("name", metavar="NAME_OR_PATH")
        flag, options = axis
        p.add_argument(flag, nargs="+", **options)
    Session.add_arguments(p, parallel=False, **knobs)
    p.add_argument(
        "--configs",
        nargs="+",
        default=configs,
        metavar="CONFIG",
        help="endurance configurations per sweep point",
    )
    p.add_argument(
        "--no-verify",
        action="store_true",
        help="skip program-vs-MIG co-simulation (faster)",
    )
    p.set_defaults(func=cmd_sweep, title=title, render=render)


def _add_cache_root(parser, help: str = "cache root") -> None:
    """The maintenance commands' ``--cache-dir`` (see
    :func:`_cache_for_maintenance`)."""
    KNOBS["cache_dir"].add_to(parser, help=help, fallback=DEFAULT_ROOT)


def _cache_for_maintenance(args) -> DiskCache:
    """Flag > ``$REPRO_CACHE_DIR`` > default root — maintenance commands
    always need *a* root to inspect, hence the default."""
    return DiskCache(
        resolve_cache_dir(args.cache_dir, default=DEFAULT_ROOT)
    )


def cmd_cache_stats(args) -> int:
    cache = _cache_for_maintenance(args)
    stats = cache.stats()
    url = resolve_cache_url(getattr(args, "cache_url", None))
    server = None
    if url:
        from ..cachesvc import RemoteCache

        server = RemoteCache(url, root=cache.root).server_stats()
        if server is None:
            print(f"warning: cache server {url} unreachable",
                  file=sys.stderr)
        else:
            stats["tiers"] = server.get("tiers", {})
            stats["server"] = server
    if args.json:
        print(json.dumps(stats, indent=2, default=str))
        return 0
    print(f"cache root   : {stats['root']}")
    print(f"code version : {stats['fingerprint']}")
    print(f"entries      : {stats['entries']} ({stats['bytes']} bytes)")
    for shard in stats["shards"]:
        marker = " (current)" if shard["current"] else " (stale)"
        print(
            f"  shard {shard['fingerprint']}{marker}: "
            f"{shard['entries']} entries, {shard['bytes']} bytes"
        )
    if not stats["shards"]:
        print("  (empty)")
    if server is not None:
        tiers = stats.get("tiers", {})
        print(f"server       : {url}")
        print(f"  memory hits         : {tiers.get('memory_hits', 0)}")
        print(f"  disk hits           : {tiers.get('disk_hits', 0)}")
        print("  single-flight waits : "
              f"{tiers.get('single_flight_waits', 0)}")
        print(f"  verify rejects      : {tiers.get('verify_rejects', 0)}")
    return 0


def cmd_cache_clear(args) -> int:
    cache = _cache_for_maintenance(args)
    removed = cache.clear(all_versions=args.all)
    scope = "all code versions" if args.all else "current code version"
    print(f"removed {removed} entries ({scope}) under {cache.root}")
    return 0


def _manifest_shard(args, cache: DiskCache) -> Optional[str]:
    """The fingerprint filter for manifest commands (``--all`` = every
    code-version shard, default = the current one)."""
    return None if args.all else cache.fingerprint


def cmd_manifest_show(args) -> int:
    cache = _cache_for_maintenance(args)
    count = 0
    for path, manifest in iter_manifests(
        cache.root, fingerprint=_manifest_shard(args, cache)
    ):
        count += 1
        artefact = manifest.get("artefact") or {}
        events = manifest.get("events") or []
        kinds = ", ".join(
            sorted({e.get("kind", "?") for e in events})
        ) or "-"
        print(
            f"{manifest.get('benchmark', '?'):12s} "
            f"{manifest.get('config', '?'):16s} "
            f"arch={manifest.get('arch', '?'):12s} "
            f"opt={manifest.get('opt', '?'):8s} "
            f"verified={manifest.get('verified_patterns', 0):<5} "
            f"events=[{kinds}]"
        )
        if args.verbose:
            print(f"    entry : {artefact.get('file')} "
                  f"({artefact.get('bytes')} bytes, "
                  f"sha256 {str(artefact.get('sha256'))[:16]}…)")
            print(f"    shard : {manifest.get('code_fingerprint')}")
            for event in events:
                detail = {
                    k: v for k, v in event.items()
                    if k not in ("kind", "time", "job")
                }
                print(f"    event : {event.get('kind')} {detail}")
    scope = "all code versions" if args.all else "current code version"
    print(f"{count} manifest(s) under {cache.root} ({scope})")
    return 0


def cmd_manifest_verify(args) -> int:
    cache = _cache_for_maintenance(args)
    count = 0
    failures = []
    for path, manifest in iter_manifests(
        cache.root, fingerprint=_manifest_shard(args, cache)
    ):
        count += 1
        problems = verify_manifest(path, manifest or None)
        if problems:
            failures.append((path, problems))
    if args.json:
        print(json.dumps({
            "root": str(cache.root),
            "checked": count,
            "failed": len(failures),
            "failures": [
                {"path": str(path), "problems": problems}
                for path, problems in failures
            ],
        }, indent=2))
        return 1 if failures else 0
    for path, problems in failures:
        print(f"FAIL {path.parent.name}/{path.name}")
        for problem in problems:
            print(f"     {problem}")
    print(f"{count} manifest(s) checked, {len(failures)} failed")
    return 1 if failures else 0


def cmd_serve(args) -> int:
    from ..resilience import resolve_retry
    from ..serve import create_server

    session = Session.from_args(args)
    server = create_server(
        args.host,
        args.port,
        session=session,
        workers=args.workers,
        isolate=not args.no_isolate,
        retry=resolve_retry(args.retries),
        allow_frontend=args.allow_frontend,
        allow_shutdown=args.allow_shutdown,
        verbose=args.verbose,
    )
    host, port = server.server_address[:2]
    mode = "inline threads" if args.no_isolate else "worker processes"
    print(f"repro.serve listening on http://{host}:{port}")
    print(f"  executors : {args.workers} ({mode})")
    print(f"  cache     : {session.cache_dir or 'in-memory only'}")
    print('  submit    : POST /jobs {"source": "adder"}')
    sys.stdout.flush()
    try:
        server.serve_forever()
    finally:
        server.close()
    return 0


def cmd_cachesvc_serve(args) -> int:
    from ..cachesvc import create_cache_server

    server = create_cache_server(
        args.host,
        args.port,
        root=resolve_cache_dir(args.cache_dir, default=DEFAULT_ROOT),
        memory_bytes=args.memory_mb << 20,
        lease_timeout=args.lease_timeout,
        verbose=args.verbose,
    )
    print(f"repro.cachesvc listening on {server.url}")
    print(f"  disk root : {server.disk.root}")
    print(f"  warm tier : {args.memory_mb} MiB in-memory LRU")
    print(f"  leases    : single-flight, {args.lease_timeout:.0f}s TTL")
    print(f"  clients   : --cache-url {server.url}  "
          f"(or export REPRO_CACHE_URL)")
    sys.stdout.flush()
    try:
        server.serve_forever()
    finally:
        server.close()
    return 0


def cmd_cachesvc_stats(args) -> int:
    from ..cachesvc import RemoteCache

    url = resolve_cache_url(args.url)
    if not url:
        print(
            "cachesvc stats: no server; pass --url or set $REPRO_CACHE_URL",
            file=sys.stderr,
        )
        return 2
    payload = RemoteCache(url).server_stats()
    if payload is None:
        print(f"error: cache server {url} unreachable", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(payload, indent=2, default=str))
        return 0
    memory = payload.get("memory", {})
    flight = payload.get("single_flight", {})
    tiers = payload.get("tiers", {})
    print(f"cache server : {url}")
    print(f"  disk root  : {payload.get('root')} "
          f"({payload.get('entries')} entries, {payload.get('bytes')} bytes)")
    print(f"  warm tier  : {memory.get('entries')} entries, "
          f"{memory.get('bytes')}/{memory.get('budget_bytes')} bytes, "
          f"{memory.get('evictions')} evictions")
    print(f"  tiers      : {tiers.get('memory_hits', 0)} memory hits, "
          f"{tiers.get('disk_hits', 0)} disk hits, "
          f"{tiers.get('single_flight_waits', 0)} waits, "
          f"{tiers.get('verify_rejects', 0)} verify rejects")
    print(f"  leases     : {flight.get('active_leases', 0)} active, "
          f"{flight.get('leases', 0)} granted, "
          f"{flight.get('served', 0)} served, "
          f"{flight.get('timeouts', 0)} timeouts, "
          f"{flight.get('breaks', 0)} breaks")
    print(f"  duplicates : {payload.get('duplicate_puts', 0)} "
          "duplicate compiles stored")
    return 0


def cmd_list(args) -> int:
    print("benchmarks (name: paper PI/PO, category):")
    for name in BENCHMARK_ORDER:
        spec = BENCHMARKS[name]
        print(
            f"  {name:12s} {spec.paper_pi:5d}/{spec.paper_po:<5d} "
            f"{spec.category}"
        )
    print("\nconfigurations:", ", ".join(PRESETS))
    print("architectures :", ", ".join(available_architectures()))
    print("optimizers    :", ", ".join(available_strategies()),
          "(see 'repro opt list')")
    print("sources       : registry names above, or netlist paths "
          f"({_NETLIST_FORMATS}; see 'repro source list')")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-plim",
        description=(
            "Endurance management for resistive logic-in-memory computing "
            "(DATE 2017) - experiment harness"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn, doc in [
        ("table1", cmd_table1, "write-traffic statistics (Table I)"),
        ("table2", cmd_table2, "instructions and RRAMs (Table II)"),
        ("table3", cmd_table3, "write-cap sweep (Table III)"),
        ("headline", cmd_headline, "abstract headline numbers"),
        ("report", cmd_report, "all tables + headline from one cached run"),
    ]:
        p = sub.add_parser(name, help=doc)
        _add_suite_options(p)
        p.set_defaults(func=fn)

    p = sub.add_parser("fig1", help="Fig. 1 repeated-destination scenario")
    Session.add_arguments(p, preset=False, parallel=False, cache=False)
    p.set_defaults(func=cmd_fig1)
    p = sub.add_parser("fig2", help="Fig. 2 blocked-RRAM scenario")
    Session.add_arguments(p, preset=False, parallel=False, cache=False)
    p.set_defaults(func=cmd_fig2)

    p = sub.add_parser("bench", help="one circuit, all configurations")
    p.add_argument(
        "name",
        nargs="?",
        default=None,
        metavar="NAME_OR_PATH",
        help=(
            f"registry benchmark or netlist path ({_NETLIST_FORMATS}); "
            "default: --source / $REPRO_SOURCE"
        ),
    )
    Session.add_arguments(p, parallel=False, source=True)
    p.add_argument("--wmax", type=int, default=None,
                   help="additionally run full management at this cap")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("source", help="inspect the circuit-source registry")
    source_sub = p.add_subparsers(dest="source_command", required=True)
    ps = source_sub.add_parser("list", help="registered sources")
    ps.set_defaults(func=cmd_source_list)

    _add_sweep(
        sub, "sourcesweep", "one pipeline across circuit sources",
        axis=None,
        configs=["naive", "ea-full"],
        title="SOURCE SWEEP - {subject} ({preset} preset, {machine} machine)",
        render=report.render_source_sweep,
    )

    p = sub.add_parser("arch", help="inspect the PLiM machine-model registry")
    arch_sub = p.add_subparsers(dest="arch_command", required=True)
    pa = arch_sub.add_parser("list", help="registered architectures")
    pa.set_defaults(func=cmd_arch_list)

    # The swept dimension gets no session knob: no --arch here.
    _add_sweep(
        sub, "archsweep", "one circuit across PLiM machine models",
        axis=("--archs", dict(
            default=None,
            choices=available_architectures(),
            metavar="ARCH",
            help="architectures to sweep (default: all registered)",
        )),
        configs=["naive", "ea-full"],
        title="ARCHITECTURE SWEEP - {subject} ({preset} preset)",
        render=report.render_architecture_sweep,
        arch=False,
    )

    p = sub.add_parser(
        "opt", help="inspect the rewriting-optimizer registries"
    )
    opt_sub = p.add_subparsers(dest="opt_command", required=True)
    po = opt_sub.add_parser(
        "list", help="registered strategies, objectives, and passes"
    )
    po.set_defaults(func=cmd_opt_list)

    # The swept dimension gets no session knob: no --opt here.
    _add_sweep(
        sub, "optsweep", "one circuit across rewriting optimizers",
        axis=("--opts", dict(
            default=["script", "greedy", "budget"],
            metavar="SPEC",
            help=(
                "optimizer specs to sweep, STRATEGY[:OBJECTIVE][@DEPTH] "
                "(default: script greedy budget)"
            ),
        )),
        configs=["ea-full"],
        title="OPTIMIZER SWEEP - {subject} ({preset} preset, {machine} machine)",
        render=report.render_optimizer_sweep,
        opt=False,
    )

    p = sub.add_parser("cache", help="inspect/clear the on-disk experiment cache")
    cache_sub = p.add_subparsers(dest="cache_command", required=True)
    pc = cache_sub.add_parser("stats", help="entry/byte counts per code version")
    _add_cache_root(pc)
    KNOBS["cache_url"].add_to(
        pc,
        help="also aggregate tier counters from a shared cache server",
        fallback="none",
    )
    pc.add_argument("--json", action="store_true",
                    help="machine-readable output (the /stats disk payload)")
    pc.set_defaults(func=cmd_cache_stats)
    pc = cache_sub.add_parser("clear", help="delete cached artefacts")
    _add_cache_root(pc)
    pc.add_argument("--all", action="store_true",
                    help="clear every code-version shard, not just the current one")
    pc.set_defaults(func=cmd_cache_clear)

    p = sub.add_parser(
        "cachesvc",
        help="shared compile-cache service (repro.cachesvc)",
    )
    svc_sub = p.add_subparsers(dest="cachesvc_command", required=True)
    pv = svc_sub.add_parser(
        "serve",
        help="run the cache-manager daemon over one disk root",
    )
    pv.add_argument("--host", default="127.0.0.1",
                    help="bind address (default: loopback only)")
    pv.add_argument("--port", type=int, default=CACHESVC_DEFAULT_PORT,
                    help=f"TCP port (0 = ephemeral; default: "
                         f"{CACHESVC_DEFAULT_PORT})")
    _add_cache_root(pv, help="disk-cache root to serve")
    pv.add_argument("--memory-mb", type=int, default=256, metavar="MB",
                    help="warm in-memory tier budget (default: 256 MiB)")
    pv.add_argument("--lease-timeout", type=float, default=600.0,
                    metavar="S",
                    help="single-flight lease TTL in seconds "
                         "(default: 600)")
    pv.add_argument("-v", "--verbose", action="store_true",
                    help="log every request to stderr")
    pv.set_defaults(func=cmd_cachesvc_serve)
    pv = svc_sub.add_parser("stats", help="query a running server's /stats")
    KNOBS["cache_url"].add_to(
        pv, flag="--url", help="server URL", fallback="none"
    )
    pv.add_argument("--json", action="store_true",
                    help="machine-readable output (the raw /stats payload)")
    pv.set_defaults(func=cmd_cachesvc_stats)

    p = sub.add_parser(
        "manifest",
        help="inspect/verify run_manifest.json provenance sidecars",
    )
    manifest_sub = p.add_subparsers(dest="manifest_command", required=True)
    for name, fn, doc in [
        ("show", cmd_manifest_show,
         "list persisted experiment manifests and their event logs"),
        ("verify", cmd_manifest_verify,
         "re-derive every checkable claim (digests, addressing, shard)"),
    ]:
        pm = manifest_sub.add_parser(name, help=doc)
        _add_cache_root(pm)
        pm.add_argument(
            "--all", action="store_true",
            help="include every code-version shard, not just the current one",
        )
        if name == "show":
            pm.add_argument(
                "-v", "--verbose", action="store_true",
                help="also print artefact digests and full event details",
            )
        else:
            pm.add_argument(
                "--json", action="store_true",
                help="machine-readable verification report",
            )
        pm.set_defaults(func=fn)

    p = sub.add_parser(
        "serve",
        help="compilation-as-a-service HTTP front (repro.serve)",
    )
    Session.add_arguments(p, parallel=False)
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default: loopback only)")
    p.add_argument("--port", type=int, default=8321,
                   help="TCP port (0 = ephemeral; default: 8321)")
    p.add_argument("--workers", type=int, default=2, metavar="N",
                   help="job executors (default: 2)")
    p.add_argument(
        "--no-isolate", action="store_true",
        help=(
            "run jobs inline on executor threads instead of supervised "
            "worker processes (faster startup, no crash isolation)"
        ),
    )
    KNOBS["retries"].add_to(p)
    p.add_argument(
        "--allow-frontend", action="store_true",
        help=(
            "accept inline Python @mig_function sources "
            "(executes submitted code; loopback-trusted clients only)"
        ),
    )
    p.add_argument(
        "--allow-shutdown", action="store_true",
        help="enable POST /shutdown for clean remote stops",
    )
    p.add_argument("-v", "--verbose", action="store_true",
                   help="log every request to stderr")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("list", help="list benchmarks and configurations")
    p.set_defaults(func=cmd_list)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        # Ctrl-C is a request, not a crash: worker pools and cache locks
        # are already released on the way up (the supervisor terminates
        # its pool, DiskCache.store unlinks its lock in a finally), so
        # exit with the conventional 130 and no traceback.
        print("interrupted", file=sys.stderr)
        return 130
    except (ValueError, OSError) as error:
        # Bad source names/paths, unparsable netlists, unknown presets:
        # user input, not harness bugs — render without a traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
