"""Which layer entry points the traced run wraps, and the per-layer metrics.

Each entry point is wrapped at the name its caller resolves it through
(a module global, a registry dict entry, or a class attribute), so the
program runs unmodified.  Span names start with the layer name; the
``trace`` layer is the tracer's own work (graph fingerprints for the
no-op check).

The per-layer metrics are the ones ``BENCHMARK.json`` lists;
:func:`layer_metrics` fills each of them from a traced pass.
"""

from __future__ import annotations

import importlib
import json
import threading
from pathlib import Path
from typing import Dict, List, Tuple

#: Rewrite passes of :data:`repro.mig.rewrite.PASSES`.
PASS_NAMES: Tuple[str, ...] = ("M", "D_rl", "A", "Psi_C", "I_rl_1_3", "I_rl", "P")


def per_layer() -> List[Tuple[str, str]]:
    """``(name, unit)`` of every per-layer metric ``BENCHMARK.json``
    lists, in report order."""
    path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    return [(m["name"], m["unit"]) for m in json.loads(path.read_text())["per_layer"]]


#: Counters reported as counts (summed over a pass, exact when the
#: workload is deterministic) — the exact-count repeat check compares
#: these plus the workload's output-quality totals.
COUNT_KEYS: Tuple[str, ...] = tuple(
    [f"rewrite.{p}.{k}" for p in PASS_NAMES for k in ("calls", "noops")]
    + [
        "source.calls", "source.gates", "rewrite.gates_out",
        "opt.candidates", "opt.accepted", "opt.objective.calls",
        "compile.calls", "verify.calls", "verify.patterns",
        "kernel.simulate.calls", "kernel.equiv.calls", "kernel.patterns",
        "cache.memory_hits", "cache.memory_misses",
        "disk.hits", "disk.misses", "disk.lock_skips",
    ]
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class _CommitCounter:
    """Counts the candidates a greedy search committed to, per thread.

    ``GreedyStrategy`` applies every candidate of a round to the round's
    starting graph and starts the next round from the one candidate
    result it chose, so it committed exactly when a candidate's input
    differs from the previous candidate's input.  Other strategies are
    not counted: the budget search also applies candidates to its
    look-ahead results, which it has not committed to.
    """

    def __init__(self) -> None:
        self._local = threading.local()

    def start(self, counting: bool) -> None:
        self._local.counting = counting
        self._local.input = None

    def committed(self, graph) -> bool:
        state = self._local
        if not getattr(state, "counting", False):
            return False
        previous, state.input = state.input, graph
        return previous is not None and graph is not previous


def install(tracer) -> None:
    """Wrap every layer entry point the per-layer metrics come from."""
    import repro.analysis.runner as runner
    import repro.mig.kernel as kernel
    import repro.mig.rewrite as rewrite
    import repro.opt.engine as engine
    import repro.plim.verify as verify
    from repro.analysis.diskcache import DiskCache
    from repro.cachesvc.client import RemoteCache
    from repro.core.stats import WriteTrafficStats
    from repro.mig.graph import Mig
    from repro.opt.objectives import Objective
    from repro.opt.passes import RewritePass
    from repro.plim.compiler import PlimCompiler
    from repro.plim.controller import PlimController

    # repro.mig re-exports a function named simulate over the module name.
    simulate = importlib.import_module("repro.mig.simulate")
    count = tracer.count

    def traced_pass(name, call, graph):
        index = tracer.open(f"rewrite.{name}")
        try:
            result = call()
        finally:
            tracer.close(index)
        with tracer.span("trace.fingerprint"):
            noop = graph.content_fingerprint() == result.content_fingerprint()
        count(f"rewrite.{name}.calls")
        count(f"rewrite.{name}.noops", int(noop))
        return result

    # source: registry builds, resolved through the runner's global
    def built(args, kwargs, mig):
        count("source.calls")
        count("source.gates", mig.num_live_gates())

    tracer.wrap(runner, "build_benchmark", "source", after=built)

    # rewrite: the PASSES registry the scripts look passes up in ...
    for name, fn in list(rewrite.PASSES.items()):
        tracer.patch(
            rewrite.PASSES, name,
            lambda graph, _n=name, _f=fn: traced_pass(_n, lambda: _f(graph), graph),
        )
    # ... and the RewritePass candidates the search strategies apply.
    commits = _CommitCounter()
    apply = RewritePass.apply

    def traced_apply(self, graph):
        count("opt.candidates")
        count("opt.accepted", int(commits.committed(graph)))
        if self.kind == "atomic":
            return traced_pass(self.name, lambda: apply(self, graph), graph)
        with tracer.span("opt.cycle"):
            return apply(self, graph)

    tracer.patch(RewritePass, "apply", traced_apply)
    tracer.wrap(engine, "rewrite", "rewrite.script")
    tracer.wrap(Mig, "cleanup", "rewrite.cleanup")

    # opt: the optimizer driver and its objective
    run = engine.Optimizer.run

    def traced_run(self, mig, *args, **kwargs):
        commits.start(self.spec.strategy == "greedy")
        try:
            with tracer.span("opt.run"):
                result = run(self, mig, *args, **kwargs)
        finally:
            commits.start(False)
        count("rewrite.gates_out", result.num_live_gates())
        return result

    tracer.patch(engine.Optimizer, "run", traced_run)
    tracer.wrap(
        Objective, "score", "opt.objective",
        after=lambda a, k, r: count("opt.objective.calls"),
    )

    # compile: pipeline body, RM3 compiler, statistics
    tracer.wrap(
        runner, "compile_pipeline", "compile",
        after=lambda a, k, r: count("compile.calls"),
    )
    tracer.wrap(PlimCompiler, "compile", "compile.plim")
    tracer.wrap(WriteTrafficStats, "from_counts", "compile.stats")

    # verify: co-simulation entry (runner's name and the module's) and
    # the behavioural array controller
    for owner in (runner, verify):
        tracer.wrap(
            owner, "verify_program", "verify",
            after=lambda a, k, r: count("verify.calls"),
        )

    def array_run(args, kwargs, result):
        mask = kwargs.get("mask", args[3] if len(args) > 3 else 1)
        count("verify.patterns", mask.bit_length())

    tracer.wrap(PlimController, "run", "verify.array", after=array_run)

    # kernel: engine methods and the equivalence entry
    def simulated(args, kwargs, result):
        count("kernel.simulate.calls")
        count("kernel.patterns", kwargs.get("mask", args[-1]).bit_length())

    def window(args, kwargs, result):
        if result is not None:
            count("kernel.simulate.calls")
            count("kernel.patterns", kwargs.get("width", args[-1]))

    for cls in (kernel.BigintKernel, kernel.NumpyKernel, kernel.NumpyBatchKernel):
        if "simulate" in vars(cls):
            tracer.wrap(cls, "simulate", "kernel.simulate", after=simulated)
        if "exhaustive_window" in vars(cls):
            tracer.wrap(cls, "exhaustive_window", "kernel.simulate", after=window)

    def equiv(args, kwargs, result):
        count("kernel.equiv.calls")
        if args[0].num_pis <= simulate.MAX_EXHAUSTIVE_PIS:
            count("kernel.patterns", 2 << args[0].num_pis)

    tracer.wrap(simulate, "equivalent", "kernel.equiv", after=equiv)

    # experiment cache, disk cache, cache-service client
    for attr in (
        "compile", "rewritten", "verify", "benchmark_mig", "source_mig",
        "has", "has_rewritten", "cached_mig", "cached_source_mig",
    ):
        tracer.wrap(runner.ExperimentCache, attr, "cache")
    for attr in ("load", "load_blob"):
        tracer.wrap(DiskCache, attr, "disk.load")
    for attr in ("store", "store_blob"):
        tracer.wrap(DiskCache, attr, "disk.store")
    tracer.wrap(RemoteCache, "load", "cachesvc.load")
    tracer.wrap(RemoteCache, "store", "cachesvc.store")


def layer_metrics(tracer, start: float, end: float, extra: Dict) -> Dict[str, float]:
    """Every :func:`per_layer` metric of one traced pass.

    *extra* carries what the workload read from public counters
    (``cache.*``, ``disk.*``, ``cachesvc.*``, ``serve.*``, ``flow.*``)
    plus ``trace.overhead_ratio`` and ``trace.count_drift``; anything a
    workload does not exercise reports 0.
    """
    seconds, _ = tracer.self_times()
    counts = tracer.counts

    def layer(prefix: str) -> float:
        return sum(v for k, v in seconds.items() if k == prefix or k.startswith(prefix + "."))

    m: Dict[str, float] = {
        "source.s": seconds.get("source", 0.0),
        "source.calls": counts["source.calls"],
        "source.gates": counts["source.gates"],
    }
    calls = noops = 0
    for name in PASS_NAMES:
        c, n = counts[f"rewrite.{name}.calls"], counts[f"rewrite.{name}.noops"]
        calls, noops = calls + c, noops + n
        m[f"rewrite.{name}.s"] = seconds.get(f"rewrite.{name}", 0.0)
        m[f"rewrite.{name}.calls"] = c
        m[f"rewrite.{name}.noop_ratio"] = _ratio(n, c)
    kernel_s = seconds.get("kernel.simulate", 0.0) + seconds.get("kernel.equiv", 0.0)
    m.update({
        "rewrite.s": layer("rewrite"),
        "rewrite.noop_ratio": _ratio(noops, calls),
        "rewrite.cleanup.s": seconds.get("rewrite.cleanup", 0.0),
        "rewrite.gates_out": counts["rewrite.gates_out"],
        "opt.s": layer("opt"),
        "opt.candidates": counts["opt.candidates"],
        "opt.accept_ratio": _ratio(counts["opt.accepted"], counts["opt.candidates"]),
        "opt.objective.s": seconds.get("opt.objective", 0.0),
        "opt.objective.calls": counts["opt.objective.calls"],
        "compile.s": layer("compile"),
        "compile.calls": counts["compile.calls"],
        "compile.plim.s": seconds.get("compile.plim", 0.0),
        "compile.stats.s": seconds.get("compile.stats", 0.0),
        "verify.s": layer("verify"),
        "verify.calls": counts["verify.calls"],
        "verify.array.s": seconds.get("verify.array", 0.0),
        "verify.patterns": counts["verify.patterns"],
        "kernel.simulate.s": seconds.get("kernel.simulate", 0.0),
        "kernel.simulate.calls": counts["kernel.simulate.calls"],
        "kernel.equiv.s": seconds.get("kernel.equiv", 0.0),
        "kernel.equiv.calls": counts["kernel.equiv.calls"],
        "kernel.patterns_per_s": _ratio(counts["kernel.patterns"], kernel_s),
        "cache.s": layer("cache"),
        "disk.load.s": seconds.get("disk.load", 0.0),
        "disk.store.s": seconds.get("disk.store", 0.0),
        "cachesvc.load.s": seconds.get("cachesvc.load", 0.0),
        "cachesvc.store.s": seconds.get("cachesvc.store", 0.0),
        "serve.submit.s": seconds.get("serve.submit", 0.0),
        "serve.wait.s": seconds.get("serve.wait", 0.0),
        "serve.result.s": seconds.get("serve.result", 0.0),
        "trace.unattributed_ratio": 1.0 - _ratio(
            tracer.covered_seconds(start, end), end - start
        ),
    })
    return {name: m[name] if name in m else extra.get(name, 0) for name, _ in per_layer()}


def pass_counts(tracer, extra: Dict) -> Dict[str, float]:
    """The counters of :data:`COUNT_KEYS` for one traced pass."""
    counts = {key: extra.get(key, tracer.counts[key]) for key in COUNT_KEYS}
    for kind in ("calls", "noops"):
        counts[f"rewrite.{kind}"] = sum(counts[f"rewrite.{p}.{kind}"] for p in PASS_NAMES)
    return counts
