"""The paper's motivating MIGs and the studies that read compiled programs.

Fig. 1 shows a MIG where the area/latency-optimal destination choice
rewrites the *same* device repeatedly: whenever the only single-fanout,
non-complemented child of the node under computation is the previously
computed value, the compiler keeps overwriting that one cell.

Fig. 2 shows the "blocked RRAM" pathology: a node whose consumers sit
many levels higher pins its device for most of the program, while
short-lived neighbours are released and rewritten over and over.

This module rebuilds both MIGs exactly as drawn, plus parametric
generalisations (:func:`fig1_chain`, :func:`fig2_ladder`) used by the
figure benchmarks to show how the pathologies scale and how the paper's
techniques mitigate them; :func:`storage_pressure` reads Fig. 2 off a
compiled program.  It also holds the suite-wide objective study
(:func:`optimizer_objective_study`) behind ``OPT_sweep.txt``.  The
scenarios compile like every design-space sweep, as cells of
:meth:`repro.flow.Session.grid`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..mig.graph import Mig
from ..mig.signal import complement


def fig1_mig() -> Mig:
    """The MIG of the paper's Fig. 1 (nodes A, B, C, inverted child D).

    Node ``A`` is the only single-fanout child of ``B``, and ``B`` in
    turn is the only single-fanout child of ``C``; ``D`` is ``C``'s
    complemented child.  A cost-greedy compiler therefore writes the
    device first holding ``A``, then ``B``, then ``C`` — three writes on
    one cell while ``D``'s device is written once.
    """
    mig = Mig("fig1")
    x1, x2, x3, x4, x5 = (mig.add_pi(f"x{i}") for i in range(1, 6))
    a = mig.add_maj(x1, x2, x3)
    d = mig.add_maj(x2, x3, x4)  # multi-fanout sibling (also an output)
    b = mig.add_maj(a, x2, d)  # A is B's only single-fanout child
    c = mig.add_maj(b, complement(d), x5)  # D enters complemented
    mig.add_po(c, "f")
    mig.add_po(d, "g")
    return mig


def fig1_chain(length: int = 16) -> Mig:
    """Parametric Fig. 1: a chain of *length* nodes where each step's only
    single-fanout child is the previous result — the same device is the
    preferred destination *length* times in a row."""
    if length < 1:
        raise ValueError("chain length must be positive")
    mig = Mig(f"fig1_chain{length}")
    shared = [mig.add_pi(f"s{i}") for i in range(length + 2)]
    current = mig.add_maj(shared[0], shared[1], shared[2])
    for i in range(length):
        current = mig.add_maj(current, shared[i + 1], complement(shared[i + 2]))
    mig.add_po(current, "f")
    # Pin every shared operand with an output so it stays multi-fanout for
    # the whole program: `current` is then the only legal destination at
    # every step, exactly the Fig. 1 pathology.
    for i, s in enumerate(shared):
        mig.add_po(s, f"pin{i}")
    return mig


def fig2_mig() -> Mig:
    """The MIG of the paper's Fig. 2 (nodes A..G).

    ``A`` is consumed only by the root ``G``, three levels above it;
    ``B`` and ``C`` are consumed immediately by ``D`` and ``E``.
    Computing ``A`` early (as a naive order does) blocks its device for
    almost the whole program.
    """
    mig = Mig("fig2")
    x1, x2, x3, x4, x5, x6 = (mig.add_pi(f"x{i}") for i in range(1, 7))
    a = mig.add_maj(x1, x2, complement(x3))
    b = mig.add_maj(x2, x3, x4)
    c = mig.add_maj(x4, x5, x6)
    d = mig.add_maj(b, c, x1)
    e = mig.add_maj(c, x5, complement(x6))
    f = mig.add_maj(d, e, x2)
    g = mig.add_maj(a, f, complement(x4))
    mig.add_po(g, "g")
    return mig


def fig2_ladder(rungs: int = 8) -> Mig:
    """Parametric Fig. 2: *rungs* long-storage producers, each consumed
    only by the root, interleaved with short-lived ladder logic.

    The larger *rungs* is, the more devices a storage-oblivious order
    blocks simultaneously; Algorithm 3 defers the producers instead.
    """
    if rungs < 1:
        raise ValueError("need at least one rung")
    mig = Mig(f"fig2_ladder{rungs}")
    xs = [mig.add_pi(f"x{i}") for i in range(2 * rungs + 3)]
    blocked: List[int] = []
    rail = mig.add_maj(xs[0], xs[1], xs[2])
    for i in range(rungs):
        blocked.append(mig.add_maj(xs[i], xs[i + 1], complement(xs[i + 2])))
        rail = mig.add_maj(rail, xs[i + 2], complement(xs[i + 1]))
    root = rail
    for producer in blocked:  # consumed only here, at the very top
        root = mig.add_maj(root, producer, xs[0])
    mig.add_po(root, "g")
    return mig


@dataclass(frozen=True)
class ObjectiveStudyRow:
    """One benchmark of the suite-wide objective study.

    Objective scores of the raw graph, the fixed baseline script's
    result, and the cost-guided optimizer's result — ``improved`` flags
    a strict reduction of the optimizer over the script.
    """

    benchmark: str
    raw: int
    script: int
    optimized: int

    @property
    def improved(self) -> bool:
        return self.optimized < self.script


def optimizer_objective_study(
    benchmarks: Optional[Sequence[str]] = None,
    *,
    opt="greedy",
    baseline: str = "endurance",
    effort: Optional[int] = None,
    preset: Optional[str] = None,
    session=None,
) -> List[ObjectiveStudyRow]:
    """Score a cost-guided optimizer against a fixed script, suite-wide.

    For each registry benchmark the *baseline* script and the *opt*
    optimizer rewrite the same graph (both through the session cache,
    so rewrites persist and rerunning the study is cheap) and the
    optimizer's objective — priced under the session's architecture —
    is compared.  This is the quantitative backing of the paper-level
    claim that cost-guided rewriting beats fixed pipelines: the
    ``OPT_sweep.txt`` benchmark artefact asserts the optimizer strictly
    improves at least half the suite.
    """
    from ..flow import Session  # deferred: flow imports analysis
    from ..opt import DEFAULT_EFFORT, Optimizer
    from ..synth.registry import BENCHMARK_ORDER
    from .runner import mig_key

    if session is None:
        session = Session()
    names = list(benchmarks) if benchmarks is not None else list(BENCHMARK_ORDER)
    effort = effort if effort is not None else DEFAULT_EFFORT
    preset = preset or session.preset
    optimizer = Optimizer(opt, session.architecture)
    script = Optimizer("script", session.architecture)
    rows: List[ObjectiveStudyRow] = []
    for name in names:
        mig = session.cache.benchmark_mig(name, preset)
        graph_id = mig_key(mig)
        scripted = session.cache.rewritten(
            mig, baseline, effort, key=graph_id, optimizer=script
        )
        optimized = session.cache.rewritten(
            mig, baseline, effort, key=graph_id, optimizer=optimizer
        )
        rows.append(
            ObjectiveStudyRow(
                benchmark=name,
                raw=optimizer.score(mig),
                script=optimizer.score(scripted),
                optimized=optimizer.score(optimized),
            )
        )
    return rows


def storage_pressure(program) -> Tuple[int, float]:
    """(longest, mean) value lifetime of a compiled program, in
    instructions — the quantitative reading of Fig. 2."""
    spans = program.value_lifetimes()
    lengths = [stop - start for cell in spans for start, stop in cell]
    if not lengths:
        return 0, 0.0
    return max(lengths), sum(lengths) / len(lengths)
