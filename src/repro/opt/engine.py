"""The pass manager: optimizer specs, strategies, and resolution.

A run's rewriting behaviour is one :class:`OptimizerSpec` — *which
strategy* walks the pass space, *which objective* it minimises, and how
much look-ahead it may spend — resolved with the harness-wide
precedence **flag > environment > default**: an explicit
``--opt``/``Session(opt=...)`` wins, else ``$REPRO_OPT``, else the
``script`` strategy (the paper's fixed pipelines, byte-identical to the
pre-optimizer behaviour).

Three strategies ship built in:

``script`` (default)
    The legacy fixed pipelines: the configuration's rewriting script
    (``none``/``dac16``/``endurance``) replayed exactly as
    :mod:`repro.opt.scripts` defines it.
``greedy``
    Cost-guided hill climbing: each round applies every candidate pass
    (the atomic axioms *and* the two script cycles as composite
    candidates) to the current graph, scores the results under the
    objective, and keeps the strictly best one; stops when no candidate
    improves.  With the architecture-aware ``write_cost`` objective
    this is rewriting steered by the target machine's cost model.
``budget``
    Bounded look-ahead search over the atomic axioms: each round
    explores every pass sequence up to ``lookahead`` deep and commits
    to the best strictly improving one — it can cross plateaus a
    single-step greedy cannot (apply a pass that pays off only after a
    second pass).  The effort knob bounds the number of rounds.

``greedy`` and ``budget`` share one round loop (:class:`SearchStrategy`)
and differ only in how a round explores.

Specs parse from compact strings (``"greedy"``,
``"greedy:node_count"``, ``"budget:write_cost@3"``); the same strings
work for ``--opt``, ``$REPRO_OPT``, ``Session(opt=...)``,
``Flow.optimize(...)``, and ship across ``run_matrix`` worker
boundaries inside a :class:`repro.flow.SessionSpec`.

Strategies are registered like architectures and objectives
(:func:`register_strategy`), so a custom search is a class away.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from .._env import env_value
from ..arch import Architecture
from ..mig.graph import Mig
from ..mig.rewrite import remember_pass_results
from .objectives import DEFAULT_OBJECTIVE, Objective, get_objective
from .passes import atomic_passes, candidate_passes
from .scripts import DEFAULT_EFFORT, rewrite

#: Environment variable selecting the optimizer (overridden by an
#: explicit ``--opt`` flag / ``Session(opt=...)`` argument).
OPT_ENV_VAR = "REPRO_OPT"

#: Spec string used when nothing is selected (the legacy pipelines).
DEFAULT_OPTIMIZER = "script"

#: Default look-ahead depth of the ``budget`` strategy.
DEFAULT_LOOKAHEAD = 2


class Strategy:
    """How the pass manager walks the rewriting space.

    Subclasses implement :meth:`run`; *script* and *effort* come from
    the endurance configuration (the fixed pipelines consume both, the
    search strategies use *effort* as their round budget), *objective*
    and *lookahead* from the :class:`OptimizerSpec`.
    """

    name: str = ""
    #: Whether the strategy consumes the spec's look-ahead depth.  The
    #: canonical spec label and the cache key carry ``@lookahead`` only
    #: for strategies that declare it — a custom registered strategy
    #: that uses the knob must set this, or two depths would collide in
    #: the caches and lose the depth across worker boundaries.
    uses_lookahead: bool = False

    def run(
        self,
        mig: Mig,
        *,
        script: str,
        effort: int,
        objective: Objective,
        arch: Architecture,
        lookahead: int,
    ) -> Mig:
        raise NotImplementedError


class ScriptStrategy(Strategy):
    """The paper's fixed pipelines, exactly as published (default)."""

    name = "script"

    def run(self, mig, *, script, effort, objective, arch, lookahead):
        return rewrite(mig, script, effort=effort)


class SearchStrategy(Strategy):
    """Hill climbing in rounds under the objective.

    Every round starts from the current graph, explores candidate
    results with :meth:`explore`, and commits to the best one only on a
    *strict* score improvement, so runs are deterministic and terminate
    (scores are non-negative integers).  The effort knob bounds the
    rounds.  Subclasses differ only in how a round explores.

    While a round runs, its start graph remembers each built-in pass's
    result (:func:`repro.mig.rewrite.remember_pass_results`), so a
    candidate that re-applies a pass to the start graph (a script
    cycle's first firing step, a look-ahead re-expanding a no-op) gets
    the stored graph back.  The start graph is always private to the run (a
    cleanup copy or a strictly better pass result), and the memo is
    dropped when the round ends, so it holds one round's results.
    """

    #: Safety valve: rounds per unit of effort.
    ROUNDS_PER_EFFORT = 1

    def run(self, mig, *, script, effort, objective, arch, lookahead):
        current = mig.cleanup()
        if script == "none":
            return current
        score = objective.score(current, arch)
        for _ in range(max(1, effort) * self.ROUNDS_PER_EFFORT):
            with remember_pass_results(current):
                best, best_score = self.explore(
                    current, score, objective, arch, lookahead
                )
            if best is None:
                break
            current, score = best, best_score
        return current.cleanup()

    def explore(self, start, score, objective, arch, lookahead):
        """The best result scoring strictly below *score* reachable
        from *start* in one round, with its score; ``(None, score)``
        when nothing improves.  Ties go to the first result found."""
        raise NotImplementedError


class GreedyStrategy(SearchStrategy):
    """Per-round best-of-candidate-passes under the objective.

    A round applies every registered candidate (the atomic axioms and
    the two script cycles) to the start graph; ties break toward the
    earlier registered candidate.
    """

    name = "greedy"

    #: Strict integer descent terminates on its own long before this in
    #: practice.
    ROUNDS_PER_EFFORT = 8

    def explore(self, start, score, objective, arch, lookahead):
        best = None
        for candidate in candidate_passes():
            result = candidate.apply(start)
            result_score = objective.score(result, arch)
            if result_score < score:
                best, score = result, result_score
        return best, score


class BudgetStrategy(SearchStrategy):
    """Bounded look-ahead search over the atomic axiom passes.

    Each round explores every pass sequence up to *lookahead* deep from
    the current graph and commits to the end point of the best strictly
    improving one.  Unlike :class:`GreedyStrategy` it can cross score
    plateaus — a pass that does not pay off until a follow-up pass runs
    is visible within the horizon.  The effort knob bounds the rounds,
    so the total work is ``O(effort * |passes| ** lookahead)`` pass
    applications.
    """

    name = "budget"
    uses_lookahead = True

    ROUNDS_PER_EFFORT = 4

    def explore(self, start, score, objective, arch, lookahead):
        passes = atomic_passes()
        best = None
        # Depth-first over pass sequences; the best end point wins
        # regardless of depth (a shorter improving sequence beats a
        # longer sequence reaching the same score — it is found first,
        # and only strict improvements replace the best).
        stack = [(start, 0)]
        while stack:
            graph, depth = stack.pop()
            for candidate in passes:
                result = candidate.apply(graph)
                result_score = objective.score(result, arch)
                if result_score < score:
                    best, score = result, result_score
                if depth + 1 < lookahead:
                    stack.append((result, depth + 1))
        return best, score


#: Registered strategies, registration order.
_STRATEGIES: Dict[str, Strategy] = {}


def register_strategy(
    strategy: Strategy, *, overwrite: bool = False
) -> Strategy:
    """Add *strategy* to the registry under ``strategy.name``."""
    if not strategy.name:
        raise ValueError("strategy needs a non-empty name")
    if not overwrite and strategy.name in _STRATEGIES:
        raise ValueError(
            f"strategy {strategy.name!r} is already registered; "
            "pass overwrite=True to replace it"
        )
    _STRATEGIES[strategy.name] = strategy
    return strategy


def get_strategy(name: str) -> Strategy:
    """Look a strategy up by registry name."""
    try:
        return _STRATEGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown optimizer strategy {name!r}; expected one of "
            f"{available_strategies()}"
        ) from None


def available_strategies() -> List[str]:
    """Registered strategy names, registration order."""
    return list(_STRATEGIES)


register_strategy(ScriptStrategy())
register_strategy(GreedyStrategy())
register_strategy(BudgetStrategy())


@dataclass(frozen=True)
class OptimizerSpec:
    """One optimizer selection: strategy x objective x look-ahead.

    Immutable and hashable; :meth:`parse` and :meth:`label` round-trip
    through the compact string form used by ``--opt`` / ``$REPRO_OPT``
    and shipped across process boundaries in a
    :class:`repro.flow.SessionSpec`.
    """

    strategy: str = DEFAULT_OPTIMIZER
    objective: str = DEFAULT_OBJECTIVE
    lookahead: int = DEFAULT_LOOKAHEAD

    def __post_init__(self) -> None:
        get_strategy(self.strategy)  # fail fast on unknown names
        get_objective(self.objective)
        if self.lookahead < 1:
            raise ValueError(
                f"look-ahead must be at least 1, got {self.lookahead}"
            )

    @classmethod
    def parse(cls, text: Union[str, "OptimizerSpec"]) -> "OptimizerSpec":
        """Spec from its compact string form.

        ``STRATEGY[:OBJECTIVE][@LOOKAHEAD]`` — e.g. ``"script"``,
        ``"greedy"``, ``"greedy:node_count"``, ``"budget:write_cost@3"``.
        Omitted parts take the defaults (``write_cost``, look-ahead 2).
        """
        if isinstance(text, cls):
            return text
        body = text.strip()
        lookahead = DEFAULT_LOOKAHEAD
        if "@" in body:
            body, _, depth = body.partition("@")
            try:
                lookahead = int(depth)
            except ValueError:
                raise ValueError(
                    f"invalid optimizer look-ahead {depth!r} in {text!r}"
                ) from None
        strategy, _, objective = body.partition(":")
        if not strategy:
            raise ValueError(f"empty optimizer spec {text!r}")
        return cls(
            strategy=strategy,
            objective=objective or DEFAULT_OBJECTIVE,
            lookahead=lookahead,
        )

    def label(self) -> str:
        """Canonical compact string form (round-trips through parse)."""
        if self.strategy == "script":
            return "script"
        text = f"{self.strategy}:{self.objective}"
        if get_strategy(self.strategy).uses_lookahead:
            text += f"@{self.lookahead}"
        return text

    def __str__(self) -> str:
        return self.label()

    def key(self) -> Tuple:
        """Semantic identity for compiled-artefact cache keying.

        The ``script`` strategy collapses to a constant: its result is
        fully determined by the configuration's script and effort, which
        the configuration key already carries.  Look-ahead is part of
        the identity exactly for strategies that consume it.
        """
        if self.strategy == "script":
            return ("script",)
        if get_strategy(self.strategy).uses_lookahead:
            return (self.strategy, self.objective, self.lookahead)
        return (self.strategy, self.objective)


#: An optimizer request: a spec string, an :class:`OptimizerSpec`, or
#: ``None`` for the ambient (``$REPRO_OPT``, else default) selection.
OptLike = Union[str, OptimizerSpec, None]


def resolve_optimizer(opt: OptLike = None) -> OptimizerSpec:
    """Uniform optimizer resolution: explicit > ``$REPRO_OPT`` > default."""
    if opt is None:
        opt = env_value(OPT_ENV_VAR)
    return OptimizerSpec.parse(opt) if opt is not None else OptimizerSpec()


def opt_from_env() -> Optional[str]:
    """The ``$REPRO_OPT`` selection, if any (validated, canonical)."""
    env = env_value(OPT_ENV_VAR)
    return OptimizerSpec.parse(env).label() if env else None


class Optimizer:
    """An :class:`OptimizerSpec` bound to a target machine: the object
    the rewrite stage runs and the caches key rewriting artefacts by.

    The bound architecture matters exactly when the objective is
    architecture-sensitive (the machine's cost model steers the
    search); :meth:`rewrite_key` reflects that, so rewriting results
    are shared across machines whenever they legitimately can be.
    """

    def __init__(self, spec: OptLike, arch: Architecture) -> None:
        self.spec = resolve_optimizer(spec)
        self.arch = arch
        self.strategy = get_strategy(self.spec.strategy)
        self.objective = get_objective(self.spec.objective)

    def run(
        self, mig: Mig, script: str, effort: int = DEFAULT_EFFORT
    ) -> Mig:
        """Optimise *mig*.

        *script* and *effort* come from the endurance configuration:
        the ``script`` strategy replays the named pipeline, the search
        strategies use *effort* as their round budget — and ``"none"``
        keeps meaning *no rewriting* under every strategy, so baseline
        configurations stay baselines in optimizer sweeps.
        """
        return self.strategy.run(
            mig,
            script=script,
            effort=effort,
            objective=self.objective,
            arch=self.arch,
            lookahead=self.spec.lookahead,
        )

    def rewrite_key(self, script: str, effort: int) -> Tuple:
        """Cache identity of this optimizer's rewriting result.

        Script-driven results are keyed by (script, effort) exactly as
        the legacy cache was; search results drop the script (the
        search never consults it) and gain the strategy, objective,
        look-ahead, and — for architecture-sensitive objectives — the
        machine key.
        """
        if self.spec.strategy == "script" or script == "none":
            return ("script", script, effort)
        key = (*self.spec.key(), effort)
        if self.objective.arch_sensitive:
            key += (self.arch.key(),)
        return key

    def key(self) -> Tuple:
        """Spec identity for compiled-artefact keys (see
        :meth:`OptimizerSpec.key`)."""
        return self.spec.key()

    def score(self, mig: Mig) -> int:
        """This optimizer's objective score of *mig* on its machine."""
        return self.objective.score(mig, self.arch)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Optimizer({self.spec.label()!r}, arch={self.arch.name!r})"
