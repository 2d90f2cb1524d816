"""The :class:`RewritePass` registry: structural passes as first-class values.

The rewriting engine (:mod:`repro.mig.rewrite`) exposes its passes as
bare ``Mig -> Mig`` callables keyed by the paper's shorthand (``"M"``,
``"D_rl"``, …).  The optimiser layer needs more than a callable: a
strategy choosing between candidate passes wants to know what a pass
*is* (a human-readable description for reports and ``repro opt list``)
and what it *guarantees* (every built-in pass is an equivalence-
preserving axiom application — asserted wholesale by the per-pass
equivalence sweeps in the test suite).  This module wraps each pass in
an immutable :class:`RewritePass` carrying that metadata, plus the two
fixed script *cycles* as composite candidates, so cost-guided
strategies can weigh "one more endurance cycle" against an individual
axiom on equal footing.

Custom passes register like architectures and objectives do::

    from repro.opt import RewritePass, register_pass

    register_pass(RewritePass(
        name="my_pass",
        fn=my_mig_to_mig_function,
        description="what it rewrites",
    ))

Registered passes are visible to the ``greedy``/``budget`` strategies
(via :func:`candidate_passes`) and to ``repro opt list``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List

from ..mig.graph import Mig
from ..mig.rewrite import PASSES
from .scripts import ALGORITHM1_STEPS, ALGORITHM2_STEPS


@dataclass(frozen=True)
class RewritePass:
    """One rewriting step a strategy may apply, with metadata.

    ``kind`` distinguishes single axiom applications (``"atomic"``) from
    whole fixed-script cycles wrapped as one candidate (``"cycle"``).
    ``preserves_equivalence`` documents (and the test suite's randomized
    sweeps enforce, for built-ins) that applying the pass never changes
    the function computed at the primary outputs — the property that
    lets every strategy freely compose registered passes.
    """

    name: str
    fn: Callable[[Mig], Mig] = field(repr=False)
    description: str = ""
    kind: str = "atomic"
    preserves_equivalence: bool = True

    def apply(self, mig: Mig) -> Mig:
        """Run the pass.  Never mutates *mig*'s structure (it may add
        derived-state entries such as the rewrite memos), and returns
        *mig* itself when nothing fired, so callers must not mutate the
        result."""
        return self.fn(mig)


def _cycle(steps) -> Callable[[Mig], Mig]:
    """One full script cycle as a single composite transformation."""

    def run(mig: Mig) -> Mig:
        result = mig
        for name in steps:
            result = PASSES[name](result)
        return result

    return run


#: Registered passes, registration order (the tie-break order used by
#: the greedy/budget strategies).
_REGISTRY: Dict[str, RewritePass] = {}


def register_pass(
    rewrite_pass: RewritePass, *, overwrite: bool = False
) -> RewritePass:
    """Add a pass to the registry under ``rewrite_pass.name``; returns it."""
    if not overwrite and rewrite_pass.name in _REGISTRY:
        raise ValueError(
            f"rewrite pass {rewrite_pass.name!r} is already registered; "
            "pass overwrite=True to replace it"
        )
    _REGISTRY[rewrite_pass.name] = rewrite_pass
    return rewrite_pass


def get_pass(name: str) -> RewritePass:
    """Look a pass up by registry name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown rewrite pass {name!r}; expected one of "
            f"{available_passes()}"
        ) from None


def available_passes() -> List[str]:
    """Registered pass names, registration order."""
    return list(_REGISTRY)


def candidate_passes() -> List[RewritePass]:
    """The candidate set the search strategies choose from (all
    registered passes, registration order)."""
    return list(_REGISTRY.values())


def atomic_passes() -> List[RewritePass]:
    """Only the single-axiom passes (the equivalence-sweep surface)."""
    return [p for p in _REGISTRY.values() if p.kind == "atomic"]


# -- built-in passes -----------------------------------------------------

_DESCRIPTIONS = {
    "M": "Omega.M: node-creation identities + structural hashing",
    "D_rl": "Omega.D(R->L): factor shared operand pairs out of fanins",
    "A": "Omega.A: associativity swap through shared operands",
    "Psi_C": "Psi.C: replace an inner complement of an outer operand",
    "I_rl_1_3": "Omega.I(R->L)(1-3): normalise 2/3-complement nodes",
    "I_rl": "Omega.I(R->L): remove triple-complemented nodes",
    "P": "polarity local search: re-choose each gate's stored phase",
}

for _name, _fn in PASSES.items():
    register_pass(
        RewritePass(name=_name, fn=_fn, description=_DESCRIPTIONS[_name])
    )

register_pass(
    RewritePass(
        name="cycle:dac16",
        fn=_cycle(ALGORITHM1_STEPS),
        description="one full Algorithm 1 (DAC'16) script cycle",
        kind="cycle",
    )
)
register_pass(
    RewritePass(
        name="cycle:endurance",
        fn=_cycle(ALGORITHM2_STEPS),
        description="one full Algorithm 2 (endurance-aware) script cycle",
        kind="cycle",
    )
)
