"""Pluggable cost :class:`Objective`\\ s the rewriting strategies minimise.

The paper's central argument is that MIG rewriting for PLiM should be
driven by the *target cost* — RM3 instruction count and RRAM write
pressure — rather than generic size/depth heuristics.  An objective is
a cheap, compile-free scoring function ``score(mig, arch) -> int``
(lower is better) a search strategy can evaluate once per candidate
pass; three ship built in:

``node_count``
    Live majority gates — the classic logic-synthesis size objective.
    Architecture-oblivious.
``depth``
    Longest PI-to-PO path — the classic delay objective.
    Architecture-oblivious.
``write_cost`` (default)
    Architecture-aware estimated write pressure: every node is priced
    through the target machine's :class:`~repro.arch.CostModel` by
    replaying the compiler's Section III violation analysis *statically*
    (no selection, no allocation, no program emission).  A machine whose
    inversion or copy repairs cost differently re-prices the same graph,
    so the optimiser steers toward structures that machine compiles
    cheaply.

The write-cost estimate per majority node mirrors the compiler's role
assignment: one RM3 (one device write) when one complemented fanin can
serve as the intrinsically inverted operand ``Q`` and a non-complemented
single-fanout gate fanin can be overwritten as the destination ``Z``;
each violation adds the cost model's repair instructions (a missing
complement needs a ``Q`` helper inversion, each surplus complement a
``P`` inversion, a missing overwritable destination a copy/constant
initialisation).  It is an *estimate* — selection order and allocation
can still shift the exact bill — but it is monotone in the violations
the paper's Algorithm 2 targets.  The bills of all 64 fanin-class
triples are tabulated once per cost model, so scoring a graph is one
linear scan with a table lookup per gate.

Custom objectives register like architectures do::

    from repro.opt import Objective, register_objective

    register_objective(Objective(
        name="complement_edges",
        fn=lambda mig, arch: mig.num_complemented_edges(),
        description="total complemented edges",
    ))

and then work everywhere a built-in does: ``--opt greedy:complement_edges``,
``OptimizerSpec(objective="complement_edges")``, and the cache keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List

from ..arch import Architecture
from ..mig.graph import Mig
from ..mig.rewrite import rm3_cost_table, rm3_edge_classes


@dataclass(frozen=True)
class Objective:
    """A named cost function strategies minimise (lower is better).

    ``fn`` maps ``(mig, arch)`` to an integer score; architecture-
    oblivious objectives simply ignore the second argument.
    ``arch_sensitive`` tells the cache layer whether rewriting results
    under this objective must be keyed by the target machine.
    """

    name: str
    fn: Callable[[Mig, Architecture], int] = field(repr=False)
    description: str = ""
    arch_sensitive: bool = False

    def score(self, mig: Mig, arch: Architecture) -> int:
        """``fn(mig, arch)``, memoized in the graph's derived state.

        Search strategies score every candidate result, and a pass that
        changes nothing returns the very graph they scored last round;
        any mutation of *mig* clears the memo.
        """
        key = ("score", self, arch.key() if self.arch_sensitive else None)
        derived = mig._derived
        cached = derived.get(key)
        if cached is None:
            cached = derived[key] = self.fn(mig, arch)
        return cached


def estimated_write_cost(mig: Mig, arch: Architecture) -> int:
    """Estimated RM3 instructions (~device writes) to realise *mig* on
    *arch* — the static replay of the compiler's violation pricing.

    Per-gate pricing lives in :func:`repro.mig.rewrite.rm3_gate_cost`
    (one implementation, shared with the polarity pass), tabulated once
    per cost model by :func:`repro.mig.rewrite.rm3_cost_table`: this
    objective classifies each live gate's fanins and adds one table
    entry per gate.  The table is priced with the target machine's
    repair bills, so a different cost table re-prices the same graph.
    Constant fanins follow the machine semantics: either polarity of a
    constant edge is violation-free, a constant serves as the free
    ``Q``, and a constant destination is a *z_const* rather than a
    *z_copy*.
    """
    cost = arch.cost
    table = rm3_cost_table(
        cost.q_invert_instructions,
        cost.p_invert_instructions,
        cost.z_copy_instructions,
        cost.z_const_instructions,
    )
    classes = rm3_edge_classes(mig)
    fanins = mig._fanins
    total = 0
    for node in mig._live_gates():
        a, b, c = fanins[node]
        total += table[classes[a] << 4 | classes[b] << 2 | classes[c]]
    return total


#: Registered objectives, registration order.
_REGISTRY: Dict[str, Objective] = {}


def register_objective(
    objective: Objective, *, overwrite: bool = False
) -> Objective:
    """Add *objective* to the registry under ``objective.name``."""
    if not overwrite and objective.name in _REGISTRY:
        raise ValueError(
            f"objective {objective.name!r} is already registered; "
            "pass overwrite=True to replace it"
        )
    _REGISTRY[objective.name] = objective
    return objective


def get_objective(name: str) -> Objective:
    """Look an objective up by registry name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown objective {name!r}; expected one of "
            f"{available_objectives()}"
        ) from None


def available_objectives() -> List[str]:
    """Registered objective names, registration order."""
    return list(_REGISTRY)


#: Default objective of the cost-guided strategies.
DEFAULT_OBJECTIVE = "write_cost"


register_objective(
    Objective(
        name="node_count",
        fn=lambda mig, arch: mig.num_live_gates(),
        description="live majority gates (classic size objective)",
    )
)
register_objective(
    Objective(
        name="depth",
        fn=lambda mig, arch: mig.depth(),
        description="longest PI-to-PO path (classic delay objective)",
    )
)
register_objective(
    Objective(
        name="write_cost",
        fn=estimated_write_cost,
        description=(
            "estimated RM3 instructions / device writes, priced through "
            "the target architecture's cost model (default)"
        ),
        arch_sensitive=True,
    )
)
