"""Node-selection strategies for the PLiM compiler.

The compiler repeatedly picks the next *computable* MIG node (all children
already computed) from a candidate set.  The order decides how long values
sit in RRAM devices and therefore how writes distribute:

* :class:`TopoSelection` — plain topological (creation) order; the "naive"
  baseline of the paper;
* :class:`Dac16Selection` — the area/latency-driven order of
  [Soeken et al., DAC'16]: maximise the number of devices *released* by
  the pick, break ties by the smaller fanout level index;
* :class:`EnduranceAwareSelection` — **Algorithm 3** of the reproduced
  paper: reverse the priorities — pick the candidate with the *smallest
  fanout level index* first (shortest storage duration, avoiding "blocked
  RRAMs" as in the paper's Fig. 2), break ties by most released devices.

A strategy computes an orderable key per candidate.  Keys that depend on
the live reference counts (the "releasing" component) are *dynamic*: they
can change while a node waits in the candidate set, so the compiler
revalidates them lazily on pop.

Keys read only the :class:`CompilerStateView` slice, never the device
allocator, so the compiler memoizes each graph's order per strategy
object (:func:`repro.plim.compiler.schedule`).  :func:`make_selection`
returns one shared instance per registry name, so every configuration
naming a strategy shares its orders.
"""

from __future__ import annotations

from typing import List, Protocol, Tuple


class CompilerStateView(Protocol):
    """The slice of compiler state a selection strategy may inspect."""

    refs: List[int]
    fanout_level_index: List[int]

    def releasing_count(self, node: int) -> int:
        """Devices that would be freed by computing *node* now."""
        ...


class SelectionStrategy:
    """Base class: topological order, static keys.

    ``key`` may read only the :class:`CompilerStateView` it is given:
    the compiler schedules a graph once per strategy object and reuses
    that order for every allocation policy and machine.  Registry
    instances are shared (see :func:`make_selection`), so a strategy
    holds no per-compile state; a parameterised strategy is a separate
    instance per parameter set.
    """

    #: Whether keys depend on mutable compiler state (lazy revalidation).
    dynamic = False
    name = "topo"

    def key(self, state: CompilerStateView, node: int) -> Tuple[int, ...]:
        """Orderable priority key; *smaller* keys are selected first."""
        return (node,)


class TopoSelection(SelectionStrategy):
    """Compute nodes in topological creation order (naive baseline)."""


class Dac16Selection(SelectionStrategy):
    """Selection of the PLiM compiler [Soeken et al., DAC'16].

    Primary: maximum number of releasing RRAMs (frees devices for reuse,
    minimising ``#R``).  Tie-break: smaller fanout level index (the value
    is consumed sooner, so its device is blocked for less time).
    """

    dynamic = True
    name = "dac16"

    def key(self, state: CompilerStateView, node: int) -> Tuple[int, ...]:
        return (
            -state.releasing_count(node),
            state.fanout_level_index[node],
            node,
        )


class EnduranceAwareSelection(SelectionStrategy):
    """Algorithm 3: endurance-aware node selection.

    Primary: smallest fanout level index — candidates whose values are
    consumed soonest are computed first, so no device is produced long
    before its last consumer ("blocked RRAM" mitigation).  Tie-break:
    maximum number of releasing RRAMs.
    """

    dynamic = True
    name = "endurance"

    def key(self, state: CompilerStateView, node: int) -> Tuple[int, ...]:
        return (
            state.fanout_level_index[node],
            -state.releasing_count(node),
            node,
        )


class ReleasingOnlySelection(SelectionStrategy):
    """Ablation: releasing-count key alone (no level tie-break)."""

    dynamic = True
    name = "releasing-only"

    def key(self, state: CompilerStateView, node: int) -> Tuple[int, ...]:
        return (-state.releasing_count(node), node)


class LevelOnlySelection(SelectionStrategy):
    """Ablation: fanout-level key alone (no releasing tie-break)."""

    name = "level-only"

    def key(self, state: CompilerStateView, node: int) -> Tuple[int, ...]:
        return (state.fanout_level_index[node], node)


#: Strategy registry used by configuration presets and the CLI.
SELECTIONS = {
    cls.name: cls
    for cls in (
        TopoSelection,
        Dac16Selection,
        EnduranceAwareSelection,
        ReleasingOnlySelection,
        LevelOnlySelection,
    )
}


_SHARED = {name: cls() for name, cls in SELECTIONS.items()}


def make_selection(name: str) -> SelectionStrategy:
    """The shared selection strategy instance of a registry name."""
    try:
        return _SHARED[name]
    except KeyError:
        raise ValueError(
            f"unknown selection strategy {name!r}; expected one of "
            f"{sorted(SELECTIONS)}"
        ) from None
