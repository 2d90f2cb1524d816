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

A strategy states its key once per graph, as data:
:meth:`SelectionStrategy.ranks` returns a per-node *rank* vector and a
*releasing weight* ``w``.  The compiler selects the computable node
``v`` of smallest

    ``rank[v] - w * releasing(v)``, ties broken by the smaller node id,

where ``releasing(v)`` counts the children whose last pending use ``v``
is (the devices computing ``v`` frees).  Each fanin releases at most one
device, so ``releasing`` lies in ``[0, 3]``, and the fanout level index
in ``[0, depth + 1]``; scaling one component past the other's range
turns the two-component orders of the paper into one number:

* ``dac16``: ``rank = level index``, ``w = depth + 2`` — releasing first;
* ``endurance``: ``rank = 4 * level index``, ``w = 1`` — level first;
* ``releasing-only``: ``rank = 0``, ``w = 1``;
* ``level-only``: ``rank = level index``, ``w = 0``;
* ``topo``: no rank — plain topological (creation) order.

A key with ``w != 0`` is *dynamic*: releasing counts change while a node
waits among the candidates, so the compiler revalidates it lazily on
pop.  Keys read only the graph's fanout view, never the device
allocator, so the compiler memoizes each graph's order per strategy
object (:func:`repro.plim.compiler.schedule`).  :func:`make_selection`
returns one shared instance per registry name, so every configuration
naming a strategy shares its orders.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

#: A strategy's key terms over one graph: ``(rank vector, releasing
#: weight)``; no rank vector means topological order.
KeyTerms = Tuple[Optional[Sequence[int]], int]


class SelectionStrategy:
    """Base class: topological order.

    Registry instances are shared (see :func:`make_selection`), so a
    strategy holds no per-compile state; a parameterised strategy is a
    separate instance per parameter set.
    """

    name = "topo"

    def ranks(self, view) -> KeyTerms:
        """The key terms over a :class:`~repro.mig.views.FanoutView`.

        The rank vector is indexed by node id and read-only; smaller
        keys are selected first.
        """
        return None, 0


class TopoSelection(SelectionStrategy):
    """Compute nodes in topological creation order (naive baseline)."""


class Dac16Selection(SelectionStrategy):
    """Selection of the PLiM compiler [Soeken et al., DAC'16].

    Primary: maximum number of releasing RRAMs (frees devices for reuse,
    minimising ``#R``).  Tie-break: smaller fanout level index (the value
    is consumed sooner, so its device is blocked for less time).
    """

    name = "dac16"

    def ranks(self, view) -> KeyTerms:
        return view.fanout_level_index, view.depth + 2


class EnduranceAwareSelection(SelectionStrategy):
    """Algorithm 3: endurance-aware node selection.

    Primary: smallest fanout level index — candidates whose values are
    consumed soonest are computed first, so no device is produced long
    before its last consumer ("blocked RRAM" mitigation).  Tie-break:
    maximum number of releasing RRAMs.
    """

    name = "endurance"

    def ranks(self, view) -> KeyTerms:
        return [4 * index for index in view.fanout_level_index], 1


class ReleasingOnlySelection(SelectionStrategy):
    """Ablation: releasing-count key alone (no level tie-break)."""

    name = "releasing-only"

    def ranks(self, view) -> KeyTerms:
        return [0] * len(view.levels), 1


class LevelOnlySelection(SelectionStrategy):
    """Ablation: fanout-level key alone (no releasing tie-break)."""

    name = "level-only"

    def ranks(self, view) -> KeyTerms:
        return view.fanout_level_index, 0


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
