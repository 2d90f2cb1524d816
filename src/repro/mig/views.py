"""Derived views over a MIG: fanouts, levels, storage-duration metrics.

The PLiM compiler's node-selection heuristics (both the area/latency-driven
selection of [Soeken et al., DAC'16] and the endurance-aware selection of
Algorithm 3 in the reproduced paper) rank candidate nodes by

* the number of RRAM devices *released* by computing the node (children
  whose last pending use this is), and
* the *fanout level index*: how long the node's own value must stay resident
  before its last consumer is computed, i.e. the level of that consumer
  (the storage-duration reading; the DAC'16 compiler breaks ties with the
  same key).

This module computes the static parts of those metrics once per graph.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .graph import Mig
from .signal import node_of


class FanoutView:
    """Fanout lists and storage-duration metrics for the live part of a MIG.

    One instance may be shared by many consumers (it is memoized on the
    graph via :meth:`repro.mig.graph.Mig.fanout_view`), so ``fanouts``
    and ``ref_counts`` are immutable tuples; copy before mutating, like
    the compiler does with its working reference counts.
    """

    def __init__(self, mig: Mig) -> None:
        # No reference to the graph: the view is memoized on the graph,
        # and a back-reference would make every graph a cycle.
        self.levels = mig.levels()
        n = mig.num_nodes
        fanouts: List[List[int]] = [[] for _ in range(n)]
        ref_counts: List[int] = [0] * n
        for node, na, _, nb, _, nc, _ in mig.flat_gates():
            fanouts[na].append(node)
            ref_counts[na] += 1
            fanouts[nb].append(node)
            ref_counts[nb] += 1
            fanouts[nc].append(node)
            ref_counts[nc] += 1
        self.po_refs: List[int] = [0] * n
        for s in mig.pos():
            self.po_refs[node_of(s)] += 1
            ref_counts[node_of(s)] += 1
        self.fanouts: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(f) for f in fanouts
        )
        self.ref_counts: Tuple[int, ...] = tuple(ref_counts)
        self.depth = max(
            (self.levels[node_of(s)] for s in mig.pos()), default=0
        )
        self._level_indices: Optional[List[int]] = None
        #: Compiler gate orders, memoized by
        #: :func:`repro.plim.compiler.schedule` per selection strategy.
        self.schedules: Dict[object, Tuple[int, ...]] = {}
        #: Compiled programs, memoized by
        #: :meth:`repro.plim.compiler.PlimCompiler.compile` per (selection
        #: strategy, allocation strategy, input protection, architecture,
        #: write cap).
        self.programs: Dict[Tuple, object] = {}

    def fanout_level_index(self, node: int) -> int:
        """Level of the consumer that finally releases *node*'s device.

        The storage-duration reading of the endurance-aware selection:
        the device stays blocked until the highest-level fanout is
        computed.  Nodes that drive a primary output are pinned until the
        end of the program and get ``depth + 1``.
        """
        if self.po_refs[node]:
            return self.depth + 1
        return max((self.levels[f] for f in self.fanouts[node]), default=0)

    def fanout_level_indices(self) -> List[int]:
        """Vector of :meth:`fanout_level_index` per node (memoized)."""
        cached = self._level_indices
        if cached is None:
            level = self.levels.__getitem__
            cached = [
                max(map(level, fanout)) if fanout else 0
                for fanout in self.fanouts
            ]
            pinned = self.depth + 1
            for node, po_refs in enumerate(self.po_refs):
                if po_refs:
                    cached[node] = pinned
            self._level_indices = cached
        return list(cached)

