"""Derived views over a MIG: fanouts, levels, storage-duration metrics.

The PLiM compiler's node-selection heuristics (both the area/latency-driven
selection of [Soeken et al., DAC'16] and the endurance-aware selection of
Algorithm 3 in the reproduced paper) rank candidate nodes by

* the number of RRAM devices *released* by computing the node (children
  whose last pending use this is), and
* the *fanout level index*: how long the node's own value must stay resident
  before its last consumer is computed.

This module computes the static parts of those metrics once per graph.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

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
        # The node count, not the graph: the view is memoized on the
        # graph, and a back-reference would make every graph a cycle.
        self.num_nodes = mig.num_nodes
        self.live = mig.live_mask()
        self.levels = mig.levels()
        n = self.num_nodes
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
        self._level_indices: Dict[str, List[int]] = {}
        #: Compiler gate orders, memoized by
        #: :func:`repro.plim.compiler.schedule` per (selection strategy,
        #: fanout aggregate).
        self.schedules: Dict[Tuple[object, str], Tuple[int, ...]] = {}
        #: Compiled programs, memoized by
        #: :meth:`repro.plim.compiler.PlimCompiler.compile` per (selection
        #: strategy, fanout aggregate, allocation strategy, input
        #: protection, architecture, write cap).
        self.programs: Dict[Tuple, object] = {}

    def fanout_level_index(self, node: int, aggregate: str = "max") -> int:
        """Level of the consumer that finally releases *node*'s device.

        ``max`` (default) is the storage-duration reading used by the
        endurance-aware selection: the device stays blocked until the
        highest-level fanout is computed.  ``min`` gives the first-use
        level, exposed for the ablation benchmarks.  Nodes that drive a
        primary output are pinned until the end of the program and get
        ``depth + 1``.
        """
        if self.po_refs[node]:
            return self.depth + 1
        levels = [self.levels[f] for f in self.fanouts[node]]
        if not levels:
            return 0
        if aggregate == "max":
            return max(levels)
        if aggregate == "min":
            return min(levels)
        raise ValueError(f"unknown aggregate {aggregate!r}")

    def fanout_level_indices(self, aggregate: str = "max") -> List[int]:
        """Vector of :meth:`fanout_level_index` per node (memoized)."""
        cached = self._level_indices.get(aggregate)
        if cached is None:
            if aggregate not in ("max", "min"):
                raise ValueError(f"unknown aggregate {aggregate!r}")
            reduce = max if aggregate == "max" else min
            level = self.levels.__getitem__
            cached = [
                reduce(map(level, fanout)) if fanout else 0
                for fanout in self.fanouts
            ]
            pinned = self.depth + 1
            for node, po_refs in enumerate(self.po_refs):
                if po_refs:
                    cached[node] = pinned
            self._level_indices[aggregate] = cached
        return list(cached)

    def single_fanout_nodes(self) -> List[int]:
        """Live nodes with exactly one use (ideal RM3 destinations)."""
        return [
            node
            for node in range(1, self.num_nodes)
            if self.live[node] and self.ref_counts[node] == 1
        ]

    def level_spread(self) -> Dict[int, int]:
        """Histogram of ``fanout_level_index - own_level`` over live gates.

        Large spreads are the "blocked RRAM" pathology of Fig. 2 in the
        paper: values produced early but consumed late pin their devices.
        """
        spread: Dict[int, int] = {}
        for node in range(1, self.num_nodes):
            if not self.live[node] or not self.fanouts[node]:
                continue
            d = self.fanout_level_index(node) - self.levels[node]
            spread[d] = spread.get(d, 0) + 1
        return spread
