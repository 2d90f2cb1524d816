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

from typing import Dict, List, Tuple

from .graph import Mig


class FanoutView:
    """Fanout lists and storage-duration metrics for the live part of a MIG.

    Built by one sweep over the live gates.  One instance may be shared
    by many consumers (it is memoized on the graph via
    :meth:`repro.mig.graph.Mig.fanout_view`), so every list is read-only
    by contract; copy before mutating, like the compiler does with its
    working reference counts.

    * ``fanouts[v]`` — the live gates reading *v*, once per reference,
      in topological order;
    * ``ref_counts[v]`` — references to *v* from live gates and outputs;
    * ``fanout_level_index[v]`` — the level of the consumer that finally
      releases *v*'s device (the storage-duration reading of the
      endurance-aware selection: the device stays blocked until the
      highest-level fanout is computed); output drivers are pinned until
      the end of the program at ``depth + 1``, and nodes without
      consumers get 0;
    * ``levels`` — the graph's own per-node levels.
    """

    def __init__(self, mig: Mig) -> None:
        # No reference to the graph: the view is memoized on the graph,
        # and a back-reference would make every graph a cycle.
        self.levels = levels = mig._levels()
        fanins = mig._fanins
        n = len(fanins)
        fanouts: List[List[int]] = [[] for _ in range(n)]
        last = [0] * n
        for node in mig._live_gates():
            a, b, c = fanins[node]
            level = levels[node]
            a >>= 1
            b >>= 1
            c >>= 1
            fanouts[a].append(node)
            fanouts[b].append(node)
            fanouts[c].append(node)
            if last[a] < level:
                last[a] = level
            if last[b] < level:
                last[b] = level
            if last[c] < level:
                last[c] = level
        ref_counts = list(map(len, fanouts))
        pos = [s >> 1 for s in mig._pos]
        self.depth = pinned = max(map(levels.__getitem__, pos), default=0)
        pinned += 1
        for node in pos:
            ref_counts[node] += 1
            last[node] = pinned
        self.fanouts = fanouts
        self.ref_counts = ref_counts
        self.fanout_level_index = last
        #: Compiler gate orders, memoized by
        #: :func:`repro.plim.compiler.schedule` per selection strategy.
        self.schedules: Dict[object, Tuple[int, ...]] = {}
        #: Compiled programs, memoized by
        #: :meth:`repro.plim.compiler.PlimCompiler.compile` per (selection
        #: strategy, allocation strategy, input protection, architecture,
        #: write cap).
        self.programs: Dict[Tuple, object] = {}
