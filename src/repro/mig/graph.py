"""Majority-Inverter Graph (MIG) data structure.

A MIG is a directed acyclic graph whose internal nodes are 3-input majority
gates and whose edges may carry complement (inversion) attributes
[Amaru et al., DAC'14].  MIGs are the input language of the PLiM compiler:
each majority node maps onto the native ``RM3`` instruction of the PLiM
computer [Gaillardon et al., DATE'16].

Design notes
------------
* Nodes are stored in flat parallel lists indexed by node id; node ``0`` is
  the constant-false node and primary inputs are fanin-less nodes.  Children
  always have smaller ids than their parents, so ``range(n_nodes)`` is a
  topological order by construction.
* Node creation applies the trivial majority identities (axiom ``Omega.M``:
  two equal operands decide, two complementary operands forward the third)
  and structurally hashes the sorted fanin triple (axiom ``Omega.C``).
* Complement patterns are **not** canonicalised at creation beyond sorting:
  inverter propagation (``Omega.I``) is an explicit, cost-driven rewriting
  step in the endurance-management flow, so ``<x y z>`` and ``<~x ~y ~z>``
  may coexist as distinct nodes.
* The structure is append-only; rewriting never edits a graph in place
  (see :mod:`repro.mig.rewrite`), which keeps invariants trivial and
  avoids dangling-pointer style bugs.  A pass that changes something
  builds a new graph, reusing the unchanged prefix; a pass that changes
  nothing returns its input, so a graph may be shared between pass
  results and must not be mutated once rewriting has seen it.
* Derived traversal state (liveness, fanout counts, levels, the flat
  ``(node, fanin, fanin, fanin)`` gate list used by simulation and
  compilation) is memoized per graph and invalidated on any mutation, so
  the many passes that query the same finished graph pay for each
  traversal exactly once.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .signal import (
    CONST0,
    CONST1,
    complement,
    format_signal,
    is_complemented,
    is_constant,
    make_signal,
    node_of,
)


class Mig:
    """A majority-inverter graph with structural hashing.

    >>> mig = Mig()
    >>> a, b, c = mig.add_pi("a"), mig.add_pi("b"), mig.add_pi("c")
    >>> f = mig.add_maj(a, b, c)
    >>> mig.add_po(f, "f")
    0
    >>> mig.num_gates
    1
    """

    def __init__(self, name: str = "", use_strash: bool = True) -> None:
        self.name = name
        #: Structural hashing on node creation.  Disabled by the
        #: "elaborated" construction mode of :mod:`repro.synth.elaborate`,
        #: which models naive netlist translation (no sharing recovery);
        #: rewriting passes always rebuild with hashing enabled.
        self.use_strash = use_strash
        # Node 0 is the constant-false node (no fanins, not a PI).
        self._fanins: List[Optional[Tuple[int, int, int]]] = [None]
        self._pi_index: List[int] = [-1]  # -1 for non-PI nodes
        self._pis: List[int] = []  # node ids of primary inputs, in order
        self._pi_names: List[str] = []
        self._pos: List[int] = []  # output signals, in order
        self._po_names: List[str] = []
        self._strash: Dict[Tuple[int, int, int], int] = {}
        # Memoized derived state; cleared by any structural mutation.
        self._derived: Dict[object, object] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_pi(self, name: Optional[str] = None) -> int:
        """Create a primary input and return its (non-complemented) signal."""
        node = len(self._fanins)
        self._fanins.append(None)
        self._pi_index.append(len(self._pis))
        self._pis.append(node)
        self._pi_names.append(name if name is not None else f"pi{len(self._pis) - 1}")
        if self._derived:
            self._derived.clear()
        return make_signal(node)

    def add_po(self, signal: int, name: Optional[str] = None) -> int:
        """Register *signal* as a primary output; returns the output index."""
        self._check_signal(signal)
        self._pos.append(signal)
        self._po_names.append(name if name is not None else f"po{len(self._pos) - 1}")
        if self._derived:
            self._derived.clear()
        return len(self._pos) - 1

    def add_maj(self, a: int, b: int, c: int) -> int:
        """Create (or reuse) a majority node ``<a b c>``.

        Applies the trivial ``Omega.M`` identities before allocating:

        * ``<x x z> = x`` (two equal operands decide),
        * ``<x ~x z> = z`` (two complementary operands forward the third).

        Constant operands need no special casing: ``CONST1`` is the
        complement of ``CONST0``, so e.g. ``<0 1 z> = z`` follows from the
        second identity.
        """
        fanins = self._fanins
        limit = len(fanins) << 1
        if a < 0 or a >= limit or b < 0 or b >= limit or c < 0 or c >= limit:
            self._check_signal(a)
            self._check_signal(b)
            self._check_signal(c)

        # Omega.M: duplicate operand decides.
        if a == b or a == c:
            return a
        if b == c:
            return b
        # Omega.M: complementary pair forwards the remaining operand.
        if a ^ b == 1:
            return c
        if a ^ c == 1:
            return b
        if b ^ c == 1:
            return a

        # Inline sorted_fanins: must produce the same canonical key as
        # maj_would_allocate's probe (and rebuild's copy loop) or strash
        # drifts.
        if a > b:
            a, b = b, a
        if b > c:
            b, c = c, b
        if a > b:
            a, b = b, a
        key = (a, b, c)
        if self.use_strash:
            existing = self._strash.get(key)
            if existing is not None:
                return existing << 1

        node = len(fanins)
        fanins.append(key)
        self._pi_index.append(-1)
        if self.use_strash:
            self._strash[key] = node
        if self._derived:
            self._derived.clear()
        return node << 1

    def maj_would_allocate(self, a: int, b: int, c: int) -> bool:
        """Would ``add_maj(a, b, c)`` create a new node?

        ``False`` when a creation identity (``Omega.M``) simplifies the
        call or when the structural hash already holds the node.  Rewriting
        passes use this probe to accept only size-non-increasing variants.
        """
        if a == b or a == c or b == c or a ^ b == 1 or a ^ c == 1 or b ^ c == 1:
            return False
        # add_maj's sort, in lockstep: both key the same strash table.
        if a > b:
            a, b = b, a
        if b > c:
            b, c = c, b
        if a > b:
            a, b = b, a
        return (a, b, c) not in self._strash

    # Convenience gate constructors -------------------------------------

    def add_and(self, a: int, b: int) -> int:
        """``a AND b`` as ``<a b 0>``."""
        return self.add_maj(a, b, CONST0)

    def add_or(self, a: int, b: int) -> int:
        """``a OR b`` as ``<a b 1>``."""
        return self.add_maj(a, b, CONST1)

    def add_nand(self, a: int, b: int) -> int:
        """``NOT (a AND b)``."""
        return complement(self.add_and(a, b))

    def add_xor(self, a: int, b: int) -> int:
        """``a XOR b`` as ``(a OR b) AND (NOT a OR NOT b)``."""
        upper = self.add_or(a, b)
        lower = self.add_or(complement(a), complement(b))
        return self.add_and(upper, lower)

    def add_xnor(self, a: int, b: int) -> int:
        """``NOT (a XOR b)``."""
        return complement(self.add_xor(a, b))

    def add_mux(self, sel: int, t: int, e: int) -> int:
        """``sel ? t : e`` as ``(sel AND t) OR (NOT sel AND e)``."""
        then_part = self.add_and(sel, t)
        else_part = self.add_and(complement(sel), e)
        return self.add_or(then_part, else_part)

    def add_maj_n(self, signals: Sequence[int]) -> int:
        """Majority of an odd number of signals, built as a popcount compare.

        Used by the ``voter`` benchmark generator; for three signals this is
        a plain majority node.
        """
        if len(signals) % 2 == 0:
            raise ValueError("majority of an even number of inputs is ambiguous")
        if len(signals) == 1:
            return signals[0]
        if len(signals) == 3:
            return self.add_maj(*signals)
        # Reduce via sorting-network-free popcount: sum the bits with
        # full adders, then compare against half the count.
        from .bitvec import popcount_threshold  # local import to avoid cycle

        return popcount_threshold(self, list(signals), (len(signals) // 2) + 1)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_pis(self) -> int:
        """Number of primary inputs."""
        return len(self._pis)

    @property
    def num_pos(self) -> int:
        """Number of primary outputs."""
        return len(self._pos)

    @property
    def num_nodes(self) -> int:
        """Total number of nodes including the constant and PIs."""
        return len(self._fanins)

    @property
    def num_gates(self) -> int:
        """Number of majority gates (excludes constant and PIs)."""
        return len(self._fanins) - 1 - len(self._pis)

    def is_constant(self, node: int) -> bool:
        """Return ``True`` if *node* is the constant-false node."""
        return node == 0

    def is_gate(self, node: int) -> bool:
        """Return ``True`` if *node* is a majority gate."""
        return self._fanins[node] is not None

    def fanins(self, node: int) -> Tuple[int, int, int]:
        """The three fanin signals of a gate node."""
        fi = self._fanins[node]
        if fi is None:
            raise ValueError(f"node {node} is not a majority gate")
        return fi

    def pis(self) -> List[int]:
        """Node ids of the primary inputs, in declaration order."""
        return list(self._pis)

    def pos(self) -> List[int]:
        """Output signals, in declaration order."""
        return list(self._pos)

    def pi_name(self, index: int) -> str:
        """Name of the *index*-th primary input."""
        return self._pi_names[index]

    def po_name(self, index: int) -> str:
        """Name of the *index*-th primary output."""
        return self._po_names[index]

    def gates(self) -> Iterator[int]:
        """Iterate over gate node ids in topological order."""
        for node in range(1, len(self._fanins)):
            if self._fanins[node] is not None:
                yield node

    def nodes(self) -> Iterator[int]:
        """Iterate over all node ids (constant, PIs, gates) topologically."""
        return iter(range(len(self._fanins)))

    # ------------------------------------------------------------------
    # Liveness / traversal
    # ------------------------------------------------------------------

    def _live_mask(self) -> List[bool]:
        """Memoized liveness mask (the shared list — do not mutate)."""
        cached = self._derived.get("live_mask")
        if cached is not None:
            return cached
        fanins = self._fanins
        live = [False] * len(fanins)
        live[0] = True
        for node in self._pis:
            live[node] = True
        for s in self._pos:
            live[s >> 1] = True
        # Children always have smaller ids than their parents, so one
        # descending sweep propagates liveness without a worklist (the
        # rewriting engine computes this mask for every pass input, so
        # it is one of the hottest traversals in the harness).
        for node in range(len(fanins) - 1, 0, -1):
            if live[node]:
                fi = fanins[node]
                if fi is not None:
                    live[fi[0] >> 1] = True
                    live[fi[1] >> 1] = True
                    live[fi[2] >> 1] = True
        self._derived["live_mask"] = live
        return live

    def live_mask(self) -> List[bool]:
        """Boolean mask of nodes reachable from the outputs.

        The constant node and primary inputs are always considered live
        (PIs occupy RRAM devices regardless of use).
        """
        return list(self._live_mask())

    def _live_gates(self) -> List[int]:
        """Memoized live-gate list (the shared list — do not mutate)."""
        cached = self._derived.get("live_gates")
        if cached is None:
            live = self._live_mask()
            fanins = self._fanins
            cached = [
                node
                for node in range(1, len(fanins))
                if fanins[node] is not None and live[node]
            ]
            self._derived["live_gates"] = cached
        return cached

    def live_gates(self) -> List[int]:
        """Gate node ids reachable from the outputs, topological order."""
        return list(self._live_gates())

    def num_live_gates(self) -> int:
        """Number of gates reachable from the outputs."""
        return len(self._live_gates())

    def flat_gates(self) -> Tuple[Tuple[int, int, int, int, int, int, int], ...]:
        """Flat live-gate records for traversal-heavy inner loops.

        One memoized tuple ``(node, fa_node, fa_xor, fb_node, fb_xor,
        fc_node, fc_xor)`` per live gate, in topological order.  Fanin
        node ids and complement attributes are pre-split so simulation
        and compilation avoid per-visit signal decoding, and each
        complement attribute is folded into an XOR mask (``0`` for a
        plain edge, ``-1`` — all ones in two's complement — for a
        complemented one): simulation backends apply the complement
        branch-free as ``value ^ (xor & width_mask)`` at any word width,
        and the complement *bit* is recovered as ``xor & 1``.
        """
        cached = self._derived.get("flat_gates")
        if cached is None:
            fanins = self._fanins
            cached = tuple(
                (
                    node,
                    fa >> 1,
                    -(fa & 1),
                    fb >> 1,
                    -(fb & 1),
                    fc >> 1,
                    -(fc & 1),
                )
                for node in self._live_gates()
                for fa, fb, fc in (fanins[node],)
            )
            self._derived["flat_gates"] = cached
        return cached

    def _fanout_counts(self, include_pos: bool = True) -> List[int]:
        """Memoized fanout counts (the shared list — do not mutate)."""
        key = ("fanout_counts", include_pos)
        cached = self._derived.get(key)
        if cached is not None:
            return cached
        fanins = self._fanins
        counts = [0] * len(fanins)
        flat = self._derived.get("flat_gates")
        if flat is not None:
            # Pre-split records count fastest, but building them only to
            # count (a rewrite pass's input) costs more than the fanins.
            for _, na, _, nb, _, nc, _ in flat:
                counts[na] += 1
                counts[nb] += 1
                counts[nc] += 1
        else:
            for node in self._live_gates():
                a, b, c = fanins[node]
                counts[a >> 1] += 1
                counts[b >> 1] += 1
                counts[c >> 1] += 1
        if include_pos:
            for s in self._pos:
                counts[s >> 1] += 1
        self._derived[key] = counts
        return counts

    def fanout_counts(self, include_pos: bool = True) -> List[int]:
        """Number of references to each node from live gates (and POs).

        A node referenced twice by the same parent counts twice; this is the
        *use count* the PLiM compiler tracks to know when an RRAM device can
        be released.
        """
        return list(self._fanout_counts(include_pos))

    def flat_gate_levels(self) -> Tuple[int, ...]:
        """Memoized level per flat gate record, aligned with :meth:`flat_gates`.

        ``flat_gate_levels()[i]`` is the level of ``flat_gates()[i]``.
        Gates sharing a level have no data dependencies between them (a
        fanin's level is strictly lower), which is what lets level-batched
        simulation kernels evaluate a whole level as a handful of large
        array operations; cached in ``_derived`` so it is invalidated by
        any mutation alongside the flat records themselves.
        """
        cached = self._derived.get("flat_gate_levels")
        if cached is None:
            level = self._levels()
            cached = tuple(level[rec[0]] for rec in self.flat_gates())
            self._derived["flat_gate_levels"] = cached
        return cached

    def _levels(self) -> List[int]:
        """Memoized per-node levels (the shared list — do not mutate)."""
        cached = self._derived.get("levels")
        if cached is not None:
            return cached
        fanins = self._fanins
        level = [0] * len(fanins)
        for node in range(1, len(fanins)):
            fi = fanins[node]
            if fi is None:
                continue
            la = level[fi[0] >> 1]
            lb = level[fi[1] >> 1]
            lc = level[fi[2] >> 1]
            if lb > la:
                la = lb
            if lc > la:
                la = lc
            level[node] = la + 1
        self._derived["levels"] = level
        return level

    def levels(self) -> List[int]:
        """Level (depth from inputs) per node; constants and PIs are 0."""
        return list(self._levels())

    def depth(self) -> int:
        """Depth of the graph: maximum output level."""
        if not self._pos:
            return 0
        level = self._levels()
        return max(level[s >> 1] for s in self._pos)

    def structural_digest(self) -> int:
        """Process-local hash of the full structure (fanins, PIs, POs).

        Memoized like the other derived state; used by the experiment
        cache to tell apart graphs whose names and sizes coincide.  Not
        stable across processes (plain ``hash``) — never persist it.
        """
        cached = self._derived.get("digest")
        if cached is None:
            cached = hash(
                (tuple(self._pis), tuple(self._pos), tuple(self._fanins))
            )
            self._derived["digest"] = cached
        return cached

    def content_fingerprint(self) -> str:
        """Stable content-addressed identity of this graph (SHA-256 hex).

        Unlike :meth:`structural_digest` this digest is identical across
        processes and interpreter runs, so it can key persistent caches:
        two structurally equal graphs (same PIs/POs with names, same
        fanin lists, same hashing mode) share a fingerprint wherever they
        were built.  This is how user-supplied MIGs — file imports,
        frontend-compiled functions, hand-built graphs — gain the stable
        cross-process identity registry benchmarks get from their
        ``(name, preset)`` pair.
        """
        import hashlib  # deferred: graph stays dependency-light

        cached = self._derived.get("content_fingerprint")
        if cached is None:
            digest = hashlib.sha256()
            digest.update(self.name.encode())
            digest.update(b"\0strash%d" % int(self.use_strash))
            for name in self._pi_names:
                digest.update(b"\0i" + name.encode())
            for node, fi in enumerate(self._fanins):
                if fi is not None:
                    digest.update(b"\0n%d=%d,%d,%d" % (node, *fi))
            for idx, s in enumerate(self._pos):
                digest.update(
                    b"\0o%d=" % s + self._po_names[idx].encode()
                )
            cached = digest.hexdigest()
            self._derived["content_fingerprint"] = cached
        return cached

    def fanout_view(self):
        """Memoized :class:`repro.mig.views.FanoutView` of this graph.

        The view is rebuilt lazily after any mutation; sharing it lets
        every compiler configuration run on the same derived fanout and
        storage-duration state.
        """
        view = self._derived.get("fanout_view")
        if view is None:
            from .views import FanoutView  # local import to avoid cycle

            view = FanoutView(self)
            self._derived["fanout_view"] = view
        return view

    def complement_histogram(self) -> List[int]:
        """Histogram ``h[k]`` of live gates with ``k`` complemented fanins.

        The RM3 cost model makes ``h[1]`` the "ideal" bucket; rewriting
        scripts try to move mass into it.
        """
        hist = [0, 0, 0, 0]
        for _, _, xa, _, xb, _, xc in self.flat_gates():
            hist[-(xa + xb + xc)] += 1
        return hist

    def num_complemented_edges(self) -> int:
        """Total complemented fanin edges over live gates (plus POs)."""
        total = -sum(
            xa + xb + xc for _, _, xa, _, xb, _, xc in self.flat_gates()
        )
        total += sum(1 for s in self._pos if is_complemented(s))
        return total

    # ------------------------------------------------------------------
    # Copying
    # ------------------------------------------------------------------

    def __getstate__(self):
        """Pickle without the memoized derived state.

        The memo can be several times the size of the bare graph (flat
        gate tuples, fanout lists, a whole :class:`FanoutView`) and its
        ``structural_digest`` entry is process-local — receivers must
        rebuild, not inherit, derived state.
        """
        state = self.__dict__.copy()
        state["_derived"] = {}
        return state

    def clone(self) -> "Mig":
        """Deep copy of the graph."""
        other = Mig(self.name, use_strash=self.use_strash)
        other._fanins = list(self._fanins)
        other._pi_index = list(self._pi_index)
        other._pis = list(self._pis)
        other._pi_names = list(self._pi_names)
        other._pos = list(self._pos)
        other._po_names = list(self._po_names)
        other._strash = dict(self._strash)
        return other

    def _is_ordered(self) -> bool:
        """Whether a rebuild keeps this graph's node order: structural
        hashing on and PIs are nodes ``1..n``.  Dead gates may remain;
        the rewrite passes scan such a graph like a canonical one (see
        :func:`repro.mig.rewrite.rebuild`)."""
        pis = self._pis
        return self.use_strash and (not pis or pis[-1] == len(pis))

    def _is_canonical(self) -> bool:
        """Whether a plain rebuild reproduces this graph node for node:
        it is :meth:`_is_ordered` and has no dead gates.  Only a
        canonical graph can be its own pass result."""
        return self._is_ordered() and len(self._live_gates()) == self.num_gates

    def cleanup(self) -> "Mig":
        """Return a copy containing only nodes reachable from the outputs.

        PIs are preserved (with names and order) even when dead.  The
        structural-hashing mode is inherited, so cleaning an elaborated
        (redundant) graph does not silently optimise it.  A canonical
        graph (see :meth:`_is_canonical`) has nothing to clean, so its
        copy is a :meth:`clone`.
        """
        if self._is_canonical():
            return self.clone()
        fanins = self._fanins
        other = Mig(self.name, use_strash=self.use_strash)
        xlat = [0] * len(fanins)  # old node -> new signal of same polarity
        for idx, node in enumerate(self._pis):
            xlat[node] = other.add_pi(self._pi_names[idx])
        add_maj = other.add_maj
        for node in self._live_gates():
            a, b, c = fanins[node]
            xlat[node] = add_maj(
                xlat[a >> 1] ^ (a & 1), xlat[b >> 1] ^ (b & 1), xlat[c >> 1] ^ (c & 1)
            )
        for out_idx, s in enumerate(self._pos):
            other.add_po(xlat[s >> 1] ^ (s & 1), self._po_names[out_idx])
        return other

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------

    def _check_signal(self, signal: int) -> None:
        if signal < 0 or node_of(signal) >= len(self._fanins):
            raise ValueError(f"signal {signal} references an unknown node")

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Mig(name={self.name!r}, pis={self.num_pis}, pos={self.num_pos}, "
            f"gates={self.num_gates})"
        )

    def dump(self) -> str:
        """Readable multi-line description (small graphs only)."""
        lines = [f"mig {self.name or '<anonymous>'}"]
        for idx, node in enumerate(self._pis):
            lines.append(f"  n{node} = input {self._pi_names[idx]}")
        for node in self.gates():
            a, b, c = self._fanins[node]
            lines.append(
                f"  n{node} = <{format_signal(a)} {format_signal(b)} "
                f"{format_signal(c)}>"
            )
        for idx, s in enumerate(self._pos):
            lines.append(f"  output {self._po_names[idx]} = {format_signal(s)}")
        return "\n".join(lines)
