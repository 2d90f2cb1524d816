"""Rebuild-style rewriting engine for MIGs.

Every rewriting *pass* applies one local axiom at each node of a graph's
live part while a translation map is built bottom-up into a fresh,
structurally hashed MIG.  The input graph is never mutated, dead nodes
vanish, and node-creation identities (``Omega.M``) apply everywhere for
free.

Most pass calls change nothing: after a cycle or two of a script the
axioms stop firing.  So :func:`rebuild` does not copy a *canonical*
input (structurally hashed, primary inputs first, no dead gates), which
is a fixed point of a plain rebuild.  It first *probes* the input:
it replays the pass's transform against a read-only view of the input,
but only at the candidates of the pass's *scan* — the gates its
matcher's reject lets through, found in one sweep of the fanin table
(:mod:`repro.mig.algebra`).  When no candidate fires it returns the
input itself, memoized traversals included; otherwise the new graph
starts as a copy of the unchanged prefix and the rebuild resumes at the
first node that fired.  From there on it calls the transform only at
the later candidates and at the nodes whose children or grandchildren
came out *dirty* (not a fresh copy of the input node: the transform
fired, the structural hash hit, or ``Omega.M`` collapsed the node); it
copies every other node straight from the input's fanin table.  Such a
node's matcher reads a neighbourhood that the rebuild translated
injectively, so it rejects as it did on the input (the argument is in
:func:`rebuild`'s docstring).  A firing pass often leaves dead gates in
its result, and such an input can never be its own pass result, so it
gets no probe: when it is structurally hashed with its primary inputs
first, its rebuild follows the same rule from its first live gate.
Only inputs with interleaved primary inputs or without structural
hashing call the transform at every gate.  This is the incremental,
DAG-aware style of [Mishchenko, Chatterjee & Brayton, DAC'06] applied
to rebuild passes, and it keeps node numbering identical to a rebuild
that calls the transform everywhere.  A pass result may *be* its
input, so callers must not mutate pass results.

A script cycles its passes, and a pass often meets a graph it already
returned unchanged (another pass of the cycle changed something, but not
this graph object).  So each :data:`PASSES` entry records a no-op in the
graph's ``_derived`` memo and answers the next call on that same object
at once.  Mutation clears the memo and pickling drops it, and pass
results are never mutated, so it cannot answer for a changed graph.  The
memo sits inside the registry entries, so :func:`apply_script`, the
optimiser's candidates and anything that wraps a registry entry all see
every call.

The rewriting *scripts* of the reproduced paper (Algorithm 1, the PLiM
compiler script of [Soeken et al., DAC'16], and Algorithm 2, the
endurance-aware script) are sequences of these passes; they live in
:mod:`repro.opt.scripts`.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, Optional, Sequence

from ..resilience.timeouts import checkpoint
from . import algebra
from .graph import Mig
from .signal import complement


class RebuildContext:
    """Read-only facts about the source graph available to a transform.

    ``xlat`` maps old node ids to new-graph signals; it is a flat list
    indexed by node id (``-1`` for not-yet-translated nodes) so the
    per-edge translation in the rebuild inner loop is a plain index.

    ``refs`` is *lazy*: most passes (``Omega.M``, ``Omega.A``, the
    inverter propagations, polarity) never consult it, and a rebuild is
    cheap enough that an unconditional fanout traversal of the source
    graph would dominate its cost — the optimiser's search strategies
    apply thousands of candidate passes per run, so only the passes
    that actually price fanouts (``Omega.D``, ``Psi.C``) pay for it,
    once a pattern has matched.
    """

    __slots__ = ("old", "xlat", "_refs")

    def __init__(self, old: Mig) -> None:
        self.old = old
        self.xlat: List[int] = []
        self._refs: Optional[List[int]] = None

    @property
    def refs(self) -> List[int]:
        """Fanout counts of the source graph (the graph's shared
        memoized list — do not mutate)."""
        if self._refs is None:
            self._refs = self.old._fanout_counts()
        return self._refs

    def translated(self, old_signal: int) -> int:
        """New-graph signal corresponding to *old_signal*.

        Raises :class:`KeyError` for nodes with no translation yet (dead,
        not yet visited, or out of range), like the dict-backed map it
        replaced.
        """
        node = old_signal >> 1
        if not 0 <= node < len(self.xlat) or self.xlat[node] < 0:
            raise KeyError(f"node {node} has not been translated")
        return self.xlat[node] ^ (old_signal & 1)


#: A transform maps (new_mig, ctx, old_node, translated_children) to the
#: node's new signal, or to ``None`` to keep the node: :func:`rebuild`
#: then adds ``<children>`` itself.
Transform = Callable[[Mig, RebuildContext, int, Sequence[int]], Optional[int]]

#: A scan maps a canonical input's fanin table and its first gate id to
#: the ascending ids of the gates at which a pass's transform may fire
#: (see :func:`rebuild` for what the transform may read).
Scan = Callable[[List, int], Sequence[int]]


class _Diverged(Exception):
    """A transform built a node while :func:`rebuild` was probing."""


class _PrefixView:
    """The graph a rebuild of a canonical input holds before node ``limit``.

    Until a transform fires, that graph is exactly nodes ``0..limit-1``
    of the input, so transforms can read the input's fanins directly,
    and a structural-hash hit counts only below ``limit``.  Building a
    node means the transform fired.
    """

    __slots__ = ("_fanins", "_strash", "limit")

    def __init__(self, mig: Mig) -> None:
        self._fanins = mig._fanins
        self._strash = mig._strash
        self.limit = 0

    def maj_would_allocate(self, a: int, b: int, c: int) -> bool:
        if a == b or a == c or b == c or a ^ b == 1 or a ^ c == 1 or b ^ c == 1:
            return False
        # add_maj's sort, in lockstep: both key the same strash table.
        if a > b:
            a, b = b, a
        if b > c:
            b, c = c, b
        if a > b:
            a, b = b, a
        node = self._strash.get((a, b, c))
        return node is None or node >= self.limit

    def add_maj(self, a: int, b: int, c: int) -> int:
        raise _Diverged


def _prefix(mig: Mig, size: int) -> Mig:
    """A new graph holding nodes ``0..size-1`` of canonical *mig*."""
    new = Mig(mig.name)
    new._fanins = mig._fanins[:size]
    new._pi_index = mig._pi_index[:size]
    new._pis = list(mig._pis)
    new._pi_names = list(mig._pi_names)
    first = len(mig._pis) + 1
    new._strash = dict(zip(new._fanins[first:], range(first, size)))
    return new


def rebuild(
    mig: Mig,
    transform: Optional[Transform] = None,
    scan: Optional[Scan] = None,
) -> Mig:
    """Reconstruct the live part of *mig*, applying *transform* per gate.

    With ``transform=None`` this is a cleanup + ``Omega.M`` +
    structural-hashing pass (the paper's plain ``Omega.M`` step).

    *scan* narrows the calls of *transform* on an ordered input
    (structurally hashed, primary inputs first: :meth:`Mig._is_ordered`):
    it must list (a superset of) the gates at which *transform* returns
    a signal or builds a node when it is called on the input itself (the
    probe's read-only view).  The transform's decision to fire may read
    only the node's children and grandchildren: the child signals, which
    of them are gates, and those gates' fanin triples.  Without a scan,
    and on an input with interleaved primary inputs or without
    structural hashing, *transform* runs at every live gate.

    With a scan, a rebuild that fired calls *transform* only at the
    later candidates and at the nodes with a *dirty* child or
    grandchild; every other node is copied by a sort and a
    structural-hash insert.  A node is dirty when its image is not a
    fresh node allocated from its own translated fanins: the transform
    fired, or ``add_maj`` hit the structural hash or collapsed the node
    (``Omega.M``).  Skipping is sound because the image of a clean node
    is a plain signal of a node allocated after the images of every
    earlier clean node: on clean nodes the translation is injective,
    keeps polarity and keeps constants, inputs and gates apart.  A node
    whose children and grandchildren are all clean therefore presents
    its matcher with the same equalities, complement pairs and fanin
    memberships as it had in the input, so the matcher decides as it
    decided there, where the scan said it does not fire.  (One level is
    not enough: a clean child's fanins are the images of the
    grandchildren, and a dirty grandchild's image may equal an operand
    the matcher compares it with.)

    An ordered input with dead gates is not probed (its result drops
    them, so it is never the input) and follows the rule above from its
    first live gate, at the live candidates only.  The argument still
    holds: a dead gate gets no image, but no live gate reads one, the
    primary inputs keep their ids, and the scan decides each gate from
    its own neighbourhood, which is all live.

    Returns *mig* itself when the result would equal it (see the module
    docstring); callers must not mutate the result.
    """
    checkpoint()  # every pass starts here: the rewrite stage's deadline
    ctx = RebuildContext(mig)
    xlat = ctx.xlat
    fanins = mig._fanins
    num_nodes = mig.num_nodes
    first = mig.num_pis + 1
    canonical = mig._is_canonical()
    if canonical:
        if transform is None:
            return mig
        # Probe: while nothing fires, node k of the rebuild is node k of
        # the input, so xlat grows as the identity.
        view = _PrefixView(mig)
        everywhere = scan is None
        candidates = (
            range(first, num_nodes) if everywhere else scan(fanins, first)
        )
        for index, node in enumerate(candidates):
            view.limit = node
            xlat.extend(range(len(xlat) << 1, node << 1, 2))
            try:
                if transform(view, ctx, node, fanins[node]) is not None:
                    break
            except _Diverged:
                break
        else:
            return mig
        new = _prefix(mig, node)
        xlat.extend([-1] * (num_nodes - node))
        order = range(node, num_nodes)
        targets = iter(candidates[index:])
    else:
        new = Mig(mig.name)
        xlat.extend([-1] * num_nodes)
        xlat[0] = 0
        for idx, node in enumerate(mig.pis()):
            xlat[node] = new.add_pi(mig.pi_name(idx))
        order = mig._live_gates()
        # An ordered input with dead gates cannot be its own result, so
        # there is nothing to probe for: scan and skip from the start.
        everywhere = not mig._is_ordered() or (
            scan is None and transform is not None
        )
        if everywhere or scan is None:
            targets = iter(())
        else:
            live = mig._live_mask()
            targets = iter([n for n in scan(fanins, first) if live[n]])
    new_fanins = new._fanins
    new_pi_index = new._pi_index
    strash = new._strash
    add_maj = new.add_maj
    # Per input node: 0 clean, 1 clean with a dirty child, 2 dirty.
    dirt = bytearray(num_nodes)
    target = next(targets, num_nodes)
    for node in order:
        a, b, c = fanins[node]
        na = a >> 1
        nb = b >> 1
        nc = c >> 1
        da = dirt[na]
        db = dirt[nb]
        dc = dirt[nc]
        if da or db or dc or everywhere or node == target:
            if node == target:
                target = next(targets, num_nodes)
            children = (
                xlat[na] ^ (a & 1), xlat[nb] ^ (b & 1), xlat[nc] ^ (c & 1)
            )
            result = None
            if transform is not None:
                result = transform(new, ctx, node, children)
            if result is None:
                size = len(new_fanins)
                result = add_maj(*children)
                if len(new_fanins) == size:
                    dirt[node] = 2
                elif da == 2 or db == 2 or dc == 2:
                    dirt[node] = 1
            else:
                dirt[node] = 2
            xlat[node] = result
            continue
        # A clean neighbourhood: add_maj's sort and strash insert.
        a = xlat[na] ^ (a & 1)
        b = xlat[nb] ^ (b & 1)
        c = xlat[nc] ^ (c & 1)
        if a > b:
            a, b = b, a
        if b > c:
            b, c = c, b
        if a > b:
            a, b = b, a
        key = (a, b, c)
        image = strash.get(key)
        if image is None:
            image = len(new_fanins)
            new_fanins.append(key)
            new_pi_index.append(-1)
            strash[key] = image
        else:
            dirt[node] = 2
        xlat[node] = image << 1
    for idx, s in enumerate(mig.pos()):
        new.add_po(xlat[s >> 1] ^ (s & 1), mig.po_name(idx))
    if canonical and new._fanins == mig._fanins and new._pos == mig._pos:
        return mig  # a transform fired without changing anything
    return new


# ----------------------------------------------------------------------
# Concrete passes
# ----------------------------------------------------------------------

def majority_pass(mig: Mig) -> Mig:
    """``Omega.M``: node-creation identities plus structural hashing."""
    return rebuild(mig)


def _residual_fanout(ctx: RebuildContext, node: int, children):
    """``fanout_of`` callback of the fanout-priced axioms at *node*.

    A child signal's residual fanout is the source fanout of the old
    fanin it translates (the last such fanin when two translate alike);
    any other signal is priced as shared (2).  Built only past the
    matcher's reject, looked up only when an axiom's pattern matched.
    """

    def fanout_of(sig: int) -> int:
        for i in (2, 1, 0):
            if children[i] == sig:
                return ctx.refs[ctx.old._fanins[node][i] >> 1]
        return 2

    return fanout_of


def distributivity_rl_pass(mig: Mig) -> Mig:
    """``Omega.D(R->L)``: factor shared operand pairs out of fanin nodes."""

    def transform(new: Mig, ctx: RebuildContext, node: int, children):
        if not algebra.distributivity_rl_candidate(new._fanins, *children):
            return None
        return algebra.try_distributivity_rl(
            new, *children, fanout_of=_residual_fanout(ctx, node, children)
        )

    return rebuild(mig, transform, algebra.distributivity_rl_scan)


def associativity_pass(mig: Mig) -> Mig:
    """``Omega.A``: swap through shared operands when sharing is exposed."""

    def transform(new: Mig, ctx: RebuildContext, node: int, children):
        return algebra.try_associativity(new, *children)

    return rebuild(mig, transform, algebra.associativity_scan)


def complementary_associativity_pass(mig: Mig) -> Mig:
    """``Psi.C``: replace an inner complement of an outer operand."""

    def transform(new: Mig, ctx: RebuildContext, node: int, children):
        if not algebra.complementary_associativity_candidate(
            new._fanins, *children
        ):
            return None
        return algebra.try_complementary_associativity(
            new, *children, fanout_of=_residual_fanout(ctx, node, children)
        )

    return rebuild(mig, transform, algebra.complementary_associativity_scan)


def inverter_propagation_pass(mig: Mig, *, handle_two: bool) -> Mig:
    """``Omega.I(R->L)``: normalise nodes with 2 (optional) or 3
    complemented fanins toward the RM3-ideal single-complement form."""

    def transform(new: Mig, ctx: RebuildContext, node: int, children):
        return algebra.propagate_inverters(new, *children, handle_two=handle_two)

    scan = functools.partial(algebra.inverter_scan, handle_two=handle_two)
    return rebuild(mig, transform, scan)


def inverter_pairs_pass(mig: Mig) -> Mig:
    """``Omega.I(R->L)(1-3)``: full normalisation (2- and 3-complement)."""
    return inverter_propagation_pass(mig, handle_two=True)


def inverter_triples_pass(mig: Mig) -> Mig:
    """``Omega.I(R->L)`` rule 1 only: remove triple-complemented nodes."""
    return inverter_propagation_pass(mig, handle_two=False)


def rm3_gate_cost(
    fanin_bits,
    refs,
    is_gate,
    *,
    q_invert: int = 2,
    p_invert: int = 2,
    z_copy: int = 2,
    z_const: int = 1,
) -> int:
    """Estimated RM3 instructions to realise one majority gate.

    A static replay of the compiler's role pricing
    (:func:`repro.plim.compiler._role_table`): one RM3 plus
    repair bills.  *fanin_bits* is a sequence of ``(node, complement)``
    pairs; *refs* the graph's fanout counts; *is_gate* the gate
    predicate.  Constant fanins follow the machine semantics exactly —
    a constant edge of either polarity is never a complement violation,
    serves as the intrinsically inverted ``Q`` for free, and can
    constant-initialise the destination at *z_const* (cheaper than a
    *z_copy*).  The default weights mirror the default RM3 cost table;
    :func:`repro.opt.estimated_write_cost` re-prices through a target
    architecture's :class:`~repro.arch.CostModel`.

    This is the single pricing implementation shared by the
    write-cost objective and :func:`polarity_pass` — keep it that way,
    or the search layers drift apart.
    """
    complements = 0
    constants = 0
    bill = 1
    for node, bit in fanin_bits:
        if node == 0:
            constants += 1
        elif bit:
            complements += 1
    if complements == 0:
        if constants:
            constants -= 1  # one constant serves as the free Q
        else:
            bill += q_invert
    else:
        bill += (complements - 1) * p_invert
    for node, bit in fanin_bits:
        if node and not bit and refs[node] == 1 and is_gate(node):
            break
    else:
        bill += z_const if constants else z_copy
    return bill


def polarity_pass(
    mig: Mig,
    *,
    q_invert: int = 2,
    p_invert: int = 2,
    z_copy: int = 2,
    z_const: int = 1,
    sweeps: int = 4,
) -> Mig:
    """Polarity local search: re-choose each gate's stored phase.

    ``MAJ(~a, ~b, ~c) = ~MAJ(a, b, c)`` (the self-duality underlying
    ``Omega.I``) means every gate may be *stored* in either phase — with
    all fanin complements flipped and every reference complemented —
    without changing any output.  Which phase is cheaper on a PLiM
    machine is priced by :func:`rm3_gate_cost` (the shared static
    replay of the compiler's role assignment — see its docstring for
    the violation semantics, including the constant-fanin rules).

    The search sweeps nodes in topological order, flipping a gate's
    stored phase whenever the *exact* cost delta over the gate and its
    consumers is strictly negative, until a sweep makes no flip (or
    *sweeps* sweeps ran).  Flips change only edge attributes — the
    graph structure, fanout counts, and every output function are
    untouched, so the pass composes freely with the structural axioms.
    The default costs mirror the default RM3 cost table; the optimiser
    layer's objectives re-price candidate results under the actual
    target architecture either way.
    """
    gates = mig.flat_gates()
    refs = mig.fanout_counts()
    is_gate = mig.is_gate
    # Mutable per-gate fanin attributes: [child, complement-bit] triples,
    # plus the reverse map (consumer gate, slot) per child.
    fanin_bits: Dict[int, List[List[int]]] = {}
    consumers: Dict[int, List[tuple]] = {}
    for node, na, xa, nb, xb, nc, xc in gates:
        fanin_bits[node] = [[na, xa & 1], [nb, xb & 1], [nc, xc & 1]]
        for slot, child in enumerate((na, nb, nc)):
            consumers.setdefault(child, []).append((node, slot))

    def gate_cost(node: int) -> int:
        return rm3_gate_cost(
            fanin_bits[node], refs, is_gate,
            q_invert=q_invert, p_invert=p_invert,
            z_copy=z_copy, z_const=z_const,
        )

    def toggle(node: int) -> None:
        for entry in fanin_bits[node]:
            entry[1] ^= 1
        for consumer, slot in consumers.get(node, ()):
            fanin_bits[consumer][slot][1] ^= 1

    flipped: Dict[int, int] = {}
    order = [record[0] for record in gates]
    for _ in range(max(1, sweeps)):
        changed = False
        for node in order:
            affected = {node}
            affected.update(c for c, _ in consumers.get(node, ()))
            before = sum(gate_cost(g) for g in affected)
            toggle(node)
            if sum(gate_cost(g) for g in affected) < before:
                flipped[node] = flipped.get(node, 0) ^ 1
                changed = True
            else:
                toggle(node)
        if not changed:
            break

    def transform(new: Mig, ctx: RebuildContext, node: int, children):
        if flipped.get(node):
            return complement(
                new.add_maj(*(complement(s) for s in children))
            )
        return None

    def scan(fanins, first):
        return sorted(node for node, bit in flipped.items() if bit)

    return rebuild(mig, transform, scan)


def _memoized(name: str, fn: Callable[[Mig], Mig]) -> Callable[[Mig], Mig]:
    """*fn* answering at once for a graph it already returned unchanged.

    The no-op is recorded in the graph's ``_derived`` memo, which every
    mutation clears and pickling drops, so it never answers for a
    changed graph.
    """
    key = ("noop", name)

    @functools.wraps(fn)
    def run(mig: Mig) -> Mig:
        if key in mig._derived:
            return mig
        result = fn(mig)
        if result is mig:
            mig._derived[key] = True
        return result

    return run


#: Registry used by scripts, the CLI, and the ablation benchmarks.
#: ``P`` (polarity re-phasing) is not part of the paper's scripts; the
#: cost-guided strategies of :mod:`repro.opt` use it as an extra
#: candidate.  Every entry carries the no-op memo (see the module
#: docstring).
PASSES: Dict[str, Callable[[Mig], Mig]] = {
    name: _memoized(name, fn)
    for name, fn in (
        ("M", majority_pass),
        ("D_rl", distributivity_rl_pass),
        ("A", associativity_pass),
        ("Psi_C", complementary_associativity_pass),
        ("I_rl_1_3", inverter_pairs_pass),
        ("I_rl", inverter_triples_pass),
        ("P", polarity_pass),
    )
}


def _same_structure(a: Mig, b: Mig) -> bool:
    """Structural identity of two rebuild results (same ids, edges, POs)."""
    return (
        a._fanins == b._fanins
        and a._pis == b._pis
        and a._pos == b._pos
    )


def apply_script(mig: Mig, steps: Sequence[str], cycles: int = 1) -> Mig:
    """Run the named passes *cycles* times in order and clean up.

    *steps* is a sequence of keys into :data:`PASSES`; unknown names raise
    ``KeyError`` immediately (before any work is done).  Scripts converge
    quickly in practice, so cycling stops early once a full cycle leaves
    the graph structurally unchanged (every later cycle of the same
    deterministic passes would reproduce it bit for bit).
    """
    for name in steps:
        if name not in PASSES:
            raise KeyError(f"unknown rewriting pass {name!r}")
    result = mig
    for _ in range(cycles):
        before = result
        for name in steps:
            result = PASSES[name](result)
        if _same_structure(before, result):
            break
    return result.cleanup()
