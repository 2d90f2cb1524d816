"""MIG Boolean algebra: the axioms used by the PLiM rewriting scripts.

The primitive axiom set ``Omega`` [Amaru et al., DAC'14] and the derived
rules referenced by the reproduced paper:

=====================  ==========================================================
``Omega.C``            ``<x y z> = <y x z> = <z y x>``  (built into hashing)
``Omega.M``            ``<x x z> = x``,  ``<x ~x z> = z``  (built into creation)
``Omega.A``            ``<x u <y u z>> = <z u <y u x>>``
``Omega.D`` (R->L)     ``<<x y u> <x y v> z> = <x y <u v z>>``
``Omega.I``            ``~<x y z> = <~x ~y ~z>``  (self-duality of majority)
``Psi.C``              ``<x u <y ~u z>> = <x u <y x z>>``
``Omega.I(R->L)(1-3)`` complement-count normalisation derived from ``Omega.I``:
                       a node with three (rule 1) or two (rules 2-3)
                       complemented fanins is replaced by its complement-free
                       or single-complement dual with a complemented output.
=====================  ==========================================================

Each function here is a *local, cost-aware* application: it receives the
already-translated fanin signals of one node during a rebuild pass
(:mod:`repro.mig.rewrite`) and either returns an improved signal or ``None``
when the pattern does not apply / does not pay off.  Logical correctness of
every rule is property-tested exhaustively in the test suite.

Most nodes match nothing, so the structural matchers (``Omega.D``,
``Omega.A``, ``Psi.C``) read the fanin table directly and reject a node
with a few membership tests before they build any candidate.  The rules
are first-match: only the rejects are shortcuts, the enumeration order
behind them is semantics.

Each pass's matcher also has a *scan*, ``scan(fanins, first)``: the
matcher's reject stated once over a whole canonical fanin table, listing
in ascending order the gates that pass it.  A rebuild probing a
canonical input calls the matcher only at those gates; once a pass has
fired, it calls the matcher at the later candidates and at the nodes
whose children or grandchildren the rebuild changed, which is all that
a matcher's reject reads (see :func:`repro.mig.rewrite.rebuild`).
Non-canonical inputs run the matcher at every node.  A canonical triple
``(a, b, c)`` is ascending with at most one constant (``a``), and a
gate's fanins precede it, so ``a``'s gate holds neither ``b`` nor ``c``:
the scans leave out the clauses of a reject that cannot hold there.
"""

from __future__ import annotations

from typing import Optional

from .graph import Mig
from .signal import complement

#: The six orderings of three operand positions, in the order
#: ``itertools.permutations`` yields them (rewrites are first-match, so
#: this order is semantics).
_PERMUTATIONS = (
    (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0),
)


def _variable_complements(fanins) -> int:
    """Complemented *non-constant* fanins — the RM3-relevant count."""
    return sum(1 for s in fanins if s > 1 and s & 1)


#: The two other operand positions for each inner position, in
#: ascending order (the ``outer_rest`` order of the associativity rules).
_OTHERS = ((1, 2), (0, 2), (0, 1))


# ----------------------------------------------------------------------
# Omega.D  (distributivity, right-to-left)
# ----------------------------------------------------------------------

def distributivity_rl_candidate(fanins, a: int, b: int, c: int) -> bool:
    """The reject of :func:`try_distributivity_rl`, negated: two plain gate
    operands of ``<a b c>`` share two fanins.

    Matching reads the fanin table directly: the stored entry is ``None``
    for exactly the non-gates, and complemented operands are not matched
    structurally (pushing the complement through first is the job of
    Omega.I, which the scripts schedule explicitly).
    """
    fa = None if a & 1 else fanins[a >> 1]
    fb = None if b & 1 else fanins[b >> 1]
    fc = None if c & 1 else fanins[c >> 1]
    return bool(
        fa is not None and (
            fb is not None and (fa[0] in fb) + (fa[1] in fb) + (fa[2] in fb) > 1
            or fc is not None and (fa[0] in fc) + (fa[1] in fc) + (fa[2] in fc) > 1
        ) or (
            fb is not None and fc is not None
            and (fb[0] in fc) + (fb[1] in fc) + (fb[2] in fc) > 1
        )
    )


def distributivity_rl_scan(fanins, first: int):
    """Gates of a canonical fanin table passing
    :func:`distributivity_rl_candidate`, ascending (inlined: it runs
    over every gate a probe would otherwise visit)."""
    out = []
    for node, (a, b, c) in enumerate(fanins[first:], first):
        fa = None if a & 1 else fanins[a >> 1]
        fb = None if b & 1 else fanins[b >> 1]
        fc = None if c & 1 else fanins[c >> 1]
        if fa is not None and (
            fb is not None and (fa[0] in fb) + (fa[1] in fb) + (fa[2] in fb) > 1
            or fc is not None and (fa[0] in fc) + (fa[1] in fc) + (fa[2] in fc) > 1
        ) or (
            fb is not None and fc is not None
            and (fb[0] in fc) + (fb[1] in fc) + (fb[2] in fc) > 1
        ):
            out.append(node)
    return out


def try_distributivity_rl(
    mig: Mig,
    a: int,
    b: int,
    c: int,
    *,
    fanout_of=None,
) -> Optional[int]:
    """Apply ``<<x y u> <x y v> z> -> <x y <u v z>>`` when it pays off.

    The rewrite replaces three majority nodes by two, which is profitable
    when the two inner nodes have no other fanout (they die) or when the
    rebuilt nodes already exist (structural-hash hit).  *fanout_of* maps a
    new-graph signal to its residual fanout estimate; when ``None`` the
    rule only fires on guaranteed hash hits.

    Reject: no pair of plain gate operands sharing two fanins
    (:func:`distributivity_rl_candidate`).
    """
    fanins = mig._fanins
    if not distributivity_rl_candidate(fanins, a, b, c):
        return None
    fa = None if a & 1 else fanins[a >> 1]
    fb = None if b & 1 else fanins[b >> 1]
    fc = None if c & 1 else fanins[c >> 1]
    # Position-permutation order matches permutations((a, b, c)) exactly
    # (results are order-sensitive); gate fanins are probed once per
    # operand instead of once per pair.
    operands = (a, b, c)
    fans = (fa, fb, fc)
    for i, j, k in _PERMUTATIONS:
        first, second, z = operands[i], operands[j], operands[k]
        if first > second:
            continue  # each unordered pair once
        fi1 = fans[i]
        fi2 = fans[j]
        if fi1 is None or fi2 is None:
            continue
        p, q, r = fi1
        # Reject: the two gates must share two operands.
        if (p in fi2) + (q in fi2) + (r in fi2) < 2:
            continue
        # Stored fanin triples are sorted and duplicate-free, so the
        # membership scan yields the shared signals already ascending
        # (what sorted(set & set)[:2] produced before).
        shared = [s for s in fi1 if s in fi2]
        x, y = shared[0], shared[1]
        rest1 = [s for s in fi1 if s not in (x, y)]
        rest2 = [s for s in fi2 if s not in (x, y)]
        if len(rest1) != 1 or len(rest2) != 1:
            continue
        u, v = rest1[0], rest2[0]
        inner_free = not mig.maj_would_allocate(u, v, z)
        outer_probe_possible = inner_free
        dies1 = fanout_of is not None and fanout_of(first) <= 1
        dies2 = fanout_of is not None and fanout_of(second) <= 1
        # Profitability: 3 nodes -> 2 nodes when both inner operands die,
        # or fewer allocations when the rebuilt nodes hash-hit.
        if (dies1 and dies2) or outer_probe_possible:
            inner = mig.add_maj(u, v, z)
            return mig.add_maj(x, y, inner)
    return None


# ----------------------------------------------------------------------
# Omega.A  (associativity)
# ----------------------------------------------------------------------

def associativity_scan(fanins, first: int):
    """Gates of a canonical fanin table passing the reject of
    :func:`try_associativity` (a plain gate operand holding one of the
    other two operands), ascending."""
    out = []
    for node, (a, b, c) in enumerate(fanins[first:], first):
        fb = None if b & 1 else fanins[b >> 1]
        fc = None if c & 1 else fanins[c >> 1]
        if (
            fb is not None and a in fb
            or fc is not None and (a in fc or b in fc)
        ):
            out.append(node)
    return out


def try_associativity(mig: Mig, a: int, b: int, c: int) -> Optional[int]:
    """Apply ``<x u <y u z>> = <z u <y u x>>`` when the swap simplifies.

    For every fanin that is a gate sharing a common operand ``u`` with the
    node under construction, try swapping the remaining outer operand with
    each non-shared inner operand.  The variant is kept only when the new
    inner node does not allocate (it simplifies through ``Omega.M`` or
    hash-hits), so the rewrite is monotonically non-increasing in size.

    Reject: a plain gate operand holding neither of the other two.
    Straight-line over the three gate positions (``a``, ``b``, ``c``),
    each trying ``u`` as the earlier, then the later of the other two
    operands (see :func:`_associate`).
    """
    fanins = mig._fanins
    if not a & 1:  # complemented gates are Omega.I's job
        inner = fanins[a >> 1]
        if inner is not None:
            if b in inner:
                result = _associate(mig, inner, b, c)
                if result is not None:
                    return result
            if c in inner:
                result = _associate(mig, inner, c, b)
                if result is not None:
                    return result
    if not b & 1:
        inner = fanins[b >> 1]
        if inner is not None:
            if a in inner:
                result = _associate(mig, inner, a, c)
                if result is not None:
                    return result
            if c in inner:
                result = _associate(mig, inner, c, a)
                if result is not None:
                    return result
    if not c & 1:
        inner = fanins[c >> 1]
        if inner is not None:
            if a in inner:
                result = _associate(mig, inner, a, b)
                if result is not None:
                    return result
            if b in inner:
                return _associate(mig, inner, b, a)
    return None


def _associate(mig: Mig, inner, u: int, x: int) -> Optional[int]:
    """``<x u <y u z>> -> <z u <y u x>>`` for the fanins *inner* of the
    gate operand, which hold *u*: ``y`` is the later, then the earlier of
    the other two inner fanins, and the first ``<y u x>`` that does not
    allocate is taken.  ``None`` when *u* occurs twice or neither fits."""
    s0, s1, s2 = inner
    if u == s0:
        if u == s1 or u == s2:
            return None
        z, y = s1, s2
    elif u == s1:
        if u == s2:
            return None
        z, y = s0, s2
    else:
        z, y = s0, s1
    if not mig.maj_would_allocate(y, u, x):
        return mig.add_maj(z, u, mig.add_maj(y, u, x))
    if not mig.maj_would_allocate(z, u, x):
        return mig.add_maj(y, u, mig.add_maj(z, u, x))
    return None


# ----------------------------------------------------------------------
# Psi.C  (complementary associativity)
# ----------------------------------------------------------------------

def complementary_associativity_candidate(
    fanins, a: int, b: int, c: int
) -> bool:
    """The reject of :func:`try_complementary_associativity`, negated: a
    plain gate operand of ``<a b c>`` holds the complement of a
    non-constant other operand."""
    fa = None if a & 1 else fanins[a >> 1]
    fb = None if b & 1 else fanins[b >> 1]
    fc = None if c & 1 else fanins[c >> 1]
    return bool(
        fa is not None and (b > 1 and b ^ 1 in fa or c > 1 and c ^ 1 in fa)
        or fb is not None and (a > 1 and a ^ 1 in fb or c > 1 and c ^ 1 in fb)
        or fc is not None and (a > 1 and a ^ 1 in fc or b > 1 and b ^ 1 in fc)
    )


def complementary_associativity_scan(fanins, first: int):
    """Gates of a canonical fanin table passing
    :func:`complementary_associativity_candidate`, ascending (inlined:
    it runs over every gate a probe would otherwise visit)."""
    out = []
    for node, (a, b, c) in enumerate(fanins[first:], first):
        fb = None if b & 1 else fanins[b >> 1]
        fc = None if c & 1 else fanins[c >> 1]
        if (
            fb is not None and a > 1 and a ^ 1 in fb
            or fc is not None and (a > 1 and a ^ 1 in fc or b ^ 1 in fc)
        ):
            out.append(node)
    return out


def try_complementary_associativity(
    mig: Mig, a: int, b: int, c: int, *, fanout_of=None
) -> Optional[int]:
    """Apply ``<x u <y ~u z>> = <x u <y x z>>`` when it pays off.

    The inner occurrence of the complement of one outer operand is replaced
    by the *other* outer operand.  This removes one complemented edge and
    can expose sharing; it fires when the new inner node hash-hits, or
    when the replacement strictly reduces the inner complement count *and*
    the old inner node dies (single fanout) so the graph cannot grow.
    (That complement removal is the use [Soeken et al., DAC'16] makes of
    the rule — and the reason the endurance-aware script of the reproduced
    paper drops it: removing a *single* complemented edge destroys the
    RM3-ideal form.)

    Reject: no plain gate operand holding the complement of a
    non-constant other operand
    (:func:`complementary_associativity_candidate`).
    """
    fanins = mig._fanins
    if not complementary_associativity_candidate(fanins, a, b, c):
        return None
    operands = (a, b, c)
    for w_pos in range(3):
        w = operands[w_pos]
        if w & 1:
            continue  # complemented gates are Omega.I's job
        inner = fanins[w >> 1]
        if inner is None:
            continue
        i, j = _OTHERS[w_pos]
        outer_rest = [operands[i], operands[j]]
        for u_idx in range(2):
            u = outer_rest[u_idx]
            x = outer_rest[1 - u_idx]
            if u <= 1:
                # a "complement" of a constant operand is just the other
                # constant — not a complemented edge; matching it would
                # tear apart AND/OR nodes for no RM3 benefit.
                continue
            nu = complement(u)
            if nu not in inner:
                continue
            new_inner_ops = tuple(x if s == nu else s for s in inner)
            hash_hit = not mig.maj_would_allocate(*new_inner_ops)
            removes_complement = _variable_complements(
                new_inner_ops
            ) < _variable_complements(inner)
            inner_dies = fanout_of is not None and fanout_of(w) <= 1
            if hash_hit or (removes_complement and inner_dies):
                new_inner = mig.add_maj(*new_inner_ops)
                return mig.add_maj(x, u, new_inner)
    return None


# ----------------------------------------------------------------------
# Omega.I  (inverter propagation, right-to-left)
# ----------------------------------------------------------------------

def inverter_scan(fanins, first: int, *, handle_two: bool):
    """Gates of a canonical fanin table at which
    :func:`propagate_inverters` fires: three complemented non-constant
    fanins, or two with *handle_two*; ascending."""
    need = 2 if handle_two else 3
    return [
        node
        for node, (a, b, c) in enumerate(fanins[first:], first)
        if (a > 1 and a & 1) + (b & 1) + (c & 1) >= need
    ]


def propagate_inverters(
    mig: Mig, a: int, b: int, c: int, *, handle_two: bool
) -> Optional[int]:
    """Normalise complemented fanins via the self-duality of majority.

    * three complemented fanins (``Omega.I(R->L)`` rule 1):
      ``<~x ~y ~z> = ~<x y z>`` — build the complement-free node and
      return its complemented signal;
    * exactly two complemented fanins (rules 2-3, enabled by
      *handle_two*): ``<~x ~y z> = ~<x y ~z>`` — leaves exactly one
      complemented fanin, the ideal shape for RM3's free inversion of the
      second operand.

    Constant fanins are ignored by the count: RM3 applies constants to
    the bit lines directly, either polarity, so a "complemented" constant
    edge costs nothing and must not trigger the rewrite.
    """
    # Inlined complement arithmetic: this runs twice per node per script
    # cycle (both inverter phases), so helper-call overhead is visible.
    count = (
        (1 if a > 1 and a & 1 else 0)
        + (1 if b > 1 and b & 1 else 0)
        + (1 if c > 1 and c & 1 else 0)
    )
    if count == 3 or (count == 2 and handle_two):
        return mig.add_maj(a ^ 1, b ^ 1, c ^ 1) ^ 1
    return None
