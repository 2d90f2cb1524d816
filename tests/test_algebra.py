"""Property tests for the MIG Boolean algebra.

Every axiom used by the rewriting scripts is checked two ways:

1. as a *logical identity*, by exhaustive truth-table enumeration over the
   participating variables;
2. as an *implementation*, by asserting that each cost-aware transform in
   :mod:`repro.mig.algebra` preserves functional equivalence on randomly
   generated MIGs (hypothesis drives the generator seeds).
"""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from repro.mig import algebra
from repro.mig.graph import Mig
from repro.mig.rewrite import (
    PASSES,
    associativity_pass,
    complementary_associativity_pass,
    distributivity_rl_pass,
    inverter_pairs_pass,
    inverter_triples_pass,
    majority_pass,
)
from repro.mig.simulate import equivalent
from .conftest import make_random_mig


def maj(x, y, z):
    return (x & y) | (x & z) | (y & z)


class TestAxiomIdentities:
    """The identities themselves, over all Boolean assignments."""

    def test_majority_axiom(self):
        for x, z in product((0, 1), repeat=2):
            assert maj(x, x, z) == x
            assert maj(x, 1 - x, z) == z

    def test_commutativity(self):
        for x, y, z in product((0, 1), repeat=3):
            assert maj(x, y, z) == maj(y, x, z) == maj(z, y, x)

    def test_associativity(self):
        # <x u <y u z>> = <z u <y u x>>
        for x, y, z, u in product((0, 1), repeat=4):
            assert maj(x, u, maj(y, u, z)) == maj(z, u, maj(y, u, x))

    def test_distributivity(self):
        # <x y <u v z>> = <<x y u> <x y v> z>
        for x, y, u, v, z in product((0, 1), repeat=5):
            assert maj(x, y, maj(u, v, z)) == maj(
                maj(x, y, u), maj(x, y, v), z
            )

    def test_inverter_propagation(self):
        # ~<x y z> = <~x ~y ~z>  (self-duality)
        for x, y, z in product((0, 1), repeat=3):
            assert 1 - maj(x, y, z) == maj(1 - x, 1 - y, 1 - z)

    def test_complementary_associativity(self):
        # Psi.C: <x u <y ~u z>> = <x u <y x z>>
        for x, y, z, u in product((0, 1), repeat=4):
            assert maj(x, u, maj(y, 1 - u, z)) == maj(x, u, maj(y, x, z))

    def test_relevance_two_complement_rewrite(self):
        # <~x ~y z> = ~<x y ~z>  (the Omega.I(R->L) rules 2-3 shape)
        for x, y, z in product((0, 1), repeat=3):
            assert maj(1 - x, 1 - y, z) == 1 - maj(x, y, 1 - z)


def _pass_preserves(pass_fn, seed, num_pis=6, num_gates=45):
    mig = make_random_mig(num_pis, num_gates, seed=seed)
    rewritten = pass_fn(mig)
    assert equivalent(mig, rewritten), f"{pass_fn.__name__} broke seed {seed}"
    return mig, rewritten


class TestPassesPreserveEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_majority_pass(self, seed):
        _pass_preserves(majority_pass, seed)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_distributivity_pass(self, seed):
        _pass_preserves(distributivity_rl_pass, seed)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_associativity_pass(self, seed):
        _pass_preserves(associativity_pass, seed)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_complementary_associativity_pass(self, seed):
        _pass_preserves(complementary_associativity_pass, seed)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_inverter_pairs_pass(self, seed):
        _pass_preserves(inverter_pairs_pass, seed)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_inverter_triples_pass(self, seed):
        _pass_preserves(inverter_triples_pass, seed)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_passes_never_increase_live_size(seed):
    """All size-targeting passes are monotone on live gate count."""
    mig = make_random_mig(6, 45, seed=seed)
    base = mig.cleanup().num_live_gates()
    for name in ("M", "D_rl", "A", "Psi_C"):
        after = PASSES[name](mig).cleanup().num_live_gates()
        assert after <= base, f"pass {name} grew the graph"


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_inverter_pairs_normalises(seed):
    """After Omega.I(R->L)(1-3) no live gate has 2+ complemented
    non-constant fanins."""
    mig = make_random_mig(6, 45, seed=seed)
    out = inverter_pairs_pass(mig)
    for node in out.live_gates():
        count = sum(1 for s in out.fanins(node) if s > 1 and s & 1)
        assert count <= 1


class TestTransformUnits:
    def test_distributivity_fires_on_shared_pair(self):
        mig = Mig()
        x, y, u, v, z = (mig.add_pi(n) for n in "xyuvz")
        first = mig.add_maj(x, y, u)
        second = mig.add_maj(x, y, v)
        result = algebra.try_distributivity_rl(
            mig, first, second, z, fanout_of=lambda s: 1
        )
        assert result is not None
        ref = Mig()
        x, y, u, v, z = (ref.add_pi(n) for n in "xyuvz")
        ref.add_po(ref.add_maj(ref.add_maj(x, y, u), ref.add_maj(x, y, v), z))
        got = mig
        got.add_po(result)
        assert equivalent(ref, got)

    def test_distributivity_skips_shared_single(self):
        mig = Mig()
        x, y, u, v, z, w = (mig.add_pi(n) for n in "xyuvzw")
        first = mig.add_maj(x, y, u)
        second = mig.add_maj(x, w, v)  # only x shared
        assert (
            algebra.try_distributivity_rl(
                mig, first, second, z, fanout_of=lambda s: 1
            )
            is None
        )

    def test_psi_c_ignores_constant_operands(self):
        # <A B 1> with a constant-0 inside A must NOT be rewritten as a
        # "complement" of the constant-1 operand.
        mig = Mig()
        s, t, e = (mig.add_pi(n) for n in "ste")
        a = mig.add_and(s, t)
        b = mig.add_and(mig.add_pi("q"), e)
        before = mig.num_gates
        result = algebra.try_complementary_associativity(mig, a, b, 1)
        assert result is None
        assert mig.num_gates == before

    def test_inverter_propagation_counts_only_variables(self):
        mig = Mig()
        a, b = mig.add_pi("a"), mig.add_pi("b")
        from repro.mig.signal import complement

        # <~a ~b 1>: two variable complements -> rewritten
        assert algebra.propagate_inverters(
            mig, complement(a), complement(b), 1, handle_two=True
        ) is not None
        # <~a b 1>: one variable complement (const-1 ignored) -> kept
        assert algebra.propagate_inverters(
            mig, complement(a), b, 1, handle_two=True
        ) is None


# ----------------------------------------------------------------------
# Matcher parity: the rejecting matchers against the original search
# ----------------------------------------------------------------------

def _old_gate_fanins(mig, signal):
    if signal & 1:
        return None
    return mig._fanins[signal >> 1]


def _old_distributivity_rl(mig, a, b, c, *, fanout_of=None):
    operands = (a, b, c)
    fans = tuple(_old_gate_fanins(mig, s) for s in operands)
    for i, j, k in algebra._PERMUTATIONS:
        first, second, z = operands[i], operands[j], operands[k]
        if first > second:
            continue
        fi1 = fans[i]
        fi2 = fans[j]
        if fi1 is None or fi2 is None:
            continue
        shared = [s for s in fi1 if s in fi2]
        if len(shared) < 2:
            continue
        x, y = shared[0], shared[1]
        rest1 = [s for s in fi1 if s not in (x, y)]
        rest2 = [s for s in fi2 if s not in (x, y)]
        if len(rest1) != 1 or len(rest2) != 1:
            continue
        u, v = rest1[0], rest2[0]
        inner_free = not mig.maj_would_allocate(u, v, z)
        dies1 = fanout_of is not None and fanout_of(first) <= 1
        dies2 = fanout_of is not None and fanout_of(second) <= 1
        if (dies1 and dies2) or inner_free:
            inner = mig.add_maj(u, v, z)
            return mig.add_maj(x, y, inner)
    return None


def _old_associativity(mig, a, b, c):
    operands = (a, b, c)
    for w_pos in range(3):
        inner = _old_gate_fanins(mig, operands[w_pos])
        if inner is None:
            continue
        outer_rest = [operands[i] for i in range(3) if i != w_pos]
        for u in outer_rest:
            if u not in inner:
                continue
            x = outer_rest[0] if outer_rest[1] == u else outer_rest[1]
            inner_rest = [s for s in inner if s != u]
            if len(inner_rest) != 2:
                continue
            for swap_idx in range(2):
                z = inner_rest[swap_idx]
                y = inner_rest[1 - swap_idx]
                if not mig.maj_would_allocate(y, u, x):
                    new_inner = mig.add_maj(y, u, x)
                    return mig.add_maj(z, u, new_inner)
    return None


def _old_complementary_associativity(mig, a, b, c, *, fanout_of=None):
    operands = (a, b, c)
    for w_pos in range(3):
        w = operands[w_pos]
        inner = _old_gate_fanins(mig, w)
        if inner is None:
            continue
        outer_rest = [operands[i] for i in range(3) if i != w_pos]
        for u_idx in range(2):
            u = outer_rest[u_idx]
            x = outer_rest[1 - u_idx]
            if u <= 1:
                continue
            nu = u ^ 1
            if nu not in inner:
                continue
            new_inner_ops = tuple(x if s == nu else s for s in inner)
            hash_hit = not mig.maj_would_allocate(*new_inner_ops)
            removes_complement = algebra._variable_complements(
                new_inner_ops
            ) < algebra._variable_complements(inner)
            inner_dies = fanout_of is not None and fanout_of(w) <= 1
            if hash_hit or (removes_complement and inner_dies):
                new_inner = mig.add_maj(*new_inner_ops)
                return mig.add_maj(x, u, new_inner)
    return None


#: (name, original matcher, current matcher, takes fanout_of)
_MATCHERS = (
    ("D_rl", _old_distributivity_rl, algebra.try_distributivity_rl, True),
    ("A", _old_associativity, algebra.try_associativity, False),
    (
        "Psi_C",
        _old_complementary_associativity,
        algebra.try_complementary_associativity,
        True,
    ),
)


def _canonical_random_mig(num_pis, num_gates, seed):
    mig = make_random_mig(num_pis, num_gates, seed=seed, complement_prob=0.4)
    mig = PASSES["M"](mig)
    while mig.num_live_gates() != mig.num_gates:
        mig = PASSES["M"](mig)
    return mig


def _compare_matchers(mig, triples, fanout):
    """Run both matcher generations on *triples*; returns fires per rule.

    *fanout* is the constant ``fanout_of`` answer, or ``None`` for no
    callback.  Each pair of graphs starts as a clone of *mig* and is
    re-cloned after a fire, so every triple meets the same graph.
    """
    fanout_of = None if fanout is None else (lambda signal: fanout)
    fired = {name: 0 for name, *_ in _MATCHERS}
    old_mig, new_mig = mig.clone(), mig.clone()
    for triple in triples:
        for name, old, new, priced in _MATCHERS:
            kwargs = {"fanout_of": fanout_of} if priced else {}
            expected = old(old_mig, *triple, **kwargs)
            assert new(new_mig, *triple, **kwargs) == expected, (name, triple)
            assert new_mig._fanins == old_mig._fanins, (name, triple)
            assert new_mig._strash == old_mig._strash, (name, triple)
            if expected is not None:
                fired[name] += 1
                old_mig, new_mig = mig.clone(), mig.clone()
    return fired


class TestMatcherParity:
    """The rejects change nothing: same signal, same graph afterwards."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        num_pis=st.integers(min_value=2, max_value=5),
        gates=st.integers(min_value=1, max_value=40),
        fanout=st.sampled_from([1, 2, None]),
        data=st.data(),
    )
    def test_random_operand_triples(self, seed, num_pis, gates, fanout, data):
        mig = _canonical_random_mig(num_pis, gates, seed)
        # Every signal: constants, PIs and gates, either polarity.
        signal = st.integers(min_value=0, max_value=2 * mig.num_nodes - 1)
        triples = data.draw(
            st.lists(st.tuples(signal, signal, signal), max_size=60)
        )
        _compare_matchers(mig, triples, fanout)

    @pytest.mark.parametrize("fanout", [1, 2, None])
    def test_every_triple_of_small_graphs(self, fanout):
        fired = {name: 0 for name, *_ in _MATCHERS}
        for seed in range(4):
            mig = _canonical_random_mig(3, 16, seed)
            signals = range(2 * mig.num_nodes)
            for name, count in _compare_matchers(
                mig, product(signals, repeat=3), fanout
            ).items():
                fired[name] += count
        assert all(fired.values()), fired  # every rule fired somewhere
