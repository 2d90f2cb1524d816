"""Unit tests for the Mig data structure."""

import pytest

from repro.mig.graph import Mig
from repro.mig.signal import CONST0, CONST1, complement, node_of
from repro.mig.simulate import truth_tables
from .conftest import make_random_mig


@pytest.fixture
def abc_mig():
    mig = Mig("abc")
    a, b, c = mig.add_pi("a"), mig.add_pi("b"), mig.add_pi("c")
    return mig, a, b, c


class TestConstruction:
    def test_empty(self):
        mig = Mig()
        assert mig.num_pis == 0
        assert mig.num_pos == 0
        assert mig.num_gates == 0
        assert mig.num_nodes == 1  # the constant node

    def test_pi_names(self, abc_mig):
        mig, *_ = abc_mig
        assert [mig.pi_name(i) for i in range(3)] == ["a", "b", "c"]

    def test_maj_allocates(self, abc_mig):
        mig, a, b, c = abc_mig
        f = mig.add_maj(a, b, c)
        assert mig.num_gates == 1
        assert mig.is_gate(node_of(f))

    def test_po_returns_index(self, abc_mig):
        mig, a, b, c = abc_mig
        assert mig.add_po(a, "f") == 0
        assert mig.add_po(b) == 1
        assert mig.po_name(1) == "po1"

    def test_bad_signal_rejected(self, abc_mig):
        mig, *_ = abc_mig
        with pytest.raises(ValueError):
            mig.add_maj(2, 4, 999)
        with pytest.raises(ValueError):
            mig.add_po(999)

    def test_fanins_of_non_gate_raises(self, abc_mig):
        mig, a, *_ = abc_mig
        with pytest.raises(ValueError):
            mig.fanins(node_of(a))


class TestCreationIdentities:
    """Omega.M is applied at creation time."""

    def test_two_equal_operands_decide(self, abc_mig):
        mig, a, b, c = abc_mig
        assert mig.add_maj(a, a, c) == a
        assert mig.add_maj(a, c, a) == a
        assert mig.add_maj(c, a, a) == a
        assert mig.num_gates == 0

    def test_complementary_pair_forwards_third(self, abc_mig):
        mig, a, b, c = abc_mig
        assert mig.add_maj(a, complement(a), c) == c
        assert mig.add_maj(c, a, complement(a)) == c
        assert mig.num_gates == 0

    def test_constant_pairs(self, abc_mig):
        mig, a, b, c = abc_mig
        assert mig.add_maj(CONST0, CONST1, c) == c  # complements
        assert mig.add_maj(CONST0, CONST0, c) == CONST0
        assert mig.add_maj(CONST1, CONST1, c) == CONST1

    def test_equal_complemented_operands(self, abc_mig):
        mig, a, b, c = abc_mig
        na = complement(a)
        assert mig.add_maj(na, na, c) == na


class TestStructuralHashing:
    def test_commutative_sharing(self, abc_mig):
        mig, a, b, c = abc_mig
        f1 = mig.add_maj(a, b, c)
        f2 = mig.add_maj(c, a, b)
        f3 = mig.add_maj(b, c, a)
        assert f1 == f2 == f3
        assert mig.num_gates == 1

    def test_different_polarity_not_shared(self, abc_mig):
        mig, a, b, c = abc_mig
        f1 = mig.add_maj(a, b, c)
        f2 = mig.add_maj(complement(a), b, c)
        assert f1 != f2
        assert mig.num_gates == 2

    def test_strash_disabled_duplicates(self):
        mig = Mig(use_strash=False)
        a, b, c = mig.add_pi(), mig.add_pi(), mig.add_pi()
        f1 = mig.add_maj(a, b, c)
        f2 = mig.add_maj(a, b, c)
        assert f1 != f2
        assert mig.num_gates == 2

    def test_maj_would_allocate(self, abc_mig):
        mig, a, b, c = abc_mig
        assert mig.maj_would_allocate(a, b, c)
        mig.add_maj(a, b, c)
        assert not mig.maj_would_allocate(a, b, c)
        assert not mig.maj_would_allocate(a, a, c)  # identity
        assert not mig.maj_would_allocate(a, complement(a), c)


class TestGateHelpers:
    def test_and_or_truth(self):
        mig = Mig()
        a, b = mig.add_pi("a"), mig.add_pi("b")
        mig.add_po(mig.add_and(a, b), "and")
        mig.add_po(mig.add_or(a, b), "or")
        mig.add_po(mig.add_xor(a, b), "xor")
        mig.add_po(mig.add_nand(a, b), "nand")
        mig.add_po(complement(mig.add_or(a, b)), "nor")
        mig.add_po(mig.add_xnor(a, b), "xnor")
        tables = truth_tables(mig)
        # variable order: a is bit0 of the minterm index; patterns 0..3
        assert tables[0] == 0b1000  # and
        assert tables[1] == 0b1110  # or
        assert tables[2] == 0b0110  # xor
        assert tables[3] == 0b0111  # nand
        assert tables[4] == 0b0001  # nor
        assert tables[5] == 0b1001  # xnor

    def test_mux(self):
        mig = Mig()
        s, t, e = mig.add_pi("s"), mig.add_pi("t"), mig.add_pi("e")
        mig.add_po(mig.add_mux(s, t, e), "f")
        (table,) = truth_tables(mig)
        for m in range(8):
            s_v, t_v, e_v = m & 1, (m >> 1) & 1, (m >> 2) & 1
            expected = t_v if s_v else e_v
            assert (table >> m) & 1 == expected

    def test_maj_n_equals_majority(self):
        mig = Mig()
        xs = [mig.add_pi(f"x{i}") for i in range(5)]
        mig.add_po(mig.add_maj_n(xs), "f")
        (table,) = truth_tables(mig)
        for m in range(32):
            expected = 1 if bin(m).count("1") >= 3 else 0
            assert (table >> m) & 1 == expected

    def test_maj_n_rejects_even(self):
        mig = Mig()
        xs = [mig.add_pi() for _ in range(4)]
        with pytest.raises(ValueError):
            mig.add_maj_n(xs)

    def test_maj_n_single(self):
        mig = Mig()
        x = mig.add_pi()
        assert mig.add_maj_n([x]) == x


class TestTraversal:
    def test_levels_and_depth(self):
        mig = Mig()
        a, b, c, d = (mig.add_pi() for _ in range(4))
        f = mig.add_maj(a, b, c)
        g = mig.add_maj(f, c, d)
        mig.add_po(g)
        levels = mig.levels()
        assert levels[node_of(f)] == 1
        assert levels[node_of(g)] == 2
        assert mig.depth() == 2

    def test_live_mask_excludes_dead(self):
        mig = Mig()
        a, b, c = (mig.add_pi() for _ in range(3))
        dead = mig.add_maj(a, b, c)
        live = mig.add_maj(a, b, complement(c))
        mig.add_po(live)
        mask = mig.live_mask()
        assert not mask[node_of(dead)]
        assert mask[node_of(live)]
        assert mask[0] and mask[node_of(a)]  # constant and PIs stay live

    def test_fanout_counts(self):
        mig = Mig()
        a, b, c = (mig.add_pi() for _ in range(3))
        f = mig.add_maj(a, b, c)
        g = mig.add_maj(f, a, complement(b))
        mig.add_po(g)
        mig.add_po(f)
        counts = mig.fanout_counts()
        assert counts[node_of(f)] == 2  # used by g and one PO
        assert counts[node_of(a)] == 2
        assert counts[node_of(g)] == 1

    @pytest.mark.parametrize("seed", [1, 7, 23])
    @pytest.mark.parametrize("include_pos", [True, False])
    def test_fanout_counts_match_the_flat_records(self, seed, include_pos):
        dead = make_random_mig(6, 60, seed=seed)
        assert dead.num_live_gates() < dead.num_gates
        for mig in (dead, dead.cleanup()):
            expected = [0] * mig.num_nodes
            for _, na, _, nb, _, nc, _ in mig.flat_gates():
                expected[na] += 1
                expected[nb] += 1
                expected[nc] += 1
            if include_pos:
                for s in mig.pos():
                    expected[node_of(s)] += 1
            # With the flat records built, counting reads them ...
            assert mig.fanout_counts(include_pos) == expected
            # ... and without them, the fanin table (building none).
            fresh = mig.clone()
            assert fresh.fanout_counts(include_pos) == expected
            assert "flat_gates" not in fresh._derived

    def test_complement_histogram(self):
        mig = Mig()
        a, b, c = (mig.add_pi() for _ in range(3))
        n0 = mig.add_maj(a, b, c)
        n1 = mig.add_maj(complement(a), b, c)
        n3 = mig.add_maj(complement(a), complement(b), complement(c))
        mig.add_po(n0)
        mig.add_po(n1)
        mig.add_po(n3)
        assert mig.complement_histogram() == [1, 1, 0, 1]


class TestCopying:
    def test_clone_independent(self, abc_mig):
        mig, a, b, c = abc_mig
        mig.add_po(mig.add_maj(a, b, c))
        other = mig.clone()
        other.add_pi("extra")
        assert other.num_pis == mig.num_pis + 1

    def test_cleanup_drops_dead_gates(self):
        mig = Mig()
        a, b, c = (mig.add_pi() for _ in range(3))
        mig.add_maj(a, b, c)  # dead
        mig.add_po(mig.add_maj(a, b, complement(c)))
        cleaned = mig.cleanup()
        assert cleaned.num_gates == 1
        assert cleaned.num_pis == 3  # PIs preserved

    def test_cleanup_preserves_function(self, small_random_mig):
        from repro.mig.simulate import equivalent

        cleaned = small_random_mig.cleanup()
        assert equivalent(small_random_mig, cleaned)

    def test_cleanup_preserves_strash_mode(self):
        mig = Mig(use_strash=False)
        a, b, c = (mig.add_pi() for _ in range(3))
        mig.add_po(mig.add_maj(a, b, c))
        mig.add_po(mig.add_maj(a, b, c))
        cleaned = mig.cleanup()
        assert not cleaned.use_strash
        assert cleaned.num_gates == 2  # duplicates kept

    def test_dump_contains_structure(self, abc_mig):
        mig, a, b, c = abc_mig
        mig.add_po(mig.add_maj(a, b, complement(c)), "f")
        text = mig.dump()
        assert "input a" in text
        assert "output f" in text
        assert "~" in text


class TestMemoization:
    """Derived traversal state is cached and invalidated on mutation."""

    def _build(self):
        mig = Mig()
        a, b, c = mig.add_pi("a"), mig.add_pi("b"), mig.add_pi("c")
        mig.add_po(mig.add_maj(a, b, c), "f")
        return mig, (a, b, c)

    def test_derived_state_is_cached(self):
        mig, _ = self._build()
        assert mig._live_mask() is mig._live_mask()
        assert mig.flat_gates() is mig.flat_gates()
        assert mig.fanout_view() is mig.fanout_view()

    def test_public_views_are_defensive_copies(self):
        mig, _ = self._build()
        mig.live_mask()[0] = False
        counts = mig.fanout_counts()
        counts[0] += 99
        assert mig.live_mask()[0] is True
        assert mig.fanout_counts() != counts

    def test_add_maj_invalidates(self):
        mig, (a, b, c) = self._build()
        before = mig.flat_gates()
        assert mig.num_live_gates() == 1
        g = mig.add_maj(a, complement(b), c)
        mig.add_po(g, "g")
        after = mig.flat_gates()
        assert after is not before
        assert len(after) == 2
        assert mig.num_live_gates() == 2

    def test_add_po_invalidates_liveness(self):
        mig, (a, b, c) = self._build()
        dead = mig.add_maj(a, complement(b), complement(c))
        node = dead >> 1
        assert not mig.live_mask()[node]  # dead: no PO reaches it
        mig.add_po(dead, "g")
        assert mig.live_mask()[node]
        assert mig.fanout_counts()[node] == 1

    def test_add_pi_invalidates(self):
        mig, _ = self._build()
        n_before = len(mig.live_mask())
        mig.add_pi("late")
        assert len(mig.live_mask()) == n_before + 1

    def test_non_allocating_add_maj_keeps_cache(self):
        mig, (a, b, c) = self._build()
        cached = mig.flat_gates()
        assert mig.add_maj(a, b, c) == mig.add_maj(b, a, c)  # strash hit
        assert mig.add_maj(a, a, b) == a  # Omega.M identity
        assert mig.flat_gates() is cached

    def test_simulation_consistent_across_mutation(self):
        mig, (a, b, c) = self._build()
        from repro.mig.simulate import truth_tables

        assert truth_tables(mig) == [0b11101000]
        mig.add_po(mig.add_xor(a, b), "x")
        assert truth_tables(mig) == [0b11101000, 0b01100110]

    def test_pickle_drops_derived_state(self):
        import pickle

        mig = Mig()
        a, b, c = mig.add_pi("a"), mig.add_pi("b"), mig.add_pi("c")
        mig.add_po(mig.add_maj(a, b, c), "f")
        mig.flat_gates()
        mig.fanout_view()
        assert mig._derived
        back = pickle.loads(pickle.dumps(mig))
        assert back._derived == {}  # receivers rebuild derived state
        assert back.flat_gates() == mig.flat_gates()
        assert back._fanins == mig._fanins

    def test_strash_key_agreement_with_probe(self):
        # add_maj's inline canonicalization and maj_would_allocate's
        # sorted_fanins() probe must key the same strash table.
        mig = Mig()
        a, b, c = mig.add_pi(), mig.add_pi(), mig.add_pi()
        for ops in [(a, b, c), (complement(c), b, a), (b, complement(a), c)]:
            assert mig.maj_would_allocate(*ops)
            sig = mig.add_maj(*ops)
            for perm in [(ops[2], ops[0], ops[1]), (ops[1], ops[2], ops[0])]:
                assert not mig.maj_would_allocate(*perm)
                assert mig.add_maj(*perm) == sig
