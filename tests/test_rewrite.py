"""Tests for the rewrite engine and the two rewriting scripts."""

import hashlib
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.mig import algebra, rewrite as rewrite_module
from repro.mig.graph import Mig
from repro.opt import (
    ALGORITHM1_STEPS,
    ALGORITHM2_STEPS,
    rewrite,
    rewrite_dac16,
    rewrite_endurance_aware,
)
from repro.mig.rewrite import (
    PASSES,
    RebuildContext,
    _same_structure,
    apply_script,
    polarity_pass,
    rebuild,
    rm3_gate_cost,
)
from repro.mig.signal import apply_complement, complement, is_complemented, node_of
from repro.mig.simulate import equivalent
from repro.synth.arithmetic import build_adder
from repro.synth.control import build_dec
from repro.synth.registry import BENCHMARK_ORDER, build_benchmark
from .conftest import make_random_mig


class TestEngine:
    def test_rebuild_identity(self, small_random_mig):
        out = rebuild(small_random_mig)
        assert equivalent(small_random_mig, out)
        assert out.num_pis == small_random_mig.num_pis
        assert out.num_pos == small_random_mig.num_pos

    def test_rebuild_preserves_names(self, tiny_adder):
        out = rebuild(tiny_adder)
        assert out.pi_name(0) == tiny_adder.pi_name(0)
        assert out.po_name(0) == tiny_adder.po_name(0)

    def test_rebuild_drops_dead_nodes(self):
        mig = make_random_mig(5, 30, seed=2)
        # every live gate of the rebuild is reachable
        out = rebuild(mig)
        assert out.num_live_gates() == out.num_gates

    def test_apply_script_unknown_pass(self, small_random_mig):
        with pytest.raises(KeyError):
            apply_script(small_random_mig, ["M", "nope"])

    def test_apply_script_cycles(self, small_random_mig):
        one = apply_script(small_random_mig, ["M", "I_rl_1_3"], cycles=1)
        three = apply_script(small_random_mig, ["M", "I_rl_1_3"], cycles=3)
        assert equivalent(one, three)


class TestScripts:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_algorithm1_preserves_function(self, seed):
        mig = make_random_mig(6, 50, seed=seed)
        assert equivalent(mig, rewrite_dac16(mig, effort=2))

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_algorithm2_preserves_function(self, seed):
        mig = make_random_mig(6, 50, seed=seed)
        assert equivalent(mig, rewrite_endurance_aware(mig, effort=2))

    def test_scripts_differ_as_specified(self):
        # Algorithm 2 drops Psi.C and interleaves inverter propagation.
        assert "Psi_C" in ALGORITHM1_STEPS
        assert "Psi_C" not in ALGORITHM2_STEPS
        assert ALGORITHM2_STEPS.count("I_rl_1_3") == 2
        assert ALGORITHM2_STEPS[-1] == "I_rl"

    def test_rewrite_none_is_cleanup(self, small_random_mig):
        out = rewrite(small_random_mig, "none")
        assert equivalent(small_random_mig, out)
        assert out.num_gates == out.num_live_gates()

    def test_rewrite_unknown_script(self, small_random_mig):
        with pytest.raises(ValueError):
            rewrite(small_random_mig, "bogus")

    def test_rewriting_reduces_elaborated_adder(self):
        mig = build_adder(width=8, elaborated=True)
        before = mig.num_live_gates()
        after1 = rewrite_dac16(mig).num_live_gates()
        after2 = rewrite_endurance_aware(mig).num_live_gates()
        assert after1 < before
        assert after2 < before

    def test_rewriting_equivalence_on_benchmarks(self):
        for mig in (build_adder(width=4), build_dec(sel_bits=3)):
            assert equivalent(mig, rewrite_dac16(mig, effort=2))
            assert equivalent(mig, rewrite_endurance_aware(mig, effort=2))

    def test_algorithm2_reduces_complement_violations(self):
        """Algorithm 2 must leave no gate with 2+ variable complements
        (its final passes normalise them)."""
        mig = make_random_mig(6, 60, seed=123)
        out = rewrite_endurance_aware(mig, effort=1)
        hist = out.complement_histogram()
        # buckets 2 and 3 may only contain nodes whose complements are
        # constants; recount with the variable-only rule:
        for node in out.live_gates():
            count = sum(1 for s in out.fanins(node) if s > 1 and s & 1)
            assert count <= 1

    def test_effort_zero_is_identity_cleanup(self, small_random_mig):
        out = rewrite_dac16(small_random_mig, effort=0)
        assert equivalent(small_random_mig, out)


class TestRebuildContext:
    def test_translated_raises_for_untranslated_node(self):
        from repro.mig.rewrite import rebuild

        seen = {}

        def transform(new, ctx, node, children):
            if "probe" not in seen:
                seen["probe"] = True
                # the node currently being rebuilt has no translation yet
                with pytest.raises(KeyError):
                    ctx.translated(node << 1)
            return new.add_maj(*children)

        mig = make_random_mig(4, 10, seed=2)
        out = rebuild(mig, transform)
        assert seen["probe"]
        from repro.mig.simulate import equivalent

        assert equivalent(mig, out)


# ----------------------------------------------------------------------
# Pass parity: every pass against a plain rebuild loop
# ----------------------------------------------------------------------

def reference_rebuild(mig, transform=None, scan=None):
    """The plain rebuild: copy every live gate into a fresh graph.

    *scan* is accepted and ignored — every live gate is visited — so the
    parity tests check the probe's scans against code that has none.
    """
    new = Mig(mig.name)
    ctx = RebuildContext(mig)
    xlat = ctx.xlat
    xlat.extend([-1] * mig.num_nodes)
    xlat[0] = 0
    for idx, node in enumerate(mig.pis()):
        xlat[node] = new.add_pi(mig.pi_name(idx))
    for node in mig.live_gates():
        children = tuple(xlat[s >> 1] ^ (s & 1) for s in mig.fanins(node))
        result = None if transform is None else transform(new, ctx, node, children)
        xlat[node] = new.add_maj(*children) if result is None else result
    for idx, s in enumerate(mig.pos()):
        new.add_po(xlat[s >> 1] ^ (s & 1), mig.po_name(idx))
    return new


def reference_pass(name, mig):
    """``PASSES[name]`` with its transform run by :func:`reference_rebuild`.

    Runs on a clone: *mig* may carry the pass's no-op memo, which would
    answer without running the reference.
    """
    with mock.patch.object(rewrite_module, "rebuild", reference_rebuild):
        return PASSES[name](mig.clone())


def assert_pass_parity(mig):
    """Every pass matches the reference and returns *mig* exactly when
    the reference result equals it."""
    fingerprint = mig.content_fingerprint()
    for name, fn in PASSES.items():
        expected = reference_pass(name, mig).content_fingerprint()
        out = fn(mig)
        assert out.content_fingerprint() == expected, name
        assert (out is mig) == (expected == fingerprint), name
    assert mig.content_fingerprint() == fingerprint  # input untouched


def canonical(mig):
    """*mig* after Omega.M passes until no dead gate remains."""
    mig = PASSES["M"](mig)
    while mig.num_live_gates() != mig.num_gates:
        mig = PASSES["M"](mig)
    return mig


def non_canonical_graphs():
    """An interleaved-PI, a dead-gate and an unhashed graph.

    The dead-gate graph is a random canonical graph with one dead gate
    put in ahead of its other gates."""
    interleaved = Mig("interleaved")
    a, b = (interleaved.add_pi() for _ in range(2))
    gate = interleaved.add_maj(a, b ^ 1, 0)
    c = interleaved.add_pi("late")
    interleaved.add_po(interleaved.add_maj(gate, c, a))

    live = canonical(make_random_mig(6, 120, seed=5))
    dead = Mig("dead")
    xlat = [0]
    for idx in range(live.num_pis):
        xlat.append(dead.add_pi(live.pi_name(idx)))
    dead.add_maj(xlat[1], xlat[2] ^ 1, xlat[3] ^ 1)
    for node in live.gates():
        xlat.append(dead.add_maj(*(xlat[s >> 1] ^ (s & 1) for s in live.fanins(node))))
    for idx, s in enumerate(live.pos()):
        dead.add_po(xlat[s >> 1] ^ (s & 1), live.po_name(idx))

    unhashed = canonical(make_random_mig(5, 30, seed=11))
    elaborated = Mig(unhashed.name, use_strash=False)
    for idx in range(unhashed.num_pis):
        elaborated.add_pi(unhashed.pi_name(idx))
    for node in unhashed.gates():
        elaborated.add_maj(*unhashed.fanins(node))
    for idx, s in enumerate(unhashed.pos()):
        elaborated.add_po(s, unhashed.po_name(idx))
    return interleaved, dead, elaborated


class TestPassParity:
    @pytest.mark.parametrize("name", BENCHMARK_ORDER)
    def test_registry_benchmarks_after_one_cycle(self, name):
        source = build_benchmark(name, "tiny")
        assert_pass_parity(source)
        for steps in (ALGORITHM1_STEPS, ALGORITHM2_STEPS):
            assert_pass_parity(apply_script(source, steps))

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        gates=st.integers(min_value=1, max_value=60),
    )
    def test_random_canonical_graphs(self, seed, gates):
        mig = canonical(make_random_mig(5, gates, seed=seed, complement_prob=0.4))
        assert PASSES["M"](mig) is mig
        assert_pass_parity(mig)

    @staticmethod
    def _associativity_graph(probe_after):
        """``<x u <y u z>>`` plus the node ``<y u x>`` Omega.A probes for,
        built after the outer node when *probe_after* (both live)."""
        mig = Mig("assoc")
        x, u, y, z = (mig.add_pi() for _ in range(4))
        inner = mig.add_maj(y, u, z)
        if probe_after:
            outer = mig.add_maj(x, u, inner)
            probe = mig.add_maj(y, u, x)
        else:
            probe = mig.add_maj(y, u, x)
            outer = mig.add_maj(x, u, inner)
        mig.add_po(outer)
        mig.add_po(probe)
        return mig

    def test_strash_hit_beyond_the_prefix_does_not_fire(self):
        mig = self._associativity_graph(probe_after=True)
        calls = []

        def transform(new, ctx, node, children):
            calls.append(node)
            return algebra.try_associativity(new, *children)

        assert rebuild(mig, transform) is mig
        assert calls == list(mig.gates())  # no node re-run after a divergence
        assert_pass_parity(mig)

    def test_strash_hit_inside_the_prefix_fires(self):
        mig = self._associativity_graph(probe_after=False)
        out = PASSES["A"](mig)
        assert out is not mig
        assert equivalent(mig, out)
        assert_pass_parity(mig)

    @staticmethod
    def _transform_calls(name, mig):
        """Run ``PASSES[name]`` on *mig*, check its result against the
        reference, and return the nodes at which it called its transform
        (``None`` for ``M``, which has no transform)."""
        transform, scan = transform_and_scan(name, mig)
        calls = []
        counted = None
        if transform is not None:
            def counted(new, ctx, node, children):
                calls.append(node)
                return transform(new, ctx, node, children)

        out = rebuild(mig, counted, scan)
        assert out is not mig, (mig.name, name)
        assert out.content_fingerprint() == (
            reference_pass(name, mig).content_fingerprint()
        ), (mig.name, name)
        return None if transform is None else calls

    def test_dead_gate_inputs_take_the_scan_path(self):
        _, dead, _ = non_canonical_graphs()
        assert dead._is_ordered() and not dead._is_canonical()
        live_gates = dead.live_gates()
        live = dead.live_mask()
        for name in PASSES:
            calls = self._transform_calls(name, dead)
            if calls is None:
                continue
            _, scan = transform_and_scan(name, dead)
            candidates = [
                node for node in scan(dead._fanins, dead.num_pis + 1)
                if live[node]
            ]
            assert 2 * len(candidates) < len(live_gates), name
            assert set(candidates) <= set(calls), name
            assert len(calls) < len(live_gates), name

    def test_interleaved_and_unhashed_inputs_take_the_full_rebuild(self):
        interleaved, _, elaborated = non_canonical_graphs()
        for mig in (interleaved, elaborated):
            assert not mig._is_ordered()
            for name in PASSES:
                calls = self._transform_calls(name, mig)
                if calls is not None:
                    assert calls == mig.live_gates(), (mig.name, name)


# ----------------------------------------------------------------------
# Scan soundness: the probe skips only gates that cannot fire
# ----------------------------------------------------------------------

class _RecordingView(rewrite_module._PrefixView):
    """The probe's read-only view, noting every structural-hash lookup."""

    __slots__ = ("consulted",)

    def __init__(self, mig):
        super().__init__(mig)
        self.consulted = False

    def maj_would_allocate(self, a, b, c):
        self.consulted = True
        return super().maj_would_allocate(a, b, c)


def transform_and_scan(name, mig):
    """The ``(transform, scan)`` that ``PASSES[name]`` hands to
    :func:`rebuild` for *mig* (run on a clone: the no-op memo would
    answer without calling it)."""
    seen = {}

    def capture(graph, transform=None, scan=None):
        seen.update(transform=transform, scan=scan)
        return graph

    with mock.patch.object(rewrite_module, "rebuild", capture):
        PASSES[name](mig.clone())
    return seen["transform"], seen["scan"]


def assert_scans_sound(mig):
    """Every gate outside a pass's scan, probed alone on the read-only
    view, returns ``None`` before its matcher consults the structural
    hash or builds a node."""
    assert mig._is_canonical()
    first = mig.num_pis + 1
    fanins = mig._fanins
    for name in PASSES:
        transform, scan = transform_and_scan(name, mig)
        if transform is None:
            assert name == "M"  # a canonical input is its own Omega.M
            continue
        assert scan is not None, name
        candidates = list(scan(fanins, first))
        assert candidates == sorted(set(candidates)), name
        assert all(first <= node < mig.num_nodes for node in candidates), name
        for node in sorted(set(range(first, mig.num_nodes)) - set(candidates)):
            view = _RecordingView(mig)
            view.limit = node
            ctx = RebuildContext(mig)
            ctx.xlat.extend(range(0, node << 1, 2))
            try:
                result = transform(view, ctx, node, fanins[node])
            except rewrite_module._Diverged:
                pytest.fail(f"{name} builds at node {node} outside its scan")
            assert result is None, (name, node)
            assert not view.consulted, (name, node)


class TestScanSoundness:
    @pytest.mark.parametrize("name", BENCHMARK_ORDER)
    def test_registry_benchmarks_and_one_cycle(self, name):
        source = canonical(build_benchmark(name, "tiny"))
        assert_scans_sound(source)
        for steps in (ALGORITHM1_STEPS, ALGORITHM2_STEPS):
            assert_scans_sound(apply_script(source, steps))

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        gates=st.integers(min_value=1, max_value=60),
    )
    def test_random_canonical_graphs(self, seed, gates):
        assert_scans_sound(
            canonical(make_random_mig(5, gates, seed=seed, complement_prob=0.4))
        )

    def test_probe_calls_the_transform_only_at_candidates(self):
        mig = canonical(make_random_mig(5, 40, seed=3))
        calls = []

        def transform(new, ctx, node, children):
            calls.append((node, list(ctx.xlat), new.limit))
            return None

        candidates = list(range(mig.num_pis + 1, mig.num_nodes, 3))
        assert rebuild(mig, transform, lambda fanins, first: candidates) is mig
        assert [node for node, _, _ in calls] == candidates
        for node, xlat, limit in calls:
            assert limit == node
            assert xlat == list(range(0, node << 1, 2))


# ----------------------------------------------------------------------
# Incremental rebuild: after a firing, the transform runs only at the
# later candidates and next to dirty nodes
# ----------------------------------------------------------------------

def windowed_rebuild(mig, transform, scan, depth):
    """A rebuild that, once the transform has fired, calls it only at the
    scan's candidates and at nodes with a dirty node (one whose image is
    not a fresh node of its own translated fanins) at most *depth* fanin
    levels below.  An input with dead gates is not probed, so there the
    rule holds from the first gate on.  ``depth=2`` is :func:`rebuild`'s
    rule; smaller depths are the unsound mutants the parity checks must
    catch."""
    candidates = set(scan(mig._fanins, mig.num_pis + 1))
    new = Mig(mig.name)
    ctx = RebuildContext(mig)
    xlat = ctx.xlat
    xlat.extend([-1] * mig.num_nodes)
    xlat[0] = 0
    for idx, node in enumerate(mig.pis()):
        xlat[node] = new.add_pi(mig.pi_name(idx))
    # Bit k of below[node]: a dirty node k fanin levels below (0: itself).
    below = [0] * mig.num_nodes
    window = ((1 << (depth + 1)) - 1) & ~1
    fired = not mig._is_canonical()
    for node in mig.live_gates():
        fanins = mig.fanins(node)
        children = tuple(xlat[s >> 1] ^ (s & 1) for s in fanins)
        reach = 0
        for s in fanins:
            reach |= below[s >> 1] << 1
        result = None
        if not fired or node in candidates or reach & window:
            result = transform(new, ctx, node, children)
        if result is None:
            size = new.num_nodes
            result = new.add_maj(*children)
            dirty = new.num_nodes == size
        else:
            fired = dirty = True
        xlat[node] = result
        below[node] = (reach | dirty) & 0b111
    for idx, s in enumerate(mig.pos()):
        new.add_po(xlat[s >> 1] ^ (s & 1), mig.po_name(idx))
    return new


def structure(mig):
    return mig._fanins, mig._pis, mig._pos


class _RebuildParity:
    """Stands in for :func:`rebuild`: runs it and the call-everywhere
    reference on every call, and tallies the calls whose result differs
    from the reference's node for node.  On every scanned call that
    changed an ordered input (canonical, or with dead gates) it also
    runs the candidates-only mutant (depth 0), tallied per kind of
    input."""

    def __init__(self):
        self.calls = self.fired = 0
        self.mutant_mismatches = {"canonical": 0, "dead": 0}
        self.mismatches = []

    def __call__(self, mig, transform=None, scan=None):
        out = REAL_REBUILD(mig, transform, scan)
        self.calls += 1
        expected = structure(reference_rebuild(mig, transform))
        if structure(out) != expected:
            self.mismatches.append((mig.name, self.calls))
        if scan is not None and out is not mig and mig._is_ordered():
            self.fired += 1
            got = windowed_rebuild(mig, transform, scan, 0)
            kind = "canonical" if mig._is_canonical() else "dead"
            self.mutant_mismatches[kind] += structure(got) != expected
        return out

    def run(self, fn, *args):
        with mock.patch.object(rewrite_module, "rebuild", self):
            return fn(*args)


REAL_REBUILD = rewrite_module.rebuild


@pytest.fixture(scope="module")
def default_script_rebuilds():
    """The parity tally over every rebuild of both scripts on every
    default-preset registry benchmark."""
    parity = _RebuildParity()
    for name in BENCHMARK_ORDER:
        source = build_benchmark(name, "default")
        for script in ("dac16", "endurance"):
            parity.run(rewrite, source, script)
    return parity


class TestIncrementalRebuild:
    def test_default_preset_scripts_match_the_reference(
        self, default_script_rebuilds
    ):
        parity = default_script_rebuilds
        assert parity.calls > 700 and parity.fired > 100
        assert parity.mismatches == []

    def test_skipping_every_non_candidate_breaks_parity(
        self, default_script_rebuilds
    ):
        # The mutation check: a rebuild that, after firing, calls the
        # transform at the scan's candidates only.  (These scripts need
        # not tell the one-level rule from the two-level one;
        # test_grandchild_collision does.)  It must break on canonical
        # inputs and on the inputs a firing pass left dead gates in.
        mismatches = default_script_rebuilds.mutant_mismatches
        assert mismatches["canonical"] > 0 and mismatches["dead"] > 0

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        gates=st.integers(min_value=1, max_value=80),
        script=st.sampled_from(["dac16", "endurance"]),
    )
    def test_random_canonical_graphs_under_every_pass(self, seed, gates, script):
        mig = canonical(make_random_mig(5, gates, seed=seed, complement_prob=0.4))
        parity = _RebuildParity()
        for name in PASSES:
            parity.run(PASSES[name], mig.clone())
        parity.run(rewrite, mig, script, 3)
        assert parity.mismatches == []

    def test_grandchild_collision(self):
        """``n = <x u w>`` over ``w = <y z g>``: once ``g``'s image is
        ``u``, ``w``'s image holds ``u`` and Omega.A fires at ``n``
        through ``<y u x>``.  Every child of ``n`` is clean (``w`` is a
        fresh node), so only the grandchild says ``n`` must be re-matched."""
        mig = Mig("collide")
        x, u, y, z, p, q, r = (mig.add_pi() for _ in range(7))
        probe = mig.add_maj(y, u, x)
        g = mig.add_maj(p, q, r)
        w = mig.add_maj(y, z, g)
        n = mig.add_maj(x, u, w)
        mig.add_po(probe)
        mig.add_po(n)
        assert mig._is_canonical()

        def transform(new, ctx, node, children):
            if node == g >> 1:
                return u  # g's image collides with an operand of n
            return algebra.try_associativity(new, *children)

        def scan(fanins, first):
            return sorted({g >> 1, *algebra.associativity_scan(fanins, first)})

        assert n >> 1 not in scan(mig._fanins, mig.num_pis + 1)
        expected = structure(reference_rebuild(mig, transform))
        assert structure(rebuild(mig, transform, scan)) == expected
        assert structure(windowed_rebuild(mig, transform, scan, 2)) == expected
        assert structure(windowed_rebuild(mig, transform, scan, 1)) != expected
        # Omega.A fired at n: the reference outputs <z u <y u x>>.
        out = reference_rebuild(mig, transform)
        assert out.fanins(out.pos()[1] >> 1) == (u, z, probe)


# ----------------------------------------------------------------------
# Default-preset pin: the scripts' outputs at the harness scale
# ----------------------------------------------------------------------

#: SHA-256 over the content fingerprints of
#: ``rewrite(build_benchmark(name, "default"), script)`` for every
#: registry benchmark (registry order) and script ``dac16``, then
#: ``endurance`` — recorded before the probe scans existed.
DEFAULT_REWRITE_DIGEST = (
    "a2f68518c80e21a35987a612ddf463ffdf2f78d838da8429b4941ff2393d4045"
)


def test_default_preset_rewrites_are_pinned():
    digest = hashlib.sha256()
    for name in BENCHMARK_ORDER:
        source = build_benchmark(name, "default")
        for script in ("dac16", "endurance"):
            digest.update(rewrite(source, script).content_fingerprint().encode())
    assert digest.hexdigest() == DEFAULT_REWRITE_DIGEST


# ----------------------------------------------------------------------
# Polarity pass: table-driven deltas against the closure loop
# ----------------------------------------------------------------------

def reference_polarity_pass(
    mig, *, q_invert=2, p_invert=2, z_copy=2, z_const=1, sweeps=4,
    strict=True,
):
    """The polarity search priced gate by gate with :func:`rm3_gate_cost`:
    toggle, re-sum the gate and its consumers, toggle back unless the
    sum dropped (or, with ``strict=False``, did not rise).  The
    reference for :func:`polarity_pass`'s table lookups."""
    gates = mig.flat_gates()
    refs = mig.fanout_counts()
    is_gate = mig.is_gate
    fanin_bits = {}
    consumers = {}
    for node, na, xa, nb, xb, nc, xc in gates:
        fanin_bits[node] = [[na, xa & 1], [nb, xb & 1], [nc, xc & 1]]
        for slot, child in enumerate((na, nb, nc)):
            consumers.setdefault(child, []).append((node, slot))

    def gate_cost(node):
        return rm3_gate_cost(
            fanin_bits[node], refs, is_gate,
            q_invert=q_invert, p_invert=p_invert,
            z_copy=z_copy, z_const=z_const,
        )

    def toggle(node):
        for entry in fanin_bits[node]:
            entry[1] ^= 1
        for consumer, slot in consumers.get(node, ()):
            fanin_bits[consumer][slot][1] ^= 1

    flipped = {}
    order = [record[0] for record in gates]
    for _ in range(max(1, sweeps)):
        changed = False
        for node in order:
            affected = {node}
            affected.update(c for c, _ in consumers.get(node, ()))
            before = sum(gate_cost(g) for g in affected)
            toggle(node)
            after = sum(gate_cost(g) for g in affected)
            if after < before or (not strict and after == before):
                flipped[node] = flipped.get(node, 0) ^ 1
                changed = True
            else:
                toggle(node)
        if not changed:
            break

    def transform(new, ctx, node, children):
        if flipped.get(node):
            return complement(new.add_maj(*(complement(s) for s in children)))
        return None

    def scan(fanins, first):
        return sorted(node for node, bit in flipped.items() if bit)

    return rebuild(mig, transform, scan)


POLARITY_WEIGHTS = ({}, {"q_invert": 1}, {"z_copy": 3, "z_const": 0})


class TestPolarityParity:
    @pytest.mark.parametrize("name", BENCHMARK_ORDER)
    def test_tiny_benchmarks(self, name):
        source = build_benchmark(name, "tiny")
        for graph in (source, apply_script(source, ALGORITHM2_STEPS)):
            for weights in POLARITY_WEIGHTS:
                assert _same_structure(
                    polarity_pass(graph, **weights),
                    reference_polarity_pass(graph, **weights),
                ), weights

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        gates=st.integers(min_value=1, max_value=80),
    )
    def test_random_graphs(self, seed, gates):
        mig = make_random_mig(7, gates, seed=seed, complement_prob=0.4)
        for weights in POLARITY_WEIGHTS:
            assert _same_structure(
                polarity_pass(mig, **weights),
                reference_polarity_pass(mig, **weights),
            ), weights

    def test_a_non_strict_reference_differs(self):
        """The parity tests can fail: committing zero-delta flips too
        changes the result on some graph."""
        assert any(
            not _same_structure(
                polarity_pass(graph), reference_polarity_pass(graph, strict=False)
            )
            for graph in (
                build_benchmark(name, "tiny") for name in BENCHMARK_ORDER
            )
        )


# ----------------------------------------------------------------------
# The per-graph no-op memo of the PASSES entries
# ----------------------------------------------------------------------

def fixed_point(name, mig):
    """*mig* after ``PASSES[name]`` until the pass returns its input,
    as a fresh clone (no memo)."""
    for _ in range(20):
        out = PASSES[name](mig)
        if out is mig:
            return mig.clone()
        mig = out
    raise AssertionError(f"{name} did not converge")


class TestNoopMemo:
    @staticmethod
    def _graph():
        return canonical(make_random_mig(5, 40, seed=3))

    @pytest.mark.parametrize("name", list(PASSES))
    def test_second_call_skips_the_transform(self, name):
        mig = fixed_point(name, self._graph())
        with mock.patch.object(
            rewrite_module, "rebuild", wraps=rewrite_module.rebuild
        ) as spy:
            assert PASSES[name](mig) is mig
            assert spy.call_count == 1
            assert PASSES[name](mig) is mig
            assert spy.call_count == 1
        assert mig._derived[("noop", name)] is True

    def test_memo_is_per_pass(self):
        mig = fixed_point("D_rl", self._graph())
        assert PASSES["D_rl"](mig) is mig
        with mock.patch.object(
            rewrite_module, "rebuild", wraps=rewrite_module.rebuild
        ) as spy:
            PASSES["M"](mig)
        assert spy.call_count == 1

    def test_a_changing_pass_leaves_no_memo(self):
        mig = self._graph()
        out = PASSES["A"](mig)
        assert out is not mig
        assert ("noop", "A") not in mig._derived
        assert ("noop", "A") not in out._derived

    @pytest.mark.parametrize("mutation", ["add_maj", "add_po"])
    def test_mutation_clears_the_memo(self, mutation):
        mig = fixed_point("D_rl", self._graph())
        assert PASSES["D_rl"](mig) is mig
        top = mig.num_nodes - 1
        if mutation == "add_maj":
            before = mig.num_nodes
            mig.add_maj(top << 1, 2, 4)  # nothing can hold the last node yet
            assert mig.num_nodes == before + 1
        else:
            mig.add_po(top << 1 ^ 1)
        assert ("noop", "D_rl") not in mig._derived
        with mock.patch.object(
            rewrite_module, "rebuild", wraps=rewrite_module.rebuild
        ) as spy:
            out = PASSES["D_rl"](mig)
        assert spy.call_count == 1
        assert out.content_fingerprint() == (
            reference_pass("D_rl", mig).content_fingerprint()
        )

    def test_pickled_copy_comes_back_without_the_memo(self):
        import pickle

        mig = fixed_point("D_rl", self._graph())
        assert PASSES["D_rl"](mig) is mig
        back = pickle.loads(pickle.dumps(mig))
        assert ("noop", "D_rl") not in back._derived
        with mock.patch.object(
            rewrite_module, "rebuild", wraps=rewrite_module.rebuild
        ) as spy:
            assert PASSES["D_rl"](back) is back
        assert spy.call_count == 1


# ----------------------------------------------------------------------
# Mig.cleanup: a canonical graph is cloned, not rebuilt
# ----------------------------------------------------------------------

def node_by_node_cleanup(mig):
    """:meth:`Mig.cleanup` forced down its node-by-node path."""
    with mock.patch.object(Mig, "_is_canonical", lambda self: False):
        return mig.cleanup()


def reference_cleanup(mig):
    """The node-by-node cleanup loop written with the signal helpers, one
    call per fanin: the reference for :meth:`Mig.cleanup`'s inline
    translation."""
    live = mig.live_mask()
    other = Mig(mig.name, use_strash=mig.use_strash)
    xlat = [0] * mig.num_nodes
    for idx, node in enumerate(mig.pis()):
        xlat[node] = other.add_pi(mig.pi_name(idx))
    for node in range(1, mig.num_nodes):
        if not mig.is_gate(node) or not live[node]:
            continue
        children = tuple(
            apply_complement(xlat[node_of(s)], is_complemented(s))
            for s in mig.fanins(node)
        )
        xlat[node] = other.add_maj(*children)
    for idx, s in enumerate(mig.pos()):
        other.add_po(
            apply_complement(xlat[node_of(s)], is_complemented(s)),
            mig.po_name(idx),
        )
    return other


def assert_same_graph(got, expected):
    for attr in (
        "name", "use_strash", "_fanins", "_pi_index", "_pis", "_pi_names",
        "_pos", "_po_names", "_strash",
    ):
        assert getattr(got, attr) == getattr(expected, attr), attr


class TestCanonicalCleanup:
    @pytest.mark.parametrize("name", BENCHMARK_ORDER)
    def test_tiny_benchmarks_after_each_script(self, name):
        source = build_benchmark(name, "tiny")
        for steps in (ALGORITHM1_STEPS, ALGORITHM2_STEPS):
            graph = source
            for _ in range(5):
                for step in steps:
                    graph = PASSES[step](graph)
            assert graph._is_canonical()
            out = graph.cleanup()
            assert out is not graph
            assert_same_graph(out, node_by_node_cleanup(graph))

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        gates=st.integers(min_value=0, max_value=60),
    )
    def test_random_canonical_graphs(self, seed, gates):
        mig = canonical(make_random_mig(5, gates, seed=seed))
        assert mig._is_canonical()
        assert_same_graph(mig.cleanup(), node_by_node_cleanup(mig))

    @pytest.mark.parametrize("name", BENCHMARK_ORDER)
    def test_elaborated_sources_match_the_reference_loop(self, name):
        source = build_benchmark(name, "tiny")
        assert not source.use_strash
        assert_same_graph(source.cleanup(), reference_cleanup(source))

    def test_non_canonical_inputs_still_rebuild(self):
        interleaved, dead, elaborated = non_canonical_graphs()
        with mock.patch.object(
            Mig, "clone", side_effect=AssertionError("cloned")
        ):
            for mig in (interleaved, dead, elaborated):
                assert not mig._is_canonical()
                mig.cleanup()
            assert interleaved.cleanup().pis() == [1, 2, 3]
            assert dead.cleanup().num_gates == dead.num_gates - 1
