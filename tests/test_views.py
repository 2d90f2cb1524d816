"""Tests for fanout/level views used by node selection."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mig.graph import Mig
from repro.mig.signal import complement, make_signal, node_of
from repro.mig.views import FanoutView
from repro.synth.registry import BENCHMARK_ORDER, build_benchmark
from .conftest import make_random_mig


def build_fig2_like():
    """A is consumed only at the root; B, C immediately."""
    mig = Mig()
    x = [mig.add_pi(f"x{i}") for i in range(6)]
    a = mig.add_maj(x[0], x[1], complement(x[2]))
    b = mig.add_maj(x[1], x[2], x[3])
    c = mig.add_maj(x[3], x[4], x[5])
    d = mig.add_maj(b, c, x[0])
    e = mig.add_maj(c, x[4], complement(x[5]))
    f = mig.add_maj(d, e, x[1])
    g = mig.add_maj(a, f, complement(x[3]))
    mig.add_po(g, "g")
    return mig, dict(a=a, b=b, c=c, d=d, e=e, f=f, g=g)


class TestFanoutView:
    def test_ref_counts(self):
        mig, sigs = build_fig2_like()
        view = FanoutView(mig)
        assert view.ref_counts[node_of(sigs["c"])] == 2  # d and e
        assert view.ref_counts[node_of(sigs["a"])] == 1  # g only
        assert view.ref_counts[node_of(sigs["g"])] == 1  # the PO

    def test_fanout_lists(self):
        mig, sigs = build_fig2_like()
        view = FanoutView(mig)
        assert view.fanouts[node_of(sigs["b"])] == [node_of(sigs["d"])]
        assert sorted(view.fanouts[node_of(sigs["c"])]) == sorted(
            [node_of(sigs["d"]), node_of(sigs["e"])]
        )

    def test_fanout_level_index_blocked_node(self):
        mig, sigs = build_fig2_like()
        view = FanoutView(mig)
        # A is consumed by G at level 4: long storage duration.
        a_idx = view.fanout_level_index[node_of(sigs["a"])]
        b_idx = view.fanout_level_index[node_of(sigs["b"])]
        assert a_idx > b_idx

    def test_po_nodes_pinned_to_end(self):
        mig, sigs = build_fig2_like()
        view = FanoutView(mig)
        g_idx = view.fanout_level_index[node_of(sigs["g"])]
        assert g_idx == view.depth + 1

    def test_dead_gate_excluded(self):
        mig = Mig()
        a, b, c = (mig.add_pi() for _ in range(3))
        dead = mig.add_maj(a, b, c)
        live = mig.add_maj(a, b, complement(c))
        mig.add_po(live)
        view = FanoutView(mig)
        assert view.ref_counts[node_of(dead)] == 0
        # a and b are used by the live gate only
        assert view.ref_counts[node_of(a)] == 1


def assert_view_matches_definitions(mig):
    """The one-sweep view equals the per-node definitions: live consumers
    once per reference, references from live gates and outputs, and the
    level of the last live consumer with output drivers pinned at
    ``depth + 1``."""
    view = FanoutView(mig)
    levels = mig.levels()
    live = mig.live_gates()
    outputs = [node_of(s) for s in mig.pos()]
    depth = max((levels[node] for node in outputs), default=0)
    assert view.depth == depth
    for node in range(mig.num_nodes):
        readers = [
            gate for gate in live
            for signal in mig.fanins(gate) if node_of(signal) == node
        ]
        assert view.fanouts[node] == readers
        assert view.ref_counts[node] == len(readers) + outputs.count(node)
        if node in outputs:
            assert view.fanout_level_index[node] == depth + 1
        else:
            assert view.fanout_level_index[node] == max(
                (levels[gate] for gate in readers), default=0
            )
    return view


class TestFanoutLevelIndices:
    @pytest.mark.parametrize("name", BENCHMARK_ORDER)
    def test_registry_benchmarks(self, name):
        assert_view_matches_definitions(build_benchmark(name, "tiny"))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        gates=st.integers(min_value=1, max_value=60),
        use_strash=st.booleans(),
        po_on_inputs=st.booleans(),
    )
    def test_random_graphs(self, seed, gates, use_strash, po_on_inputs):
        mig = make_random_mig(
            4, gates, seed=seed, complement_prob=0.4, use_strash=use_strash
        )
        spare = mig.add_pi("spare")
        dead = mig.add_maj(spare, make_signal(mig.pis()[0]), 1)
        # The first output again, plain and complemented.
        mig.add_po(mig.pos()[0], "again")
        mig.add_po(complement(mig.pos()[0]), "again_n")
        if po_on_inputs:
            # A PO driven by an input that also feeds gates, and one
            # driven by the constant node.
            mig.add_po(complement(make_signal(mig.pis()[0])), "pi0")
            mig.add_po(1, "one")
        view = assert_view_matches_definitions(mig)
        assert not view.fanouts[node_of(spare)]
        assert not view.fanouts[node_of(dead)]
        assert view.ref_counts[node_of(spare)] == 0
        assert view.fanout_level_index[node_of(spare)] == 0


class TestGraphLifetime:
    def test_graph_with_a_view_is_freed_without_the_cyclic_collector(self):
        import gc
        import weakref

        mig, _ = build_fig2_like()
        mig.fanout_view()
        ref = weakref.ref(mig)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del mig
            assert ref() is None
        finally:
            if enabled:
                gc.enable()
