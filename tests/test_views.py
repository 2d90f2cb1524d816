"""Tests for fanout/level views used by node selection."""

from repro.mig.graph import Mig
from repro.mig.signal import complement, node_of
from repro.mig.views import FanoutView


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
        assert view.fanouts[node_of(sigs["b"])] == (node_of(sigs["d"]),)
        assert sorted(view.fanouts[node_of(sigs["c"])]) == sorted(
            [node_of(sigs["d"]), node_of(sigs["e"])]
        )

    def test_fanout_level_index_blocked_node(self):
        mig, sigs = build_fig2_like()
        view = FanoutView(mig)
        # A is consumed by G at level 4: long storage duration.
        a_idx = view.fanout_level_index(node_of(sigs["a"]))
        b_idx = view.fanout_level_index(node_of(sigs["b"]))
        assert a_idx > b_idx

    def test_po_nodes_pinned_to_end(self):
        mig, sigs = build_fig2_like()
        view = FanoutView(mig)
        g_idx = view.fanout_level_index(node_of(sigs["g"]))
        assert g_idx == view.depth + 1

    def test_min_aggregate(self):
        mig, sigs = build_fig2_like()
        view = FanoutView(mig)
        c_node = node_of(sigs["c"])
        assert view.fanout_level_index(c_node, "min") <= view.fanout_level_index(
            c_node, "max"
        )

    def test_bad_aggregate(self):
        mig, _ = build_fig2_like()
        view = FanoutView(mig)
        try:
            view.fanout_level_index(1, "median")
            assert False, "expected ValueError"
        except ValueError:
            pass

    def test_single_fanout_nodes(self):
        mig, sigs = build_fig2_like()
        view = FanoutView(mig)
        singles = set(view.single_fanout_nodes())
        assert node_of(sigs["a"]) in singles
        assert node_of(sigs["c"]) not in singles

    def test_level_spread_counts_blocked(self):
        mig, sigs = build_fig2_like()
        view = FanoutView(mig)
        spread = view.level_spread()
        assert sum(spread.values()) > 0
        assert max(spread) >= 3  # A's spread: produced L1, consumed L4

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
