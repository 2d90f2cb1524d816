"""Tests for the pluggable simulation kernels (repro.mig.kernel)."""

import random

import pytest

from repro.mig import kernel
from repro.mig.graph import Mig
from repro.mig.signal import complement
from repro.mig.simulate import (
    equivalent,
    exhaustive_words,
    find_counterexample,
    randomized_rounds,
    simulate,
    truth_tables,
)
from .conftest import make_random_mig

needs_numpy = pytest.mark.skipif(
    not kernel.numpy_available(), reason="numpy not installed"
)


@pytest.fixture(autouse=True)
def _reset_backend():
    """Leave no backend override behind, whatever a test does."""
    yield
    kernel.set_backend(None)


class TestSelection:
    def test_bigint_always_available(self):
        assert "bigint" in kernel.available_backends()

    def test_set_backend_override(self):
        assert kernel.set_backend("bigint").name == "bigint"
        assert kernel.get_kernel().name == "bigint"
        kernel.set_backend(None)

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(kernel.BACKEND_ENV_VAR, "bigint")
        assert kernel.get_kernel().name == "bigint"
        monkeypatch.setenv(kernel.BACKEND_ENV_VAR, "auto")
        assert kernel.get_kernel().name in ("bigint", "numpy")

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv(kernel.BACKEND_ENV_VAR, "auto")
        kernel.set_backend("bigint")
        assert kernel.get_kernel().name == "bigint"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown simulation backend"):
            kernel.set_backend("cuda")

    def test_unknown_env_value_rejected(self, monkeypatch):
        monkeypatch.setenv(kernel.BACKEND_ENV_VAR, "gpu")
        with pytest.raises(ValueError, match="unknown simulation backend"):
            kernel.get_kernel()

    @pytest.mark.parametrize("name", ["numpy-batch", "batch", "python"])
    def test_retired_backend_names_rejected(self, monkeypatch, name):
        choices = "choose one of: auto, bigint, numpy"
        with pytest.raises(ValueError, match=choices):
            kernel.set_backend(name)
        monkeypatch.setenv(kernel.BACKEND_ENV_VAR, name)
        with pytest.raises(ValueError, match=choices):
            kernel.get_kernel()

    @pytest.mark.parametrize("name", ["numpy-batch", "batch", "python"])
    def test_retired_backend_flag_exits_2(self, capsys, name):
        from repro.analysis.cli import build_parser

        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["table1", "--backend", name])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err
        assert all(choice in err for choice in kernel.BACKENDS)

    def test_backend_vocabulary_is_shared(self):
        from repro.flow import BACKEND_CHOICES

        assert kernel.BACKENDS == ("auto", "bigint", "numpy")
        assert BACKEND_CHOICES == list(kernel.BACKENDS)
        assert set(kernel.available_backends()) <= set(kernel.BACKENDS)

    def test_numpy_request_fails_loudly_when_absent(self, monkeypatch):
        monkeypatch.setattr(kernel, "_NUMPY", None)
        with pytest.raises(ImportError, match="numpy"):
            kernel._resolve("numpy")
        # auto degrades silently to bigint instead
        assert kernel._resolve("auto").name == "bigint"
        assert kernel.available_backends() == ["bigint"]

    @needs_numpy
    def test_auto_prefers_numpy(self):
        assert kernel._resolve("auto") is kernel._NUMPY

    @needs_numpy
    def test_all_backends_listed(self):
        assert kernel.available_backends() == ["bigint", "numpy"]

    def test_simulation_runs_on_the_calling_thread(self):
        assert kernel.resolve_sim_threads() == 1


try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # pragma: no cover - hypothesis is optional
    given = None


def _randomized_parity_test():
    """A fresh hypothesis parity test for one class.

    Hypothesis rejects one test function run under two ``self`` types,
    so each parity class gets its own.
    """

    @settings(max_examples=25, deadline=None)
    @given(
        num_pis=st.integers(min_value=3, max_value=10),
        num_gates=st.integers(min_value=5, max_value=120),
        seed=st.integers(min_value=0, max_value=1 << 16),
    )
    def test_property_randomized_parity(self, num_pis, num_gates, seed):
        mig = make_random_mig(num_pis, num_gates, seed=seed)
        assert truth_tables(mig, kernel=kernel._NUMPY) == truth_tables(
            mig, kernel=kernel._BIGINT
        )

    return test_property_randomized_parity


@needs_numpy
class TestBackendParity:
    """The numpy kernel must be bit-identical to the bigint reference."""

    def test_truth_tables_parity_random_migs(self):
        for seed in range(10):
            mig = make_random_mig(4 + seed, 20 + 15 * seed, seed=seed)
            assert truth_tables(mig, kernel=kernel._NUMPY) == truth_tables(
                mig, kernel=kernel._BIGINT
            ), f"seed {seed}"

    def test_registry_benchmark_sweep(self):
        # Every registry benchmark narrow enough for exhaustive sweeps.
        from repro.mig.simulate import MAX_EXHAUSTIVE_PIS
        from repro.synth.registry import BENCHMARK_ORDER, build_benchmark

        swept = 0
        for name in BENCHMARK_ORDER:
            mig = build_benchmark(name, preset="tiny")
            if mig.num_pis > MAX_EXHAUSTIVE_PIS:
                continue
            assert truth_tables(mig, kernel=kernel._NUMPY) == truth_tables(
                mig, kernel=kernel._BIGINT
            ), name
            swept += 1
        assert swept >= 10  # the tiny preset keeps most benchmarks narrow

    def test_truth_tables_parity_is_chunking_invariant(self):
        mig = make_random_mig(10, 120, seed=3)
        reference = truth_tables(mig, kernel=kernel._BIGINT)
        for chunk_bits in (4, 7, 8, 9, 13):
            assert (
                truth_tables(mig, chunk_bits=chunk_bits, kernel=kernel._NUMPY)
                == reference
            ), f"chunk_bits {chunk_bits}"

    @pytest.mark.parametrize("width", [65, 100, 128, 129, 1000, 1024])
    def test_simulate_parity_at_odd_widths(self, width):
        mig = make_random_mig(7, 60, seed=11)
        rng = random.Random(width)
        mask = (1 << width) - 1
        words = [rng.getrandbits(width) for _ in range(mig.num_pis)]
        assert simulate(mig, words, mask, kernel=kernel._NUMPY) == simulate(
            mig, words, mask, kernel=kernel._BIGINT
        )

    def test_narrow_windows_fall_back_to_bigint_results(self):
        # Below one uint64 lane the numpy kernel delegates; outputs are
        # trivially identical, which this asserts end to end.
        mig = make_random_mig(4, 20, seed=5)
        for width in (1, 7, 64):
            rng = random.Random(width)
            mask = (1 << width) - 1
            words = [rng.getrandbits(width) for _ in range(mig.num_pis)]
            assert simulate(
                mig, words, mask, kernel=kernel._NUMPY
            ) == simulate(mig, words, mask, kernel=kernel._BIGINT)

    def test_two_input_gates_match_reference(self):
        # Gates with a constant fanin run as AND/OR groups, some with a
        # complemented operand; odd widths exercise the tail lane.
        mig = Mig()
        x = [mig.add_pi(f"x{i}") for i in range(8)]
        ands = [mig.add_and(x[i], complement(x[i + 1])) for i in range(7)]
        ors = [mig.add_or(ands[i], ands[i + 1]) for i in range(6)]
        majs = [mig.add_maj(ors[i], complement(ors[i + 1]), x[i]) for i in range(5)]
        for sig in ands[:2] + ors[:2] + majs:
            mig.add_po(sig)
        mig.add_po(complement(mig.add_and(complement(majs[0]), majs[1])))
        groups = kernel._batch_plan(mig).groups
        joins = {grp.join for grp in groups}
        assert {None, kernel._np.bitwise_and, kernel._np.bitwise_or} <= joins
        assert any(grp.nflip for grp in groups)
        assert truth_tables(mig, kernel=kernel._NUMPY) == truth_tables(
            mig, kernel=kernel._BIGINT
        )
        rng = random.Random(7)
        for width in (65, 100, 129, 1000):
            mask = (1 << width) - 1
            words = [rng.getrandbits(width) for _ in range(mig.num_pis)]
            assert simulate(
                mig, words, mask, kernel=kernel._NUMPY
            ) == simulate(mig, words, mask, kernel=kernel._BIGINT), width

    def test_exhaustive_window_agreement(self):
        # The natively synthesised stimulus must match the generic
        # exhaustive words at every window base.
        mig = make_random_mig(10, 200, seed=19)
        mask = (1 << 256) - 1
        for base in (0, 256, 768):
            words = exhaustive_words(mig.num_pis, 256, base)
            assert kernel._NUMPY.exhaustive_window(
                mig, base, 256
            ) == simulate(mig, words, mask, kernel=kernel._BIGINT)

    def test_equivalent_verdicts_match(self):
        m1 = make_random_mig(9, 70, seed=21)
        flipped = m1.clone()
        flipped._pos[0] = complement(flipped._pos[0])
        for name in ("bigint", "numpy"):
            kernel.set_backend(name)
            assert equivalent(m1, m1.clone()), name
            assert not equivalent(m1, flipped), name

    def test_equivalent_after_interleaved_simulate(self):
        # The exhaustive stimulus fast path caches filled PI rows; a
        # generic simulate() in between must invalidate them.
        kernel.set_backend("numpy")
        mig = make_random_mig(8, 60, seed=23)
        reference = truth_tables(mig)
        rng = random.Random(0)
        mask = (1 << 256) - 1
        simulate(mig, [rng.getrandbits(256) for _ in range(8)], mask)
        assert truth_tables(mig) == reference

    def test_plan_invalidated_on_mutation(self):
        kernel.set_backend("numpy")
        mig = Mig()
        a, b, c = mig.add_pi("a"), mig.add_pi("b"), mig.add_pi("c")
        mig.add_po(mig.add_maj(a, b, c), "f")
        assert truth_tables(mig) == [0b11101000]
        mig.add_po(mig.add_xor(a, b), "x")
        assert truth_tables(mig) == [0b11101000, 0b01100110]

    def test_equivalent_is_thread_safe_on_shared_graphs(self):
        # Concurrent equivalence checks on one pair of warm graphs (the
        # ``repro serve`` pattern) each sweep their own per-thread
        # executables.
        import threading

        kernel.set_backend("numpy")
        mig = make_random_mig(9, 120, seed=31)
        clone = mig.clone()
        failures = []

        def worker():
            for _ in range(25):
                if not equivalent(mig, clone):
                    failures.append("false inequivalence")
                    return

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures

    def test_equivalent_same_object_both_sides(self):
        kernel.set_backend("numpy")
        mig = make_random_mig(8, 60, seed=33)
        assert equivalent(mig, mig)  # one executable serves both sides

    def test_counterexample_parity(self):
        m1 = Mig()
        a, b = m1.add_pi("a"), m1.add_pi("b")
        m1.add_po(m1.add_and(a, b), "f")
        m2 = Mig()
        a, b = m2.add_pi("a"), m2.add_pi("b")
        m2.add_po(m2.add_or(a, b), "f")
        for name in ("bigint", "numpy"):
            kernel.set_backend(name)
            cex = find_counterexample(m1, m2)
            assert cex is not None
            assert (cex["a"] & cex["b"]) != (cex["a"] | cex["b"]), name

    def test_per_thread_executables_are_isolated(self):
        import threading

        mig = make_random_mig(10, 150, seed=43)
        reference = truth_tables(mig, kernel=kernel._BIGINT)
        failures = []

        def worker():
            for _ in range(15):
                if truth_tables(mig, kernel=kernel._NUMPY) != reference:
                    failures.append("parity broke under concurrency")
                    return

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures

    def test_executable_lru_rebinds_interleaved_widths(self):
        # Interleaved widths on one warm plan must reuse cached
        # executables instead of rebuilding per call (a single-width
        # cache would thrash here).
        plan = kernel._batch_plan(make_random_mig(8, 60, seed=45))
        a = plan.executable(4, 256)
        b = plan.executable(8, 512)
        assert plan.executable(4, 256) is a
        assert plan.executable(8, 512) is b

    def test_executable_lru_is_bounded(self):
        plan = kernel._batch_plan(make_random_mig(8, 60, seed=45))
        first = plan.executable(2, 128)
        for lanes in range(3, 4 + kernel._EXEC_LRU_SIZE):
            plan.executable(lanes, lanes * 64)
        assert plan.executable(2, 128) is not first  # evicted

    if given is not None:
        test_property_randomized_parity = _randomized_parity_test()


@needs_numpy
class TestBatchParity(TestBackendParity):
    """The same checks with every exhaustive sweep in 4-lane windows.

    At its default chunk width the level-batched engine covers most test
    graphs in one window.  At 256 patterns per window, the window bases,
    the native stimulus refill and the per-window equivalence exit run
    many times per graph.
    """

    @pytest.fixture(autouse=True)
    def _narrow_windows(self, monkeypatch):
        monkeypatch.setattr(
            kernel.NumpyKernel, "chunk_bits_for", lambda self, mig: 8
        )

    if given is not None:
        test_property_randomized_parity = _randomized_parity_test()


class TestChunkSizing:
    def test_budget_shrinks_with_node_count(self):
        # Small graphs get the widest window; huge ones shrink toward
        # the bigint floor so the value matrix stays bounded.
        assert kernel._budget_chunk_bits(100) == 18
        huge = (kernel._NUMPY_MEM_BUDGET >> (18 - 6 + 3)) + 1
        assert kernel._budget_chunk_bits(huge) == 17
        assert kernel._budget_chunk_bits(1 << 30) == 13

    def test_kernel_chunk_widths(self):
        mig = make_random_mig(6, 30, seed=1)
        assert kernel._BIGINT.chunk_bits_for(mig) == 13
        if kernel.numpy_available():
            assert kernel._NUMPY.chunk_bits_for(mig) == (
                kernel._budget_chunk_bits(mig.num_nodes)
            )


@needs_numpy
class TestDegradationChain:
    """Runtime failures demote numpy -> bigint, sticky per scope, with
    one kernel_degraded event per demotion."""

    def _mig(self):
        return make_random_mig(8, 60, seed=51)

    def test_numpy_failure_demotes_to_bigint(self, monkeypatch):
        from repro.resilience import events

        mig = self._mig()
        reference = truth_tables(mig, kernel=kernel._BIGINT)

        def boom(*a, **k):
            raise RuntimeError("boom")

        # Every numpy path (simulate, windows, equivalence) compiles or
        # fetches the plan inside its guard.
        monkeypatch.setattr(kernel, "_batch_plan", boom)
        kernel.set_backend("numpy")
        with events.capture() as log:
            with kernel.degradation_scope("job-a") as frame:
                assert truth_tables(mig) == reference
                assert equivalent(mig, mig.clone())
                assert frame["demoted"] == {"numpy"}
        (event,) = [e for e in log if e["kind"] == "kernel_degraded"]
        assert event["backend"] == "numpy"
        assert event["fallback"] == "bigint"
        assert event["job"] == "job-a"

    def test_equivalence_failure_falls_back_per_call(self, monkeypatch):
        # Outside a scope each failing call falls back on its own.
        from repro.resilience import events

        mig = self._mig()
        flipped = mig.clone()
        flipped._pos[0] = complement(flipped._pos[0])
        monkeypatch.setattr(
            kernel, "_windows_equal",
            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        kernel.set_backend("numpy")
        with events.capture() as log:
            assert equivalent(mig, mig.clone())
            assert not equivalent(mig, flipped)
        assert [e["backend"] for e in log if e["kind"] == "kernel_degraded"] == [
            "numpy", "numpy",
        ]

    def test_demotion_is_sticky_within_scope_only(self, monkeypatch):
        mig = self._mig()
        calls = {"n": 0}

        def boom(*a, **k):
            calls["n"] += 1
            raise RuntimeError("boom")

        monkeypatch.setattr(kernel._NUMPY, "_numpy_simulate", boom)
        mask = (1 << 256) - 1
        words = [0] * mig.num_pis
        with kernel.degradation_scope("job-c"):
            kernel._NUMPY.simulate(mig, words, mask)
            kernel._NUMPY.simulate(mig, words, mask)
            assert calls["n"] == 1  # second call skipped the dead engine
        kernel._NUMPY.simulate(mig, words, mask)
        assert calls["n"] == 2  # fresh scope retries the full engine


class TestRandomizedRounds:
    def test_bigint_defaults(self):
        k = kernel._BIGINT
        rounds, width, mask = randomized_rounds(1024, kernel=k)
        assert (rounds, width) == (16, 64)
        assert mask == (1 << 64) - 1

    def test_width_capped_at_samples(self):
        rounds, width, _ = randomized_rounds(16, kernel=kernel._BIGINT)
        assert (rounds, width) == (1, 16)

    def test_explicit_width_wins(self):
        rounds, width, _ = randomized_rounds(
            1024, 256, kernel=kernel._BIGINT
        )
        assert (rounds, width) == (4, 256)

    @needs_numpy
    def test_numpy_prefers_wider_sweeps(self):
        rounds, width, _ = randomized_rounds(4096, kernel=kernel._NUMPY)
        assert width == kernel._NUMPY.random_width
        assert rounds == 4096 // width

    def test_equivalent_accepts_width(self):
        m = make_random_mig(22, 30, seed=13)
        assert equivalent(m, m.clone(), exhaustive_limit=4, width=128)

    def test_find_counterexample_accepts_width(self):
        m = make_random_mig(6, 30, seed=13)
        assert find_counterexample(m, m.clone(), width=128) is None


class TestFlatGateMasks:
    def test_records_carry_xor_masks(self):
        mig = Mig()
        a, b, c = mig.add_pi(), mig.add_pi(), mig.add_pi()
        mig.add_po(mig.add_maj(a, complement(b), c))
        ((node, na, xa, nb, xb, nc, xc),) = mig.flat_gates()
        assert {xa, xb, xc} <= {0, -1}
        assert [xa, xb, xc].count(-1) == 1  # exactly the complemented edge

    def test_histogram_consistent_with_masks(self):
        mig = make_random_mig(6, 50, seed=9)
        hist = mig.complement_histogram()
        assert sum(hist) == mig.num_live_gates()
        assert sum(k * hist[k] for k in range(4)) == sum(
            -(xa + xb + xc) for _, _, xa, _, xb, _, xc in mig.flat_gates()
        )
