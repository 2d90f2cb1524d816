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
from .conftest import ENGINES, make_random_mig, use_engine

needs_numpy = pytest.mark.skipif(
    not kernel.numpy_available(), reason="numpy not installed"
)


class TestSelection:
    """The engine is chosen by one rule: numpy when importable."""

    def test_bigint_always_available(self, monkeypatch):
        monkeypatch.setattr(kernel, "_NUMPY", None)
        assert not kernel.numpy_available()
        assert kernel.get_kernel() is kernel._BIGINT

    @needs_numpy
    def test_auto_prefers_numpy(self):
        assert kernel.get_kernel() is kernel._NUMPY

    def test_engine_fixture_pins_the_kernel(self, engine, request):
        assert engine.name == request.node.callspec.params["engine"]
        assert kernel.get_kernel() is engine

    @pytest.mark.parametrize(
        "name", ["numpy-batch", "batch", "python", "auto", "bigint", "numpy"]
    )
    def test_retired_backend_flag_exits_2(self, capsys, name):
        """The engine flag is gone: every name it ever took now fails as
        an unrecognized argument."""
        from repro.analysis.cli import build_parser

        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["table1", "--backend", name])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

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

    def test_equivalent_verdicts_match(self, monkeypatch):
        m1 = make_random_mig(9, 70, seed=21)
        flipped = m1.clone()
        flipped._pos[0] = complement(flipped._pos[0])
        for name in ENGINES:
            use_engine(monkeypatch, name)
            assert equivalent(m1, m1.clone()), name
            assert not equivalent(m1, flipped), name

    def test_equivalent_after_interleaved_simulate(self):
        # The exhaustive stimulus fast path caches filled PI rows; a
        # generic simulate() in between must invalidate them.
        mig = make_random_mig(8, 60, seed=23)
        reference = truth_tables(mig)
        rng = random.Random(0)
        mask = (1 << 256) - 1
        simulate(mig, [rng.getrandbits(256) for _ in range(8)], mask)
        assert truth_tables(mig) == reference

    def test_plan_invalidated_on_mutation(self):
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
        mig = make_random_mig(8, 60, seed=33)
        assert equivalent(mig, mig)  # one executable serves both sides

    def test_counterexample_parity(self, monkeypatch):
        m1 = Mig()
        a, b = m1.add_pi("a"), m1.add_pi("b")
        m1.add_po(m1.add_and(a, b), "f")
        m2 = Mig()
        a, b = m2.add_pi("a"), m2.add_pi("b")
        m2.add_po(m2.add_or(a, b), "f")
        for name in ENGINES:
            use_engine(monkeypatch, name)
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
        # Outside a scope each failing call falls back on its own, and a
        # failed sweep stores no exhaustive table (so the second call
        # sweeps, and fails, again).
        from repro.resilience import events

        mig = self._mig()
        twin = mig.clone()
        flipped = mig.clone()
        flipped._pos[0] = complement(flipped._pos[0])
        monkeypatch.setattr(
            kernel, "_window_rows",
            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        with events.capture() as log:
            assert equivalent(mig, twin)
            assert not equivalent(mig, flipped)
        assert [e["backend"] for e in log if e["kind"] == "kernel_degraded"] == [
            "numpy", "numpy",
        ]
        for graph in (mig, twin, flipped):
            for engine in ("numpy", "bigint"):
                assert ("exhaustive", engine) not in graph._derived

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


def _count_engine_runs(monkeypatch):
    """Count every run of each engine; returns the live tally."""
    runs = {"bigint": 0, "numpy": 0}
    bigint = kernel._bigint_simulate

    def counted_bigint(*args):
        runs["bigint"] += 1
        return bigint(*args)

    monkeypatch.setattr(kernel, "_bigint_simulate", counted_bigint)
    if kernel.numpy_available():
        numpy = kernel._NUMPY._numpy_simulate

        def counted_numpy(*args):
            runs["numpy"] += 1
            return numpy(*args)

        monkeypatch.setattr(kernel._NUMPY, "_numpy_simulate", counted_numpy)
    return runs


class TestSimulationMemo:
    """Each kernel remembers a graph's last simulation per engine."""

    #: Wide enough for the numpy engine proper (not its bigint path).
    WIDTH = 128

    def _stimulus(self, mig, seed=7):
        rng = random.Random(seed)
        words = [rng.getrandbits(self.WIDTH) for _ in range(mig.num_pis)]
        return words, (1 << self.WIDTH) - 1

    @pytest.mark.parametrize("name", ["adder", "ctrl"])
    def test_verified_row_runs_the_engine_once(self, engine, monkeypatch, name):
        """A row's five Table I columns and four Table III caps make nine
        requests on one source graph; the engine runs once."""
        from repro.analysis.tables import TABLE1_PRESETS, TABLE3_CAPS
        from repro.flow import Session

        runs = _count_engine_runs(monkeypatch)
        requested = []
        simulate_ = type(engine).simulate

        def counted(self, mig, *args):
            requested.append(mig)
            return simulate_(self, mig, *args)

        monkeypatch.setattr(type(engine), "simulate", counted)
        session = Session(preset="tiny")
        (row,) = session.evaluate_suite(
            [name], configs=list(TABLE1_PRESETS), caps=list(TABLE3_CAPS),
            verify=True,
        )
        assert len(row.results) == 9
        source = session.cache.benchmark_mig(name, "tiny")
        assert len(requested) == 9
        assert all(mig is source for mig in requested)
        # ctrl's 7 inputs are checked on all 128 patterns: wide enough
        # for the numpy engine; adder's 64 random patterns are not.
        ran = "numpy" if engine.name == "numpy" and name == "ctrl" else "bigint"
        assert runs == {"bigint": 0, "numpy": 0, ran: 1}

    def test_mutation_simulates_again(self, engine, monkeypatch):
        runs = _count_engine_runs(monkeypatch)
        mig = make_random_mig(6, 40, seed=5)
        words, mask = self._stimulus(mig)
        before = simulate(mig, words, mask)
        assert simulate(mig, words, mask) == before
        assert sum(runs.values()) == 1
        a, b, c = (2 * node for node in mig.pis()[:3])
        gate = mig.add_maj(a, b, complement(c))
        assert simulate(mig, words, mask) == before
        assert sum(runs.values()) == 2
        mig.add_po(gate, "new")
        after = simulate(mig, words, mask)
        assert sum(runs.values()) == 3
        wa, wb, wc = words[:3]
        assert after == before + [(wa & wb) | ((wa | wb) & ~wc & mask)]

    def test_hit_returns_a_copy(self, engine):
        mig = make_random_mig(6, 40, seed=6)
        words, mask = self._stimulus(mig)
        outputs = simulate(mig, words, mask)
        expected = list(outputs)
        outputs[0] ^= 1
        assert simulate(mig, words, mask) == expected

    def test_chunked_sweep_misses_every_chunk(self, monkeypatch):
        runs = _count_engine_runs(monkeypatch)
        mig = make_random_mig(8, 60, seed=8)
        truth_tables(mig, chunk_bits=4, kernel=kernel._BIGINT)
        truth_tables(mig, chunk_bits=4, kernel=kernel._BIGINT)
        assert runs["bigint"] == 2 * (1 << 8) // (1 << 4)

    @needs_numpy
    def test_engine_is_part_of_the_key(self, monkeypatch):
        runs = _count_engine_runs(monkeypatch)
        mig = make_random_mig(6, 40, seed=9)
        words, mask = self._stimulus(mig)
        reference = simulate(mig, words, mask, kernel=kernel._BIGINT)
        assert simulate(mig, words, mask, kernel=kernel._NUMPY) == reference
        assert runs == {"bigint": 1, "numpy": 1}
        simulate(mig, words, mask, kernel=kernel._BIGINT)
        simulate(mig, words, mask, kernel=kernel._NUMPY)
        assert runs == {"bigint": 1, "numpy": 1}

    @needs_numpy
    def test_fallback_is_not_remembered(self, monkeypatch):
        mig = make_random_mig(6, 40, seed=10)
        words, mask = self._stimulus(mig)
        monkeypatch.setattr(
            kernel._NUMPY, "_numpy_simulate",
            lambda *a: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        fallback = kernel._NUMPY.simulate(mig, words, mask)
        assert ("simulate", "numpy") not in mig._derived
        monkeypatch.undo()
        assert kernel._NUMPY.simulate(mig, words, mask) == fallback
        assert ("simulate", "numpy") in mig._derived


class TestExhaustiveMemo:
    """Exhaustive equivalence remembers each graph's output table per
    engine: a graph is swept at most once while it is unchanged."""

    #: Inputs of the test graphs: four 2^13-pattern windows per sweep.
    NUM_PIS = 15
    WINDOWS = 1 << (NUM_PIS - 13)

    @pytest.fixture
    def windows(self, engine, monkeypatch):
        """Engine windows run per graph (and in total, for ``None``)."""
        # Shrink the numpy chunks to the bigint kernel's 2^13 patterns.
        monkeypatch.setattr(kernel, "_NUMPY_MEM_BUDGET", 0)
        tally = {}
        if engine.name == "numpy":
            run = kernel._BatchExec.run

            def counted(self, plan):
                tally[id(plan)] = tally.get(id(plan), 0) + 1
                return run(self, plan)

            monkeypatch.setattr(kernel._BatchExec, "run", counted)

            def key(mig):
                return id(mig._derived.get("numpy_plan"))
        else:
            simulate_ = kernel._bigint_simulate

            def counted(mig, *args):
                tally[id(mig)] = tally.get(id(mig), 0) + 1
                return simulate_(mig, *args)

            monkeypatch.setattr(kernel, "_bigint_simulate", counted)
            key = id
        return lambda mig=None: (
            sum(tally.values()) if mig is None else tally.get(key(mig), 0)
        )

    def _graph(self, seed):
        return make_random_mig(self.NUM_PIS, 80, seed=seed)

    def test_source_is_swept_once(self, engine, windows):
        source = self._graph(21)
        variants = [source.clone() for _ in range(5)]
        for variant in variants:
            assert equivalent(source, variant)
        assert windows(source) == self.WINDOWS  # not 5 * WINDOWS
        assert [windows(v) for v in variants] == [self.WINDOWS] * 5

    def test_mutation_sweeps_again(self, engine, windows):
        a = self._graph(22)
        b = a.clone()
        assert equivalent(a, b)
        assert windows() == 2 * self.WINDOWS
        x, y, z = (2 * node for node in a.pis()[:3])
        b.add_maj(x, y, complement(z))  # a dead gate: same function
        assert ("exhaustive", engine.name) not in b._derived
        assert equivalent(a, b)
        assert windows() == 3 * self.WINDOWS  # b swept against a's table
        a.add_po(a.add_maj(x, y, z))
        b.add_po(b.add_maj(x, y, complement(z)))
        assert not equivalent(a, b)
        assert windows() == 3 * self.WINDOWS + 2  # both differ at window 0

    def test_inequivalent_pair_stops_and_stores_nothing(self, engine, windows):
        a = self._graph(23)
        flipped = a.clone()
        flipped._pos[0] = complement(flipped._pos[0])
        slot = ("exhaustive", engine.name)
        assert not equivalent(a, flipped)
        assert (windows(a), windows(flipped)) == (1, 1)
        assert slot not in a._derived and slot not in flipped._derived
        # Fresh graphs: a bigint re-sweep would hit the simulate memo.
        known, flipped = a.clone(), flipped.clone()
        assert equivalent(known, a.clone())
        table = known._derived[slot]
        assert not equivalent(flipped, known)  # swept against the table
        assert (windows(known), windows(flipped)) == (self.WINDOWS, 1)
        assert slot not in flipped._derived
        assert known._derived[slot] is table

    def test_equivalent_pair_shares_one_table(self, engine, windows):
        a = self._graph(24)
        b = a.clone()
        assert equivalent(a, b)
        slot = ("exhaustive", engine.name)
        table = a._derived[slot]
        assert b._derived[slot] is table
        if engine.name == "numpy":
            assert not table.flags.writeable
        else:
            assert isinstance(table, tuple)
        assert equivalent(b, a)
        assert windows() == 2 * self.WINDOWS  # both known: no sweep

    def test_pickling_drops_the_memo(self, engine, windows):
        import pickle

        a = self._graph(25)
        b = a.clone()
        assert equivalent(a, b)
        copy = pickle.loads(pickle.dumps(a))
        assert ("exhaustive", engine.name) not in copy._derived
        assert equivalent(copy, b)
        assert windows(copy) == self.WINDOWS

    @needs_numpy
    def test_memo_hit_never_reaches_the_guard(self, monkeypatch):
        from repro.resilience import events

        use_engine(monkeypatch, "numpy")
        a = make_random_mig(8, 60, seed=26)
        b = a.clone()
        assert equivalent(a, b)
        monkeypatch.setattr(
            kernel._res_faults, "kernel_fault",
            lambda job: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        with events.capture() as log:
            assert equivalent(b, a)
        assert not [e for e in log if e["kind"] == "kernel_degraded"]

    @pytest.mark.parametrize("chunk_bits", [None, 7])
    def test_verdicts_match_truth_tables(self, engine, monkeypatch, chunk_bits):
        """Every ordered pair of a pool (a graph, its clone, two
        complemented-output mutants), memo state carried across calls,
        answers as the bigint truth tables do."""
        if chunk_bits is not None:  # several windows below 13 inputs
            monkeypatch.setattr(
                type(engine), "chunk_bits_for", lambda self, mig: chunk_bits
            )
        for seed in range(12):
            a = make_random_mig(1 + seed, 10 + 8 * seed, seed=40 + seed)
            pool = [a, a.clone()]
            for po in (0, a.num_pos - 1):
                mutant = a.clone()
                mutant._pos[po] = complement(mutant._pos[po])
                pool.append(mutant)
            tables = [truth_tables(g, kernel=kernel._BIGINT) for g in pool]
            for i, x in enumerate(pool):
                for j, y in enumerate(pool):
                    assert equivalent(x, y) == (tables[i] == tables[j]), (
                        seed, i, j,
                    )


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
