"""Tests for the simulation kernel (repro.mig.kernel) and the exhaustive
and randomized sweeps built on it (repro.mig.simulate)."""

import importlib
import random

import pytest

from repro.mig import kernel
from repro.mig.graph import Mig
from repro.mig.signal import complement
from repro.mig.simulate import (
    equivalent,
    exhaustive_chunks,
    exhaustive_words,
    find_counterexample,
    randomized_rounds,
    simulate,
    truth_tables,
)
from .conftest import make_random_mig

# repro.mig re-exports a function named simulate over the module name.
sim = importlib.import_module("repro.mig.simulate")


def reference_outputs(mig, words, mask):
    """Test-local reference evaluator: walks ``Mig.fanins`` in node
    order with the textbook majority and explicit complements, sharing
    neither the kernel's flat gate records nor its 4-op majority."""
    value = {0: 0}
    for node, word in zip(mig.pis(), words):
        value[node] = word & mask

    def read(signal):
        word = value[signal >> 1]
        return word ^ mask if signal & 1 else word

    for node in mig.gates():
        a, b, c = (read(s) for s in mig.fanins(node))
        value[node] = (a & b) | (a & c) | (b & c)
    return [read(s) for s in mig.pos()]


def reference_tables(mig):
    """Exhaustive truth tables from :func:`reference_outputs`, one
    ``2**num_pis``-wide window."""
    width = 1 << mig.num_pis
    words = exhaustive_words(mig.num_pis, width)
    return reference_outputs(mig, words, (1 << width) - 1)


class TestSelection:
    """There is one engine."""

    def test_bigint_always_available(self):
        assert kernel.get_kernel() is kernel._BIGINT
        assert kernel.get_kernel().name == "bigint"

    def test_engine_fixture_pins_the_kernel(self, engine):
        # Hiding numpy or loading it leaves the one engine in place.
        assert kernel.get_kernel() is engine
        assert engine.name == "bigint"

    def test_numpy_names_are_empty_stubs(self):
        for stub in (kernel.NumpyKernel, kernel.NumpyBatchKernel):
            assert "simulate" not in vars(stub)
            assert "exhaustive_window" not in vars(stub)

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
        assert truth_tables(mig) == reference_tables(mig)

    return test_property_randomized_parity


class TestBackendParity:
    """The kernel must be bit-identical to the test-local reference
    evaluator (:func:`reference_outputs`)."""

    def test_truth_tables_parity_random_migs(self):
        for seed in range(10):
            mig = make_random_mig(4 + seed, 20 + 15 * seed, seed=seed)
            assert truth_tables(mig) == reference_tables(mig), f"seed {seed}"

    def test_registry_benchmark_sweep(self):
        # Every registry benchmark narrow enough for exhaustive sweeps.
        from repro.mig.simulate import MAX_EXHAUSTIVE_PIS
        from repro.synth.registry import BENCHMARK_ORDER, build_benchmark

        swept = 0
        for name in BENCHMARK_ORDER:
            mig = build_benchmark(name, preset="tiny")
            if mig.num_pis > MAX_EXHAUSTIVE_PIS:
                continue
            assert truth_tables(mig) == reference_tables(mig), name
            swept += 1
        assert swept >= 10  # the tiny preset keeps most benchmarks narrow

    def test_truth_tables_parity_is_chunking_invariant(self):
        mig = make_random_mig(10, 120, seed=3)
        reference = reference_tables(mig)
        for chunk_bits in (4, 7, 8, 9, 13):
            assert truth_tables(mig, chunk_bits=chunk_bits) == reference, (
                f"chunk_bits {chunk_bits}"
            )

    @pytest.mark.parametrize(
        "width", [1, 7, 64, 65, 100, 128, 129, 1000, 1024]
    )
    def test_simulate_parity_at_odd_widths(self, width):
        mig = make_random_mig(7, 60, seed=11)
        rng = random.Random(width)
        mask = (1 << width) - 1
        words = [rng.getrandbits(width) for _ in range(mig.num_pis)]
        assert simulate(mig, words, mask) == reference_outputs(mig, words, mask)

    def test_two_input_gates_match_reference(self):
        # Gates with a constant fanin, some with a complemented operand.
        mig = Mig()
        x = [mig.add_pi(f"x{i}") for i in range(8)]
        ands = [mig.add_and(x[i], complement(x[i + 1])) for i in range(7)]
        ors = [mig.add_or(ands[i], ands[i + 1]) for i in range(6)]
        majs = [mig.add_maj(ors[i], complement(ors[i + 1]), x[i]) for i in range(5)]
        for sig in ands[:2] + ors[:2] + majs:
            mig.add_po(sig)
        mig.add_po(complement(mig.add_and(complement(majs[0]), majs[1])))
        assert truth_tables(mig) == reference_tables(mig)
        rng = random.Random(7)
        for width in (65, 100, 129, 1000):
            mask = (1 << width) - 1
            words = [rng.getrandbits(width) for _ in range(mig.num_pis)]
            assert simulate(mig, words, mask) == reference_outputs(
                mig, words, mask
            ), width

    def test_exhaustive_window_agreement(self):
        # Each chunk's shared low-variable words plus constant high
        # variables must match the generic exhaustive words at its base.
        mig = make_random_mig(10, 200, seed=19)
        mask = (1 << 256) - 1
        for base, width, outputs in exhaustive_chunks(mig, chunk_bits=8):
            assert width == 256
            words = exhaustive_words(mig.num_pis, 256, base)
            assert outputs == reference_outputs(mig, words, mask), base

    def test_equivalent_verdicts_match(self):
        m1 = make_random_mig(9, 70, seed=21)
        flipped = m1.clone()
        flipped._pos[0] = complement(flipped._pos[0])
        assert equivalent(m1, m1.clone())
        assert not equivalent(m1, flipped)

    def test_equivalent_after_interleaved_simulate(self):
        # A generic simulate() between two sweeps replaces the graph's
        # remembered simulation; the second sweep must not see it.
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
        # ``repro serve`` pattern) share the graphs' memo entries.
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
        assert equivalent(mig, mig)  # one sweep serves both sides

    def test_counterexample_parity(self):
        m1 = Mig()
        a, b = m1.add_pi("a"), m1.add_pi("b")
        m1.add_po(m1.add_and(a, b), "f")
        m2 = Mig()
        a, b = m2.add_pi("a"), m2.add_pi("b")
        m2.add_po(m2.add_or(a, b), "f")
        cex = find_counterexample(m1, m2)
        assert cex is not None
        assert (cex["a"] & cex["b"]) != (cex["a"] | cex["b"])

    if given is not None:
        test_property_randomized_parity = _randomized_parity_test()


class TestBatchParity(TestBackendParity):
    """The same checks with every default-width exhaustive sweep in
    256-pattern windows.

    At the default 2^13-pattern chunks most test graphs fit one window.
    At 256 patterns per window, the window bases, the shared
    low-variable stimulus and the per-window equivalence exit run many
    times per graph.
    """

    @pytest.fixture(autouse=True)
    def _narrow_windows(self, monkeypatch):
        monkeypatch.setattr(sim, "CHUNK_BITS", 8)

    if given is not None:
        test_property_randomized_parity = _randomized_parity_test()


class TestChunkSizing:
    def test_kernel_chunk_widths(self):
        # 2^13-pattern chunks; a graph with fewer patterns is one chunk.
        wide = make_random_mig(15, 40, seed=1)
        assert [w for _, w, _ in exhaustive_chunks(wide)] == [1 << 13] * 4
        narrow = make_random_mig(6, 30, seed=1)
        assert [w for _, w, _ in exhaustive_chunks(narrow)] == [64]


def _count_engine_runs(monkeypatch):
    """Count every engine run (a memo hit runs none); returns the live
    tally."""
    runs = []
    engine = kernel._bigint_simulate

    def counted(*args):
        runs.append(args[0])
        return engine(*args)

    monkeypatch.setattr(kernel, "_bigint_simulate", counted)
    return runs


class TestSimulationMemo:
    """The kernel remembers a graph's last simulation."""

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
        assert runs == [source]

    def test_mutation_simulates_again(self, engine, monkeypatch):
        runs = _count_engine_runs(monkeypatch)
        mig = make_random_mig(6, 40, seed=5)
        words, mask = self._stimulus(mig)
        before = simulate(mig, words, mask)
        assert simulate(mig, words, mask) == before
        assert len(runs) == 1
        a, b, c = (2 * node for node in mig.pis()[:3])
        gate = mig.add_maj(a, b, complement(c))
        assert simulate(mig, words, mask) == before
        assert len(runs) == 2
        mig.add_po(gate, "new")
        after = simulate(mig, words, mask)
        assert len(runs) == 3
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
        truth_tables(mig, chunk_bits=4)
        truth_tables(mig, chunk_bits=4)
        assert len(runs) == 2 * (1 << 8) // (1 << 4)


class TestExhaustiveMemo:
    """Exhaustive equivalence remembers each graph's output table: a
    graph is swept at most once while it is unchanged."""

    #: Inputs of the test graphs: four 2^13-pattern windows per sweep.
    NUM_PIS = 15
    WINDOWS = 1 << (NUM_PIS - 13)

    @pytest.fixture
    def windows(self, monkeypatch):
        """Engine windows run per graph (and in total, for ``None``)."""
        runs = _count_engine_runs(monkeypatch)
        return lambda mig=None: (
            len(runs) if mig is None else sum(g is mig for g in runs)
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
        assert "exhaustive" not in b._derived
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
        assert not equivalent(a, flipped)
        assert (windows(a), windows(flipped)) == (1, 1)
        assert "exhaustive" not in a._derived
        assert "exhaustive" not in flipped._derived
        # Fresh graphs: a re-sweep would hit the simulate memo.
        known, flipped = a.clone(), flipped.clone()
        assert equivalent(known, a.clone())
        table = known._derived["exhaustive"]
        assert not equivalent(flipped, known)  # swept against the table
        assert (windows(known), windows(flipped)) == (self.WINDOWS, 1)
        assert "exhaustive" not in flipped._derived
        assert known._derived["exhaustive"] is table

    def test_equivalent_pair_shares_one_table(self, engine, windows):
        a = self._graph(24)
        b = a.clone()
        assert equivalent(a, b)
        table = a._derived["exhaustive"]
        assert b._derived["exhaustive"] is table
        assert isinstance(table, tuple)
        assert equivalent(b, a)
        assert windows() == 2 * self.WINDOWS  # both known: no sweep

    def test_pickling_drops_the_memo(self, engine, windows):
        import pickle

        a = self._graph(25)
        b = a.clone()
        assert equivalent(a, b)
        copy = pickle.loads(pickle.dumps(a))
        assert "exhaustive" not in copy._derived
        assert equivalent(copy, b)
        assert windows(copy) == self.WINDOWS

    @pytest.mark.parametrize("chunk_bits", [None, 7])
    def test_verdicts_match_truth_tables(self, engine, monkeypatch, chunk_bits):
        """Every ordered pair of a pool (a graph, its clone, two
        complemented-output mutants), memo state carried across calls,
        answers as the reference truth tables do."""
        if chunk_bits is not None:  # several windows below 13 inputs
            monkeypatch.setattr(sim, "CHUNK_BITS", chunk_bits)
        for seed in range(12):
            a = make_random_mig(1 + seed, 10 + 8 * seed, seed=40 + seed)
            pool = [a, a.clone()]
            for po in (0, a.num_pos - 1):
                mutant = a.clone()
                mutant._pos[po] = complement(mutant._pos[po])
                pool.append(mutant)
            tables = [reference_tables(g) for g in pool]
            for i, x in enumerate(pool):
                for j, y in enumerate(pool):
                    assert equivalent(x, y) == (tables[i] == tables[j]), (
                        seed, i, j,
                    )


class TestRandomizedRounds:
    def test_bigint_defaults(self):
        rounds, width, mask = randomized_rounds(1024)
        assert (rounds, width) == (16, 64)
        assert mask == (1 << 64) - 1

    def test_width_capped_at_samples(self):
        rounds, width, _ = randomized_rounds(16)
        assert (rounds, width) == (1, 16)

    def test_explicit_width_wins(self):
        rounds, width, _ = randomized_rounds(1024, 256)
        assert (rounds, width) == (4, 256)

    def test_equivalent_accepts_width(self):
        m = make_random_mig(22, 30, seed=13)
        assert equivalent(m, m.clone(), exhaustive_limit=4, width=128)

    def test_find_counterexample_accepts_width(self):
        m = make_random_mig(6, 30, seed=13)
        assert find_counterexample(m, m.clone(), width=128) is None

    @pytest.mark.parametrize(
        "samples, width, name",
        [(0, None, "samples"), (-5, None, "samples"), (-5, 8, "samples"),
         (64, 0, "width"), (64, -3, "width")],
    )
    def test_refuses_nonpositive_arguments(self, samples, width, name):
        with pytest.raises(ValueError, match=f"^{name} must be at least 1"):
            randomized_rounds(samples, width)

    @pytest.mark.parametrize("kwargs, name", [
        ({"width": 0}, "width"), ({"width": -3}, "width"),
        ({"samples": 0}, "samples"),
    ])
    def test_randomized_checks_refuse_nonpositive_arguments(self, kwargs, name):
        m = make_random_mig(22, 30, seed=13)
        with pytest.raises(ValueError, match=f"^{name} must be at least 1"):
            equivalent(m, m.clone(), exhaustive_limit=4, **kwargs)
        with pytest.raises(ValueError, match=f"^{name} must be at least 1"):
            find_counterexample(m, m.clone(), **kwargs)

    def test_verify_program_refuses_negative_patterns(self):
        from repro.plim.compiler import PlimCompiler
        from repro.plim.verify import verify_program

        m = make_random_mig(12, 40, seed=13)
        program = PlimCompiler().compile(m)
        with pytest.raises(ValueError, match="^samples must be at least 1"):
            verify_program(program, m, patterns=-5)


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
