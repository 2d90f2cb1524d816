"""Tests for the cost-guided rewriting optimizer layer (repro.opt)."""

import sys
from collections import Counter
from itertools import product

import pytest

from repro.arch import Architecture, CostModel, get_architecture
from repro.mig.rewrite import (
    PASS_RESULTS,
    PASSES,
    apply_script,
    remember_pass_results,
    rm3_cost_table,
    rm3_gate_cost,
)
from repro.mig.simulate import equivalent, truth_tables
from repro.opt import (
    ALGORITHM1_STEPS,
    ALGORITHM2_STEPS,
    DEFAULT_EFFORT,
    Objective,
    Optimizer,
    OptimizerSpec,
    RewritePass,
    atomic_passes,
    available_objectives,
    available_passes,
    available_strategies,
    candidate_passes,
    estimated_write_cost,
    get_objective,
    get_pass,
    get_strategy,
    opt_from_env,
    register_objective,
    register_pass,
    register_strategy,
    resolve_optimizer,
    rewrite,
)
from repro.opt.engine import OPT_ENV_VAR
from repro.plim.compiler import _CLASS_ROLES, _role_table
from repro.synth.registry import BENCHMARK_ORDER, build_benchmark
from .conftest import ENGINES, make_random_mig, numpy_runs, use_engine

ENDURANCE = get_architecture("endurance")


class TestPassRegistry:
    def test_builtin_passes_registered(self):
        names = available_passes()
        for expected in (
            "M", "D_rl", "A", "Psi_C", "I_rl_1_3", "I_rl", "P",
            "cycle:dac16", "cycle:endurance",
        ):
            assert expected in names

    def test_metadata(self):
        assert get_pass("M").kind == "atomic"
        assert get_pass("cycle:endurance").kind == "cycle"
        assert all(p.preserves_equivalence for p in candidate_passes())
        assert get_pass("P").description

    def test_atomic_subset(self):
        atomics = {p.name for p in atomic_passes()}
        assert "cycle:dac16" not in atomics
        assert "M" in atomics and "P" in atomics

    def test_unknown_pass_lists_known(self):
        with pytest.raises(ValueError, match="unknown rewrite pass"):
            get_pass("nope")

    def test_duplicate_registration_refused(self):
        with pytest.raises(ValueError, match="already registered"):
            register_pass(RewritePass(name="M", fn=lambda m: m))
        # overwrite=True replaces (restore the original right away)
        original = get_pass("M")
        register_pass(original, overwrite=True)


class TestPassEquivalence:
    """Every registered pass preserves the function at every output —
    the metadata's `preserves_equivalence` claim, sweep-tested on
    randomized MIGs on every installed simulation engine.  The graphs
    have 7 inputs: a 128-pattern window is wide enough for the numpy
    engine to run numpy rather than hand the window to bigint."""

    SEEDS = (3, 11, 29)

    @pytest.mark.parametrize("name", [
        "M", "D_rl", "A", "Psi_C", "I_rl_1_3", "I_rl", "P",
        "cycle:dac16", "cycle:endurance",
    ])
    def test_pass_preserves_truth_tables(self, name, monkeypatch):
        rewrite_pass = get_pass(name)
        for engine in ENGINES:
            use_engine(monkeypatch, engine)
            with numpy_runs() as runs:
                for seed in self.SEEDS:
                    mig = make_random_mig(num_pis=7, num_gates=45, seed=seed)
                    result = rewrite_pass.apply(mig)
                    assert truth_tables(result) == truth_tables(mig), (
                        f"pass {name} broke seed {seed} on {engine}"
                    )
            assert bool(runs) == (engine == "numpy"), engine

    @pytest.mark.parametrize("spec", ["greedy", "budget", "greedy:depth"])
    def test_strategies_preserve_equivalence(self, spec, monkeypatch):
        optimizer = Optimizer(spec, ENDURANCE)
        for engine in ENGINES:
            use_engine(monkeypatch, engine)
            mig = make_random_mig(num_pis=7, num_gates=40, seed=17)
            result = optimizer.run(mig, "endurance", effort=2)
            with numpy_runs() as runs:
                assert equivalent(mig, result), engine
            assert bool(runs) == (engine == "numpy"), engine


class TestObjectives:
    def test_builtins_registered(self):
        for name in ("node_count", "depth", "write_cost"):
            assert name in available_objectives()

    def test_node_count_and_depth(self, tiny_adder):
        assert get_objective("node_count").score(
            tiny_adder, ENDURANCE
        ) == tiny_adder.num_live_gates()
        assert get_objective("depth").score(
            tiny_adder, ENDURANCE
        ) == tiny_adder.depth()

    def test_write_cost_prices_through_the_cost_model(self):
        from repro.mig.graph import Mig

        mig = Mig("qz")
        a, b, c = (mig.add_pi(n) for n in "abc")
        # three plain PI fanins: a Q violation (nothing intrinsically
        # inverted) and a Z violation (nothing overwritable) at once
        mig.add_po(mig.add_maj(a, b, c), "f")
        base = estimated_write_cost(mig, ENDURANCE)
        pricey_q = Architecture(
            name="pricey-inverts", cost=CostModel(q_invert_instructions=9)
        )
        pricey_z = Architecture(
            name="pricey-copies", cost=CostModel(z_copy_instructions=9)
        )
        assert estimated_write_cost(mig, pricey_q) > base
        assert estimated_write_cost(mig, pricey_z) > base

    def test_write_cost_constant_semantics_match_the_machine(self):
        """Constants follow the compiler's rules: either polarity of a
        constant edge is violation-free and serves as the free Q, and a
        constant destination is the cheaper z_const repair."""
        from repro.mig.graph import Mig
        from repro.mig.signal import CONST0, CONST1, complement

        cost = ENDURANCE.cost
        # AND gate MAJ(a, b, 0): the constant is the free Q (not a
        # q_invert violation); the destination still needs a copy.
        mig = Mig("and")
        a, b = mig.add_pi("a"), mig.add_pi("b")
        mig.add_po(mig.add_maj(a, b, CONST0), "f")
        assert estimated_write_cost(mig, ENDURANCE) == (
            1 + cost.z_copy_instructions
        )
        # OR gate MAJ(a, b, 1): the complemented-constant edge is NOT a
        # complement violation — same bill as the AND.
        mig = Mig("or")
        a, b = mig.add_pi("a"), mig.add_pi("b")
        mig.add_po(mig.add_maj(a, b, CONST1), "f")
        assert estimated_write_cost(mig, ENDURANCE) == (
            1 + cost.z_copy_instructions
        )
        # One complemented PI fanin: ideal Q, but still no destination.
        mig = Mig("ideal-q")
        a, b, c = (mig.add_pi(n) for n in "abc")
        mig.add_po(mig.add_maj(complement(a), b, c), "f")
        assert estimated_write_cost(mig, ENDURANCE) == (
            1 + cost.z_copy_instructions
        )
        # Complemented Q *and* a spare constant: the cheaper z_const
        # repair applies.
        mig = Mig("const-z")
        a, b = mig.add_pi("a"), mig.add_pi("b")
        mig.add_po(mig.add_maj(complement(a), b, CONST0), "f")
        assert estimated_write_cost(mig, ENDURANCE) == (
            1 + cost.z_const_instructions
        )

    def test_write_cost_lower_bounded_by_gates(self, small_random_mig):
        assert estimated_write_cost(
            small_random_mig, ENDURANCE
        ) >= small_random_mig.num_live_gates()

    def test_custom_objective_registration(self, small_random_mig):
        register_objective(
            Objective(
                name="complement_edges",
                fn=lambda mig, arch: mig.num_complemented_edges(),
                description="total complemented edges",
            ),
            overwrite=True,
        )
        optimizer = Optimizer("greedy:complement_edges", ENDURANCE)
        result = optimizer.run(small_random_mig, "endurance", effort=2)
        assert equivalent(small_random_mig, result)
        assert optimizer.score(result) <= small_random_mig.num_complemented_edges()

    def test_duplicate_registration_refused(self):
        with pytest.raises(ValueError, match="already registered"):
            register_objective(
                Objective(name="depth", fn=lambda m, a: 0)
            )


#: The cost models the price-table tests run under: the default and the
#: two re-priced machines of test_write_cost_prices_through_the_cost_model.
PRICED_MODELS = (
    CostModel(),
    CostModel(q_invert_instructions=9),
    CostModel(z_copy_instructions=9),
)


def price_table(cost):
    return rm3_cost_table(
        cost.q_invert_instructions,
        cost.p_invert_instructions,
        cost.z_copy_instructions,
        cost.z_const_instructions,
    )


def static_price(fanin_bits, refs, is_gate, cost):
    return rm3_gate_cost(
        fanin_bits, refs, is_gate,
        q_invert=cost.q_invert_instructions,
        p_invert=cost.p_invert_instructions,
        z_copy=cost.z_copy_instructions,
        z_const=cost.z_const_instructions,
    )


class TestPriceTable:
    """:func:`rm3_cost_table` is :func:`rm3_gate_cost`, tabulated."""

    #: Fanout counts and gates of the representative fanins: gates 1
    #: (one fanout) and 2 (three fanouts), PI 3 (one fanout).
    REFS = (0, 1, 3, 1)
    GATES = (1, 2)
    #: Representative ``(node, complement)`` fanins per class: constant,
    #: complemented, direct Z, copy Z — each by more than one edge.
    CLASS_FANINS = (
        ((0, 0), (0, 1)),
        ((3, 1), (1, 1)),
        ((1, 0),),
        ((2, 0), (3, 0)),
    )

    @pytest.mark.parametrize("cost", PRICED_MODELS)
    def test_entries_are_the_static_price(self, cost):
        table = price_table(cost)
        assert len(table) == 64
        is_gate = self.GATES.__contains__
        for classes in product(range(4), repeat=3):
            index = 16 * classes[0] + 4 * classes[1] + classes[2]
            for fanins in product(*(self.CLASS_FANINS[c] for c in classes)):
                assert table[index] == static_price(
                    fanins, self.REFS, is_gate, cost
                ), (classes, fanins)

    @pytest.mark.parametrize("cost", PRICED_MODELS)
    @pytest.mark.parametrize("name", BENCHMARK_ORDER)
    def test_write_cost_sums_the_static_price(self, name, cost):
        arch = Architecture(name="priced", cost=cost)
        mig = build_benchmark(name, "tiny")
        for graph in (mig, apply_script(mig, ALGORITHM2_STEPS)):
            refs = graph.fanout_counts()
            expected = sum(
                static_price(
                    ((na, xa & 1), (nb, xb & 1), (nc, xc & 1)),
                    refs, graph.is_gate, cost,
                )
                for _, na, xa, nb, xb, nc, xc in graph.flat_gates()
            )
            assert estimated_write_cost(graph, arch) == expected

    def test_static_and_compiled_prices_disagree_on_seven_triples(self):
        """The static price exceeds the compiler's (one RM3 plus the
        cheapest role assignment's repairs) on exactly these triples of
        fanin classes under the default cost model."""
        cost = CostModel()
        table = price_table(cost)
        roles = _role_table(cost)
        z_instructions = (0, cost.z_const_instructions, cost.z_copy_instructions)
        disagree = {}
        for index, classes in enumerate(product(range(4), repeat=3)):
            qi, zi, pi = roles[index][1][0]
            compiled = (
                1
                + cost.q_invert_instructions * _CLASS_ROLES[classes[qi]][0]
                + z_instructions[_CLASS_ROLES[classes[zi]][1]]
                + cost.p_invert_instructions * _CLASS_ROLES[classes[pi]][2]
            )
            if table[index] != compiled:
                disagree[classes] = (table[index], compiled)
        assert disagree == {
            (0, 1, 1): (4, 3),
            (1, 0, 1): (4, 3),
            (1, 1, 0): (4, 3),
            (1, 1, 1): (7, 5),
            (1, 1, 3): (5, 3),
            (1, 3, 1): (5, 3),
            (3, 1, 1): (5, 3),
        }


class TestSpec:
    def test_parse_label_round_trip(self):
        for text in (
            "script", "greedy", "greedy:node_count",
            "budget:write_cost@3", "budget:depth@1",
        ):
            spec = OptimizerSpec.parse(text)
            assert OptimizerSpec.parse(spec.label()) == spec

    def test_defaults(self):
        spec = OptimizerSpec.parse("greedy")
        assert spec.objective == "write_cost"
        assert OptimizerSpec().strategy == "script"

    def test_invalid_specs_raise(self):
        with pytest.raises(ValueError):
            OptimizerSpec.parse("warp-drive")
        with pytest.raises(ValueError):
            OptimizerSpec.parse("greedy:not_an_objective")
        with pytest.raises(ValueError):
            OptimizerSpec.parse("budget@zero")
        with pytest.raises(ValueError):
            OptimizerSpec.parse("budget@0")
        with pytest.raises(ValueError):
            OptimizerSpec.parse("")

    def test_script_key_collapses(self):
        # the script strategy's result is fully determined by the
        # configuration, so every script spec shares one cache identity
        assert OptimizerSpec.parse("script").key() == ("script",)
        assert OptimizerSpec.parse("greedy").key() != ("script",)

    def test_strategy_registry(self):
        assert available_strategies()[0] == "script"
        with pytest.raises(ValueError, match="unknown optimizer strategy"):
            get_strategy("anneal")
        with pytest.raises(ValueError, match="already registered"):
            register_strategy(get_strategy("greedy"))


class TestResolutionPrecedence:
    """flag > $REPRO_OPT > default, mirroring resolve_architecture."""

    def test_default_when_nothing_selected(self, monkeypatch):
        monkeypatch.delenv(OPT_ENV_VAR, raising=False)
        assert resolve_optimizer(None).label() == "script"
        assert opt_from_env() is None

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv(OPT_ENV_VAR, "greedy:node_count")
        assert resolve_optimizer(None).label() == "greedy:node_count"
        assert opt_from_env() == "greedy:node_count"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(OPT_ENV_VAR, "greedy")
        assert resolve_optimizer("budget").strategy == "budget"

    def test_bad_env_value_raises(self, monkeypatch):
        monkeypatch.setenv(OPT_ENV_VAR, "warp-drive")
        with pytest.raises(ValueError):
            resolve_optimizer(None)

    def test_session_explicit_beats_env(self, monkeypatch):
        from repro.flow import Session

        monkeypatch.setenv(OPT_ENV_VAR, "greedy")
        assert Session(opt="budget").optimizer.strategy == "budget"

    def test_session_env_resolution(self, monkeypatch):
        from repro.flow import Session

        monkeypatch.setenv(OPT_ENV_VAR, "greedy:depth")
        session = Session.from_env()
        assert session.opt == "greedy:depth"
        monkeypatch.delenv(OPT_ENV_VAR)
        assert Session.from_env().opt is None

    def test_session_from_args_flag_beats_env(self, monkeypatch):
        import argparse

        from repro.flow import Session

        monkeypatch.setenv(OPT_ENV_VAR, "greedy")
        parser = argparse.ArgumentParser()
        Session.add_arguments(parser)
        session = Session.from_args(parser.parse_args(["--opt", "budget"]))
        assert session.optimizer.strategy == "budget"
        # absent flag: the ambient env selection applies at use time
        session = Session.from_args(parser.parse_args([]))
        assert session.optimizer.strategy == "greedy"

    def test_session_rejects_unknown_opt_eagerly(self):
        from repro.flow import Session

        with pytest.raises(ValueError):
            Session(opt="warp-drive")

    def test_spec_round_trip_carries_opt(self):
        from repro.flow import Session

        spec = Session(opt="budget:node_count@4", preset="tiny").spec()
        assert spec.opt == "budget:node_count@4"
        rebuilt = Session.from_spec(spec)
        assert rebuilt.optimizer == OptimizerSpec(
            strategy="budget", objective="node_count", lookahead=4
        )


class TestScriptParity:
    """The script strategy is byte-identical to the legacy pipelines."""

    def _identical(self, a, b):
        return (
            a._fanins == b._fanins
            and a._pis == b._pis
            and a._pos == b._pos
        )

    @pytest.mark.parametrize("script", ["none", "dac16", "endurance"])
    def test_script_strategy_matches_legacy_rewrite(self, script):
        optimizer = Optimizer("script", ENDURANCE)
        for seed in (5, 23):
            mig = make_random_mig(num_pis=6, num_gates=50, seed=seed)
            assert self._identical(
                optimizer.run(mig, script, effort=DEFAULT_EFFORT),
                rewrite(mig, script, effort=DEFAULT_EFFORT),
            )

    @pytest.mark.parametrize("script", ["dac16", "endurance"])
    def test_script_strategy_matches_on_benchmarks(self, script):
        optimizer = Optimizer("script", ENDURANCE)
        for name in ("ctrl", "int2float"):
            mig = build_benchmark(name, "tiny")
            assert self._identical(
                optimizer.run(mig, script, effort=DEFAULT_EFFORT),
                rewrite(mig, script, effort=DEFAULT_EFFORT),
            )

    def test_flow_default_optimizer_is_script_parity(self, tmp_path):
        """An unconfigured Flow compiles exactly like the pre-optimizer
        harness: its rewrite stage equals the legacy script result."""
        from repro.flow import Flow, Session

        session = Session(preset="tiny")
        result = Flow.for_config("ea-full", session=session).source("ctrl").run()
        assert result.optimizer.label() == "script"
        legacy = rewrite(result.mig, "endurance", effort=DEFAULT_EFFORT)
        assert self._identical(result.rewritten, legacy)


class TestSearchStrategies:
    def test_greedy_never_worse_than_input(self, small_random_mig):
        optimizer = Optimizer("greedy", ENDURANCE)
        result = optimizer.run(small_random_mig, "endurance", effort=3)
        assert optimizer.score(result) <= optimizer.score(
            small_random_mig.cleanup()
        )

    def test_greedy_deterministic(self, small_random_mig):
        optimizer = Optimizer("greedy", ENDURANCE)
        first = optimizer.run(small_random_mig, "endurance", effort=3)
        second = optimizer.run(small_random_mig, "endurance", effort=3)
        assert first._fanins == second._fanins
        assert first._pos == second._pos

    def test_greedy_beats_or_matches_script_on_benchmarks(self):
        optimizer = Optimizer("greedy", ENDURANCE)
        for name in ("ctrl", "int2float", "priority"):
            mig = build_benchmark(name, "tiny")
            scripted = rewrite(mig, "endurance", effort=DEFAULT_EFFORT)
            optimized = optimizer.run(
                mig, "endurance", effort=DEFAULT_EFFORT
            )
            assert optimizer.score(optimized) <= optimizer.score(scripted)

    def test_budget_never_worse_than_input(self, small_random_mig):
        optimizer = Optimizer("budget:write_cost@2", ENDURANCE)
        result = optimizer.run(small_random_mig, "endurance", effort=2)
        assert optimizer.score(result) <= optimizer.score(
            small_random_mig.cleanup()
        )

    def test_none_script_is_untouched_under_every_strategy(
        self, small_random_mig
    ):
        """Baseline configurations stay baselines in optimizer sweeps."""
        cleaned = small_random_mig.cleanup()
        for spec in ("script", "greedy", "budget"):
            result = Optimizer(spec, ENDURANCE).run(
                small_random_mig, "none", effort=5
            )
            assert result._fanins == cleaned._fanins
            assert result._pos == cleaned._pos

    def test_architecture_steers_the_search_key(self):
        """The write-cost objective binds the machine into the cache
        identity of search results — but not of script results."""
        blocked = get_architecture("blocked")
        greedy_a = Optimizer("greedy", ENDURANCE)
        greedy_b = Optimizer("greedy", blocked)
        assert greedy_a.rewrite_key("endurance", 5) != (
            greedy_b.rewrite_key("endurance", 5)
        )
        assert greedy_a.key() == greedy_b.key()  # compile key adds arch anyway
        script_a = Optimizer("script", ENDURANCE)
        script_b = Optimizer("script", blocked)
        assert script_a.rewrite_key("endurance", 5) == (
            script_b.rewrite_key("endurance", 5)
        )
        # arch-oblivious objectives share across machines too
        depth_a = Optimizer("greedy:depth", ENDURANCE)
        depth_b = Optimizer("greedy:depth", blocked)
        assert depth_a.rewrite_key("endurance", 5) == (
            depth_b.rewrite_key("endurance", 5)
        )


def _parent_greedy(mig, objective, arch, effort):
    """The greedy round loop as it was before rounds remembered pass
    results: no memo dict is ever put on a graph."""
    current = mig.cleanup()
    score = objective.score(current, arch)
    for _ in range(max(1, effort) * 8):
        best = None
        best_score = score
        for candidate in candidate_passes():
            result = candidate.apply(current)
            result_score = objective.score(result, arch)
            if result_score < best_score:
                best, best_score = result, result_score
        if best is None:
            break
        current, score = best, best_score
    return current.cleanup()


def _parent_budget(mig, objective, arch, effort, lookahead):
    """The budget round loop as it was before rounds remembered pass
    results."""
    passes = atomic_passes()
    current = mig.cleanup()
    score = objective.score(current, arch)
    for _ in range(max(1, effort) * 4):
        best = None
        best_score = score
        stack = [(current, 0)]
        while stack:
            graph, depth = stack.pop()
            for candidate in passes:
                result = candidate.apply(graph)
                result_score = objective.score(result, arch)
                if result_score < best_score:
                    best, best_score = result, result_score
                if depth + 1 < lookahead:
                    stack.append((result, depth + 1))
        if best is None:
            break
        current, score = best, best_score
    return current.cleanup()


def _round_inputs():
    """Tiny-preset benchmarks and seeded random graphs."""
    for name in BENCHMARK_ORDER:
        yield build_benchmark(name, "tiny")
    for seed in (3, 11, 29):
        yield make_random_mig(num_pis=6, num_gates=60, seed=seed)


class TestRoundMemo:
    """A search round's start graph remembers each built-in pass's
    result: same graphs as before, each pass run once per round."""

    @pytest.mark.parametrize(
        "spec", ["greedy:write_cost", "greedy:node_count", "budget:write_cost@2"]
    )
    def test_matches_the_memo_free_round_loop(self, spec):
        optimizer = Optimizer(spec, ENDURANCE)
        for mig in _round_inputs():
            got = optimizer.run(mig, "endurance", effort=DEFAULT_EFFORT)
            if optimizer.spec.strategy == "greedy":
                want = _parent_greedy(
                    mig, optimizer.objective, ENDURANCE, DEFAULT_EFFORT
                )
            else:
                want = _parent_budget(
                    mig, optimizer.objective, ENDURANCE, DEFAULT_EFFORT,
                    optimizer.spec.lookahead,
                )
            assert got._fanins == want._fanins, mig.name
            assert got._pis == want._pis, mig.name
            assert got._pos == want._pos, mig.name

    @pytest.mark.parametrize("spec", ["greedy:write_cost", "budget:write_cost@2"])
    def test_each_pass_runs_once_per_round_on_the_start_graph(
        self, monkeypatch, spec
    ):
        import repro.mig.rewrite as engine_rewrite

        if spec.startswith("greedy"):
            per_round = len(candidate_passes())
        else:
            # a look-ahead-2 round expands the start and each result
            per_round = len(atomic_passes()) * (1 + len(atomic_passes()))

        rebuild = engine_rewrite.rebuild
        apply = RewritePass.apply
        applied = []  # every candidate input, in order (kept alive)
        runs = []  # (round, input graph, pass function) of each rebuild

        def counted_rebuild(mig, *args):
            frame = sys._getframe(1)
            if frame.f_code.co_name == "inverter_propagation_pass":
                frame = frame.f_back  # I_rl_1_3 or I_rl
            runs.append(
                ((len(applied) - 1) // per_round, mig, frame.f_code.co_name)
            )
            return rebuild(mig, *args)

        def recorded_apply(self, graph):
            applied.append(graph)
            return apply(self, graph)

        monkeypatch.setattr(engine_rewrite, "rebuild", counted_rebuild)
        monkeypatch.setattr(RewritePass, "apply", recorded_apply)
        optimizer = Optimizer(spec, ENDURANCE)
        for name in ("ctrl", "int2float", "priority", "cavlc"):
            applied.clear()
            runs.clear()
            optimizer.run(
                build_benchmark(name, "tiny"), "endurance",
                effort=DEFAULT_EFFORT,
            )
            assert len(applied) % per_round == 0
            assert len(applied) > per_round  # at least one commit
            on_start = Counter(
                (round_, fn)
                for round_, mig, fn in runs
                if mig is applied[round_ * per_round]
            )
            assert on_start, name
            assert max(on_start.values()) == 1, (name, on_start.most_common(3))

    def test_no_memo_outlives_a_run(self, monkeypatch):
        mig = build_benchmark("ctrl", "tiny")
        for spec in ("greedy", "budget:write_cost@2"):
            result = Optimizer(spec, ENDURANCE).run(
                mig, "endurance", effort=DEFAULT_EFFORT
            )
            assert PASS_RESULTS not in mig._derived
            assert PASS_RESULTS not in result._derived
        seen = []
        for name, fn in list(PASSES.items()):
            monkeypatch.setitem(
                PASSES, name,
                lambda g, _fn=fn: seen.append(PASS_RESULTS in g._derived)
                or _fn(g),
            )
        for script in (ALGORITHM1_STEPS, ALGORITHM2_STEPS):
            result = apply_script(mig, script, cycles=DEFAULT_EFFORT)
            assert PASS_RESULTS not in result._derived
        assert seen and not any(seen)

    def test_memo_dropped_when_a_round_raises(self):
        starts = []

        def failing(mig, arch):
            starts.append(mig)
            if len(starts) > 1:
                raise RuntimeError("objective failed")
            return 10 ** 9

        objective = Objective(name="failing", fn=failing)
        for name in ("greedy", "budget"):
            starts.clear()
            with pytest.raises(RuntimeError):
                get_strategy(name).run(
                    build_benchmark("ctrl", "tiny"), script="endurance",
                    effort=1, objective=objective, arch=ENDURANCE,
                    lookahead=2,
                )
            assert PASS_RESULTS not in starts[0]._derived

    def test_registry_entry_returns_the_stored_result(self):
        # an as-built graph has no structural hashing, so every pass
        # fires on it; its Omega.M result is a fixed point of some
        source = PASSES["M"](build_benchmark("ctrl", "tiny"))
        mig = source.clone()
        with remember_pass_results(mig):
            first = {name: fn(mig) for name, fn in PASSES.items()}
            fired = {n for n, result in first.items() if result is not mig}
            assert fired and fired != set(PASSES)
            # firing results are stored and answered; no-ops are left
            # to the no-op memo
            assert mig._derived[PASS_RESULTS].keys() == fired
            for name, fn in PASSES.items():
                assert fn(mig) is first[name]
        assert PASS_RESULTS not in mig._derived
        # without the dict nothing is stored: a fresh result each call
        name = min(fired)
        assert PASSES[name](mig) is not PASSES[name](mig)


class TestCacheKeying:
    def test_rewritten_keyed_by_optimizer(self):
        from repro.analysis.runner import ExperimentCache

        cache = ExperimentCache()
        mig = build_benchmark("ctrl", "tiny")
        script = Optimizer("script", ENDURANCE)
        scripted = cache.rewritten(
            mig, "endurance", DEFAULT_EFFORT, optimizer=script
        )
        greedy = cache.rewritten(
            mig, "endurance", DEFAULT_EFFORT,
            optimizer=Optimizer("greedy", ENDURANCE),
        )
        assert scripted is not greedy
        # and a re-request of either is a pure memory hit
        assert cache.rewritten(
            mig, "endurance", DEFAULT_EFFORT, optimizer=script
        ) is scripted
        assert cache.rewritten(
            mig, "endurance", DEFAULT_EFFORT,
            optimizer=Optimizer("greedy", ENDURANCE),
        ) is greedy

    def test_compile_keyed_by_optimizer(self):
        from repro.analysis.runner import ExperimentCache
        from repro.core.manager import PRESETS

        cache = ExperimentCache()
        mig = build_benchmark("ctrl", "tiny")
        cache.compile(mig, PRESETS["ea-full"])
        assert cache.misses == 1
        cache.compile(mig, PRESETS["ea-full"], optimizer="greedy")
        assert cache.misses == 2  # distinct cache line
        cache.compile(mig, PRESETS["ea-full"], optimizer="greedy")
        assert cache.hits == 1

    def test_has_respects_optimizer(self):
        from repro.analysis.runner import ExperimentCache
        from repro.core.manager import PRESETS

        cache = ExperimentCache()
        mig = build_benchmark("ctrl", "tiny")
        cache.compile(mig, PRESETS["ea-full"])
        assert cache.has(mig, PRESETS["ea-full"])
        assert not cache.has(mig, PRESETS["ea-full"], optimizer="greedy")

    def test_disk_cache_keyed_by_optimizer(self, tmp_path):
        from repro.flow import Flow, Session

        session = Session(cache_dir=tmp_path, preset="tiny")
        scripted = (
            Flow.for_config("ea-full", session=session).source("ctrl").run()
        )
        optimized = (
            Flow.for_config("ea-full", session=session)
            .optimize("greedy")
            .source("ctrl")
            .run()
        )
        # a fresh session on the same root serves each spec its own MIG
        warm = Session(cache_dir=tmp_path, preset="tiny")
        warm_scripted = (
            Flow.for_config("ea-full", session=warm).source("ctrl").run()
        )
        warm_optimized = (
            Flow.for_config("ea-full", session=warm)
            .optimize("greedy")
            .source("ctrl")
            .run()
        )
        assert warm_scripted.stages["rewrite"].cached
        assert warm_optimized.stages["rewrite"].cached
        assert (
            warm_scripted.rewritten._fanins == scripted.rewritten._fanins
        )
        assert (
            warm_optimized.rewritten._fanins == optimized.rewritten._fanins
        )

    def test_flow_override_beats_session(self):
        from repro.flow import Flow, Session

        session = Session(preset="tiny", opt="greedy")
        result = (
            Flow.for_config("ea-full", session=session)
            .optimize("script")
            .source("ctrl")
            .run()
        )
        assert result.optimizer.label() == "script"


class TestMatrixIntegration:
    @pytest.mark.slow
    def test_parallel_matches_serial_under_greedy(self):
        from repro.flow import Session

        names = ["ctrl", "int2float", "priority"]
        serial = Session(preset="tiny", opt="greedy").run_matrix(
            names, ["naive", "ea-full"]
        )
        fanned = Session(preset="tiny", opt="greedy").run_matrix(
            names, ["naive", "ea-full"], parallel=2
        )
        for a, b in zip(serial, fanned):
            for label in ("naive", "ea-full"):
                assert (
                    a.results[label].program.instructions
                    == b.results[label].program.instructions
                )

    def test_optimizer_sweep_points(self):
        from repro.flow import Session

        session = Session(preset="tiny")
        points = session.grid(
            ["ctrl"], ("ea-full",), opts=("script", "greedy")
        )
        assert [p.optimizer.label() for p in points] == [
            "script", "greedy:write_cost"
        ]
        objective = {
            p.optimizer.label(): Optimizer(p.optimizer, p.arch).score(
                p.result.rewritten
            )
            for p in points
        }
        assert objective["greedy:write_cost"] <= objective["script"]

    def test_grid_crosses_machines_and_optimizers(self):
        from repro.analysis.report import render_optimizer_sweep
        from repro.flow import Session

        points = Session(preset="tiny").grid(
            ["dec"], ("ea-full",), archs=("endurance", "blocked"),
            opts=("script", "greedy"),
        )
        # source -> machine -> optimizer -> configuration
        assert [(p.arch.name, p.optimizer.label()) for p in points] == [
            ("endurance", "script"), ("endurance", "greedy:write_cost"),
            ("blocked", "script"), ("blocked", "greedy:write_cost"),
        ]
        text = render_optimizer_sweep(points).splitlines()[3:]
        for point, row in zip(points, text):
            objective = Optimizer(point.optimizer, point.arch).score(
                point.result.rewritten
            )
            assert point.result.architecture is point.arch
            # the rendered objective is priced on the point's own machine
            assert row.split("|")[3].strip() == str(objective)

    def test_rendered_objective_follows_the_machine_costs(self):
        from repro.analysis.report import render_optimizer_sweep
        from repro.flow import Session

        pricey = Architecture(
            name="pricey",
            cost=CostModel(
                q_invert_instructions=5,
                z_copy_instructions=6,
                p_invert_instructions=5,
            ),
        )
        session = Session(preset="tiny")
        (point,) = session.grid(["dec"], ("ea-full",), archs=(pricey,))
        (row,) = render_optimizer_sweep([point]).splitlines()[3:]
        rewritten = point.result.rewritten
        default = Optimizer("script", session.architecture).score(rewritten)
        own = Optimizer("script", pricey).score(rewritten)
        assert own != default
        assert row.split("|")[3].strip() == str(own)

    def test_objective_study_rows(self):
        from repro.analysis.scenarios import optimizer_objective_study
        from repro.flow import Session

        session = Session(preset="tiny")
        rows = optimizer_objective_study(
            ["ctrl", "int2float"], session=session
        )
        assert [r.benchmark for r in rows] == ["ctrl", "int2float"]
        for row in rows:
            assert row.optimized <= row.script <= row.raw
            assert row.improved == (row.optimized < row.script)

    def test_render_optimizer_sweep_and_study(self):
        from repro.analysis.report import (
            render_objective_study,
            render_optimizer_sweep,
        )
        from repro.analysis.scenarios import optimizer_objective_study
        from repro.flow import Session

        session = Session(preset="tiny")
        sweep = render_optimizer_sweep(
            session.grid(["ctrl"], ("ea-full",), opts=("script", "greedy"))
        )
        assert "script" in sweep and "greedy:write_cost" in sweep
        study = render_objective_study(
            optimizer_objective_study(["ctrl"], session=session)
        )
        assert "strictly improved on" in study
