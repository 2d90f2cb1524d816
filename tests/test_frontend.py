"""Tests for the Python-AST frontend (:mod:`repro.synth.frontend`).

The central property: for every decorated function, the compiled MIG
agrees with the plain Python call on *every* input combination, on both
simulation engines.
"""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.mig.simulate import simulate_one
from repro.synth.frontend import (
    FrontendError,
    FrontendFunction,
    mig_function,
)


def circuit_eval(ff: FrontendFunction, *args: int):
    """Simulate the compiled circuit on integer inputs, LSB-first words."""
    mig = ff.build()
    assignment = {}
    for value, (param, width) in zip(args, ff.input_widths.items()):
        for i in range(width):
            assignment[f"{param}{i}"] = (value >> i) & 1
    out = simulate_one(mig, assignment)
    values = []
    po_index = 0
    for width in ff.output_widths:
        word = 0
        for i in range(width):
            word |= out[mig.po_name(po_index)] << i
            po_index += 1
        values.append(word)
    return tuple(values) if len(values) > 1 else values[0]


def assert_matches_python(ff: FrontendFunction, *arg_ranges):
    """Exhaustively compare circuit vs ``ff.reference`` over the ranges."""
    if len(arg_ranges) == 1:
        for a in arg_ranges[0]:
            assert circuit_eval(ff, a) == ff.reference(a), f"a={a}"
    elif len(arg_ranges) == 2:
        for a in arg_ranges[0]:
            for b in arg_ranges[1]:
                assert circuit_eval(ff, a, b) == ff.reference(a, b), (
                    f"a={a} b={b}"
                )
    else:  # pragma: no cover - not used
        raise AssertionError("unsupported arity")


class TestArithmetic:
    def test_adder_exhaustive(self, engine):
        @mig_function(width=4)
        def add(a, b):
            return a + b

        assert_matches_python(add, range(16), range(16))

    def test_subtraction_wraps(self, engine):
        @mig_function(width=3)
        def sub(a, b):
            return a - b

        # two's-complement wrap at 3 bits == Python result masked
        assert_matches_python(sub, range(8), range(8))

    def test_multiplier_mixed_widths(self, engine):
        @mig_function(a=3, b=2)
        def mul(a, b):
            return a * b

        assert_matches_python(mul, range(8), range(4))

    def test_negate(self, engine):
        @mig_function(width=3)
        def neg(a):
            return -a

        assert_matches_python(neg, range(8))

    def test_shifts_and_bitwise(self, engine):
        @mig_function(width=4)
        def mash(a, b):
            t = (a << 1) ^ (b >> 1)
            return (t & a) | ~b

        assert_matches_python(mash, range(16), range(16))

    def test_augmented_assignment(self, engine):
        @mig_function(width=3)
        def accumulate(a, b):
            t = a
            t ^= b
            t &= a
            return t

        assert_matches_python(accumulate, range(8), range(8))


class TestControl:
    def test_clamped_diff(self, engine):
        @mig_function(width=4)
        def clamped_diff(a, b):
            big = a if a >= b else b
            small = b if a >= b else a
            return big - small

        assert_matches_python(clamped_diff, range(16), range(16))

    def test_comparisons(self, engine):
        @mig_function(width=3)
        def compare(a, b):
            lt = a < b
            ge = a >= b
            eq = a == b
            ne = a != b
            gt = a > b
            le = a <= b
            return lt, ge, eq, ne, gt, le

        assert_matches_python(compare, range(8), range(8))

    def test_boolean_connectives(self, engine):
        @mig_function(width=3)
        def in_band(a, b):
            low = a > 1
            high = a < 6
            match = a == b
            return (low and high) or not match

        assert_matches_python(in_band, range(8), range(8))

    def test_constants_and_bool_literals(self, engine):
        @mig_function(width=4)
        def offset(a):
            return a + 5 if a < 10 else a & 3

        assert_matches_python(offset, range(16))


class TestOutputs:
    def test_tuple_outputs_named_after_variables(self):
        @mig_function(width=2)
        def pair(a, b):
            total = a + b
            same = a == b
            return total, same

        mig = pair.build()
        assert pair.output_widths == [3, 1]
        names = [mig.po_name(i) for i in range(mig.num_pos)]
        assert names == ["total0", "total1", "total2", "same0"]

    def test_anonymous_outputs(self):
        @mig_function(width=2)
        def anon(a, b):
            return a ^ b, a & b

        mig = anon.build()
        assert mig.po_name(0).startswith("out0")
        assert_matches_python(anon, range(4), range(4))

    def test_reference_masks_to_circuit_widths(self):
        @mig_function(width=3)
        def sub(a, b):
            return a - b

        sub.build()
        assert sub(1, 3) == -2  # plain Python, unchanged
        assert sub.reference(1, 3) == (-2) & 0b111


class TestIdentity:
    def test_fingerprint_stable_and_width_sensitive(self):
        def body(a, b):
            return a + b

        four = mig_function(width=4)(body)
        four_again = mig_function(width=4)(body)
        eight = mig_function(width=8)(body)
        assert four.fingerprint == four_again.fingerprint
        assert four.fingerprint != eight.fingerprint

    def test_fingerprint_available_before_build(self):
        @mig_function(width=4)
        def late(a):
            return a + 1

        assert len(late.fingerprint) == 64
        assert late._built is None

    def test_pickle_ships_compiled_graph_not_callable(self):
        @mig_function(width=3)
        def shipped(a, b):
            return a & b

        clone = pickle.loads(pickle.dumps(shipped))
        assert clone.build().num_pis == 6
        assert clone.fingerprint == shipped.fingerprint
        with pytest.raises(FrontendError, match="unpickled"):
            clone(1, 2)

    def test_majority_native_mode_equivalent(self, engine):
        def body(a, b):
            return (a + b) & a

        aig_style = mig_function(width=3)(body)
        native = mig_function(width=3, elaborated=False)(body)
        assert aig_style.fingerprint != native.fingerprint
        for a in range(8):
            for b in range(8):
                assert circuit_eval(aig_style, a, b) == circuit_eval(
                    native, a, b
                )


class TestErrors:
    def test_missing_width(self):
        @mig_function(a=4)
        def partial(a, b):
            return a + b

        with pytest.raises(FrontendError, match="no width declared"):
            partial.build()

    def test_unknown_parameter_width(self):
        with pytest.raises(FrontendError, match="unknown"):

            @mig_function(width=4, c=2)
            def known(a, b):
                return a + b

    def test_non_positive_width(self):
        with pytest.raises(FrontendError, match="positive"):

            @mig_function(width=0)
            def flat(a):
                return a

    def test_unsupported_statement(self):
        @mig_function(width=2)
        def looping(a):
            for _ in range(2):
                a = a + 1
            return a

        with pytest.raises(FrontendError, match="unsupported statement"):
            looping.build()

    def test_unknown_name(self):
        @mig_function(width=2)
        def ghost(a):
            return a + q  # noqa: F821

        with pytest.raises(FrontendError, match="unknown name 'q'"):
            ghost.build()

    def test_chained_comparison(self):
        @mig_function(width=2)
        def chained(a, b):
            return 0 < a < b

        with pytest.raises(FrontendError, match="chained"):
            chained.build()

    def test_variable_shift_amount(self):
        @mig_function(width=2)
        def varshift(a, b):
            return a << b

        with pytest.raises(FrontendError, match="constant"):
            varshift.build()

    def test_non_integer_constant(self):
        @mig_function(width=2)
        def fractional(a):
            return a & 1.5

        with pytest.raises(FrontendError, match="integer constants"):
            fractional.build()

    def test_wide_condition(self):
        @mig_function(width=2)
        def wide(a, b):
            return a if b else a + 1

        with pytest.raises(FrontendError, match="1-bit condition"):
            wide.build()

    def test_return_not_last(self):
        @mig_function(width=2)
        def early(a):
            return a
            a = a + 1  # pragma: no cover

        with pytest.raises(FrontendError, match="last statement"):
            early.build()

    def test_error_names_line(self):
        @mig_function(width=2)
        def located(a):
            b = a @ a
            return b

        with pytest.raises(FrontendError, match=r"line \d+"):
            located.build()


FUZZ_WIDTH = 3


def exact_expr_strategy():
    """Expressions whose circuit value equals the plain Python value.

    Restricted to operations that are exact on non-negative inputs (no
    width-truncating operator inside a wider context): ``+``/``*`` widen,
    ``&``/``|``/``^`` are bitwise over equal widths, ``>> k`` is Python
    ``// 2**k``, comparisons and muxes see exact operands.
    """
    atoms = st.sampled_from(
        ["a", "b", "0", "1", "5", str((1 << FUZZ_WIDTH) - 1)]
    )

    def extend(children):
        binop = st.tuples(
            children,
            st.sampled_from(["+", "*", "&", "|", "^"]),
            children,
        ).map(lambda t: f"({t[0]} {t[1]} {t[2]})")
        shift = st.tuples(
            children, st.integers(0, 2)
        ).map(lambda t: f"({t[0]} >> {t[1]})")
        compare = st.tuples(
            children,
            st.sampled_from(["<", "<=", ">", ">=", "==", "!="]),
            children,
        ).map(lambda t: f"({t[0]} {t[1]} {t[2]})")
        mux = st.tuples(compare, children, children).map(
            lambda t: f"({t[1]} if {t[0]} else {t[2]})"
        )
        return binop | shift | mux

    return st.recursive(atoms, extend, max_leaves=6)


def bitwise_expr_strategy():
    # ~ is sound in a pure-bitwise context: Python's infinite-width
    # two's complement agrees bit-by-bit after the output mask.
    return st.recursive(
        st.sampled_from(["a", "b", "5"]),
        lambda children: st.tuples(
            children,
            st.sampled_from(["&", "|", "^"]),
            children,
        ).map(lambda t: f"({t[0]} {t[1]} {t[2]})")
        | children.map(lambda e: f"(~{e})"),
        max_leaves=6,
    )


class TestGeneratedFrontends:
    """Hypothesis-driven fuzzing of the AST frontend.

    Random expression *source text* is built from an exact-valued
    grammar, compiled through the same exec-plus-``linecache`` path a
    served inline frontend takes, and checked exhaustively against
    ``reference`` over both 3-bit inputs.
    """

    @staticmethod
    def build_frontend(expr: str, width: int) -> FrontendFunction:
        import hashlib
        import linecache

        source = (
            f"@mig_function(width={width})\n"
            f"def fuzzed(a, b):\n"
            f"    return {expr}\n"
        )
        digest = hashlib.sha256(source.encode("utf-8")).hexdigest()[:12]
        filename = f"<fuzz:{digest}>"
        code = compile(source, filename, "exec")
        linecache.cache[filename] = (
            len(source), None, source.splitlines(True), filename
        )
        namespace = {"mig_function": mig_function}
        exec(code, namespace)
        return namespace["fuzzed"]

    def check(self, expr: str) -> None:
        fuzzed = self.build_frontend(expr, FUZZ_WIDTH)
        for a in range(1 << FUZZ_WIDTH):
            for b in range(1 << FUZZ_WIDTH):
                assert circuit_eval(fuzzed, a, b) == \
                    fuzzed.reference(a, b), f"{expr} at a={a} b={b}"

    @settings(max_examples=25, deadline=None)
    @given(expr=exact_expr_strategy())
    def test_exact_expressions_match_python(self, expr):
        self.check(expr)

    @settings(max_examples=15, deadline=None)
    @given(parts=st.lists(exact_expr_strategy(), min_size=2, max_size=3))
    def test_tuple_outputs_match_python(self, parts):
        self.check(", ".join(parts))

    @settings(max_examples=15, deadline=None)
    @given(expr=bitwise_expr_strategy())
    def test_bitwise_with_inversion_matches_python(self, expr):
        self.check(expr)
