"""Tests for MIG / program text serialisation and netlist importers."""

import hashlib
import os

import pytest

from repro.core.manager import PRESETS, compile_pipeline
from repro.mig.graph import Mig
from repro.mig.io import (
    MigParseError,
    NETLIST_READERS,
    dumps_aiger,
    dumps_aiger_binary,
    dumps_mig,
    dumps_program,
    loads_aiger,
    loads_aiger_binary,
    loads_blif,
    loads_mig,
    read_aiger_binary,
    read_mig,
    read_netlist,
    read_program,
    write_aiger,
    write_aiger_binary,
    write_mig,
    write_program,
)
from repro.mig.signal import complement
from repro.mig.simulate import equivalent, simulate_one
from repro.plim.compiler import PlimCompiler
from repro.plim.verify import verify_program
from repro.synth.registry import BENCHMARK_ORDER, build_benchmark
from .conftest import make_random_mig

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


class TestMigRoundTrip:
    def test_simple_roundtrip(self, xor_mig):
        text = dumps_mig(xor_mig)
        back = loads_mig(text)
        assert equivalent(xor_mig, back)
        assert back.num_pis == xor_mig.num_pis
        assert back.pi_name(0) == xor_mig.pi_name(0)
        assert back.po_name(0) == xor_mig.po_name(0)

    def test_random_roundtrip(self):
        for seed in (1, 2, 3):
            mig = make_random_mig(6, 40, seed=seed)
            assert equivalent(mig, loads_mig(dumps_mig(mig)))

    def test_complemented_outputs_and_constants(self):
        mig = Mig("t")
        a = mig.add_pi("a")
        mig.add_po(complement(a), "na")
        mig.add_po(1, "one")
        back = loads_mig(dumps_mig(mig))
        assert equivalent(mig, back)

    def test_file_roundtrip(self, tmp_path, small_random_mig):
        path = tmp_path / "g.mig"
        write_mig(small_random_mig, str(path))
        assert equivalent(small_random_mig, read_mig(str(path)))

    def test_dead_nodes_not_serialised(self):
        mig = Mig("t")
        a, b, c = (mig.add_pi(n) for n in "abc")
        mig.add_maj(a, b, c)  # dead
        mig.add_po(mig.add_and(a, b), "f")
        text = dumps_mig(mig)
        assert text.count("node ") == 1


class TestMigParsing:
    def test_comments_and_blanks(self):
        text = """
        # a comment
        mig demo
        input a   # trailing comment
        input b
        node n1 = <a b 0>
        output f = ~n1
        """
        mig = loads_mig(text)
        assert mig.num_pis == 2
        assert mig.num_gates == 1

    def test_unknown_signal(self):
        with pytest.raises(MigParseError, match="unknown signal"):
            loads_mig("mig x\noutput f = q\n")

    def test_missing_header(self):
        with pytest.raises(MigParseError, match="header"):
            loads_mig("input a\noutput f = a\n")

    def test_bad_node_syntax(self):
        with pytest.raises(MigParseError):
            loads_mig("mig x\ninput a\nnode n1 = <a a>\noutput f = n1\n")

    def test_unknown_directive(self):
        with pytest.raises(MigParseError, match="unknown directive"):
            loads_mig("mig x\nlatch q\n")

    def test_duplicate_input_name(self):
        with pytest.raises(MigParseError, match=r"line 3: duplicate name 'a'"):
            loads_mig("mig x\ninput a\ninput a\noutput f = a\n")

    def test_duplicate_node_name(self):
        text = (
            "mig x\ninput a\ninput b\n"
            "node n1 = <a b 0>\nnode n1 = <a b 1>\noutput f = n1\n"
        )
        with pytest.raises(MigParseError, match=r"line 5: duplicate name 'n1'"):
            loads_mig(text)

    def test_node_shadowing_input_rejected(self):
        text = "mig x\ninput a\ninput b\nnode a = <a b 0>\noutput f = a\n"
        with pytest.raises(MigParseError, match="duplicate name 'a'"):
            loads_mig(text)


class TestBenchmarkRoundTrip:
    """dumps/loads round-trip over every registry benchmark."""

    @pytest.mark.parametrize("name", BENCHMARK_ORDER)
    def test_benchmark_roundtrip(self, name):
        mig = build_benchmark(name, "tiny")
        back = loads_mig(dumps_mig(mig))
        assert back.name == mig.name
        assert back.num_pis == mig.num_pis
        assert back.num_pos == mig.num_pos
        assert [back.pi_name(i) for i in range(back.num_pis)] == [
            mig.pi_name(i) for i in range(mig.num_pis)
        ]
        assert [back.po_name(i) for i in range(back.num_pos)] == [
            mig.po_name(i) for i in range(mig.num_pos)
        ]
        if mig.num_pis <= 16:
            assert equivalent(mig, back)
        else:
            # too wide to sweep: randomized equivalence + a fixed-point
            # check (once compacted, serialisation is stable)
            assert equivalent(mig, back, exhaustive_limit=16)
            text = dumps_mig(back)
            assert dumps_mig(loads_mig(text)) == text

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_roundtrip(self, seed):
        mig = make_random_mig(5, 30, seed=seed, num_pos=3)
        assert equivalent(mig, loads_mig(dumps_mig(mig)))


class TestBlifImport:
    def test_fulladder_fixture_semantics(self):
        mig = read_netlist(os.path.join(FIXTURES, "fulladder.blif"))
        assert mig.name == "fulladder"
        assert mig.num_pis == 3 and mig.num_pos == 2
        for a in (0, 1):
            for b in (0, 1):
                for cin in (0, 1):
                    out = simulate_one(mig, {"a": a, "b": b, "cin": cin})
                    assert out["sum"] == (a ^ b ^ cin)
                    assert out["cout"] == (a & b) | (a & cin) | (b & cin)

    def test_out_of_order_tables(self):
        # .names may use signals defined later; elaboration is demand-driven
        text = (
            ".model ooo\n.inputs a b\n.outputs f\n"
            ".names t f\n1 1\n.names a b t\n11 1\n.end\n"
        )
        mig = loads_blif(text)
        assert simulate_one(mig, {"a": 1, "b": 1})["f"] == 1
        assert simulate_one(mig, {"a": 1, "b": 0})["f"] == 0

    def test_continuation_lines(self):
        text = (
            ".model cont\n.inputs a \\\nb\n.outputs f\n"
            ".names a b f\n11 1\n.end\n"
        )
        mig = loads_blif(text)
        assert mig.num_pis == 2

    def test_off_set_cover(self):
        # off-set plane: f is 0 exactly when a=1,b=1 -> f = NAND
        text = (
            ".model offset\n.inputs a b\n.outputs f\n"
            ".names a b f\n11 0\n.end\n"
        )
        mig = loads_blif(text)
        for a in (0, 1):
            for b in (0, 1):
                assert simulate_one(mig, {"a": a, "b": b})["f"] == (
                    0 if (a and b) else 1
                )

    def test_constant_outputs(self):
        text = (
            ".model consts\n.inputs a\n.outputs one zero\n"
            ".names one\n1\n.names zero\n.names a unused\n1 1\n.end\n"
        )
        mig = loads_blif(text)
        assert simulate_one(mig, {"a": 0}) == {"one": 1, "zero": 0}

    def test_combinational_loop_rejected(self):
        text = (
            ".model loop\n.inputs a\n.outputs f\n"
            ".names g f\n1 1\n.names f g\n1 1\n.end\n"
        )
        with pytest.raises(MigParseError, match="combinational loop"):
            loads_blif(text)

    def test_undefined_signal_rejected(self):
        text = ".model u\n.inputs a\n.outputs f\n.names q f\n1 1\n.end\n"
        with pytest.raises(MigParseError, match="undefined signal 'q'"):
            loads_blif(text)

    def test_duplicate_definition_rejected(self):
        text = (
            ".model d\n.inputs a b\n.outputs f\n"
            ".names a f\n1 1\n.names b f\n1 1\n.end\n"
        )
        with pytest.raises(MigParseError, match="duplicate"):
            loads_blif(text)

    def test_mixed_planes_rejected(self):
        text = (
            ".model m\n.inputs a b\n.outputs f\n"
            ".names a b f\n11 1\n00 0\n.end\n"
        )
        with pytest.raises(MigParseError, match="mixed"):
            loads_blif(text)

    def test_missing_model_rejected(self):
        with pytest.raises(MigParseError, match=r"\.model"):
            loads_blif(".inputs a\n.outputs f\n.names a f\n1 1\n.end\n")


class TestAigerImport:
    def test_andor_fixture_semantics(self):
        mig = read_netlist(os.path.join(FIXTURES, "andor.aag"))
        assert mig.name == "andor"
        # symbol table applied
        assert mig.pi_name(0) == "a" and mig.pi_name(1) == "b"
        assert mig.po_name(0) == "and" and mig.po_name(1) == "or"
        for a in (0, 1):
            for b in (0, 1):
                out = simulate_one(mig, {"a": a, "b": b})
                assert out["and"] == (a & b)
                assert out["or"] == (a | b)

    def test_out_of_order_gates(self):
        # gate 6 references gate 8, defined later
        text = "aag 4 1 0 1 2\n2\n6\n6 8 8\n8 2 2\n"
        mig = loads_aiger(text)
        assert simulate_one(mig, {"i0": 1})["o0"] == 1
        assert simulate_one(mig, {"i0": 0})["o0"] == 0

    def test_complemented_output(self):
        text = "aag 3 2 0 1 1\n2\n4\n7\n6 2 4\n"
        mig = loads_aiger(text)
        for a in (0, 1):
            for b in (0, 1):
                out = simulate_one(mig, {"i0": a, "i1": b})
                assert out["o0"] == (0 if (a and b) else 1)

    def test_constant_inputs_to_gates(self):
        # gate AND(lit 1 = const1, a) == a
        text = "aag 2 1 0 1 1\n2\n4\n4 1 2\n"
        mig = loads_aiger(text)
        assert simulate_one(mig, {"i0": 1})["o0"] == 1
        assert simulate_one(mig, {"i0": 0})["o0"] == 0

    def test_latches_rejected(self):
        with pytest.raises(MigParseError, match="latch"):
            loads_aiger("aag 3 1 1 1 0\n2\n4 2\n4\n")

    def test_cyclic_gates_rejected(self):
        text = "aag 3 1 0 1 1\n2\n4\n4 4 2\n"
        with pytest.raises(MigParseError, match="cyclic or undefined"):
            loads_aiger(text)

    def test_undefined_output_rejected(self):
        with pytest.raises(MigParseError, match="undefined literal"):
            loads_aiger("aag 3 1 0 1 0\n2\n6\n")

    def test_binary_aig_header_rejected(self):
        with pytest.raises(MigParseError, match="aag"):
            loads_aiger("aig 3 1 0 1 1\n")


class TestAigerEncodings:
    """One parser serves ``aag`` and ``aig``: a circuit broken the same
    way in both encodings is refused with the same message."""

    # i0 & i1: ``aag 3 2 0 1 1`` / ``aig 3 2 0 1 1`` (deltas 2, 2)
    DEFECTS = [
        ("latches", "aag 3 2 1 1 1\n2\n4\n6\n6 2 4\n",
         b"aig 3 2 1 1 1\n6\n\x02\x02", "sequential AIGER not supported"),
        ("undefined output", "aag 4 2 0 1 1\n2\n4\n8\n6 2 4\n",
         b"aig 4 2 0 1 1\n8\n\x02\x02",
         "output 0 references undefined literal 8"),
        ("header counts", "aag 2 2 0 1 1\n2\n4\n6\n6 2 4\n",
         b"aig 2 2 0 1 1\n6\n\x02\x02", "maxvar 2 below 2 inputs"),
        ("truncated gates", "aag 3 2 0 1 1\n2\n4\n6\n",
         b"aig 3 2 0 1 1\n6\n\x02", "truncated AIGER gate section"),
    ]

    def test_intact_circuit_decodes_identically(self):
        from_ascii = loads_aiger("aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n")
        from_binary = loads_aiger_binary(b"aig 3 2 0 1 1\n6\n\x02\x02")
        assert dumps_mig(from_ascii) == dumps_mig(from_binary)
        assert simulate_one(from_binary, {"i0": 1, "i1": 1})["o0"] == 1

    @pytest.mark.parametrize(
        "text, blob, stem", [d[1:] for d in DEFECTS],
        ids=[d[0] for d in DEFECTS],
    )
    def test_defect_parity(self, text, blob, stem):
        with pytest.raises(MigParseError, match=stem) as ascii_error:
            loads_aiger(text)
        with pytest.raises(MigParseError, match=stem) as binary_error:
            loads_aiger_binary(blob)
        assert str(ascii_error.value) == str(binary_error.value)

    def test_ascii_errors_name_their_line(self):
        with pytest.raises(MigParseError, match=r"^line 3: bad literal 'x'"):
            loads_aiger("aag 2 1 0 1 0\n2\nx\n")
        with pytest.raises(MigParseError, match="line 2: bad input literal 3"):
            loads_aiger("aag 2 1 0 1 0\n3\n2\n")
        # a blank line is a bad literal, not an IndexError
        with pytest.raises(MigParseError, match="line 2: bad literal ''"):
            loads_aiger("aag 2 1 0 1 0\n\n2\n")

    def test_non_ascii_symbol_names_kept(self, tmp_path):
        text = "aag 1 1 0 1 0\n2\n3\ni0 café\no0 ¬λ\n"
        mig = loads_aiger(text)
        assert (mig.pi_name(0), mig.po_name(0)) == ("café", "¬λ")
        path = tmp_path / "named.aag"
        path.write_bytes(text.encode("utf-8"))
        from_file = read_netlist(str(path))
        names = (from_file.pi_name(0), from_file.po_name(0))
        assert names == ("café", "¬λ")
        assert from_file.name == "named"


class TestAigerExport:
    """MIG → ``aag`` text, round-tripped through the importer."""

    @pytest.mark.parametrize("name", ["adder", "ctrl", "dec", "int2float"])
    def test_benchmark_roundtrip(self, name):
        mig = build_benchmark(name, "tiny")
        text = dumps_aiger(mig)
        header = text.splitlines()[0].split()
        assert header[0] == "aag" and int(header[3]) == 0  # no latches
        back = loads_aiger(text)
        assert equivalent(mig, back, exhaustive_limit=16)
        # symbol table carries both boundary name sets
        assert [back.pi_name(i) for i in range(back.num_pis)] == [
            mig.pi_name(i) for i in range(mig.num_pis)
        ]
        assert [back.po_name(i) for i in range(back.num_pos)] == [
            mig.po_name(i) for i in range(mig.num_pos)
        ]

    @pytest.mark.parametrize("seed", range(4))
    def test_randomized_roundtrip(self, seed):
        mig = make_random_mig(5, 30, seed=seed, num_pos=3)
        assert equivalent(mig, loads_aiger(dumps_aiger(mig)))

    def test_constant_outputs(self):
        mig = Mig("consts")
        mig.add_pi("a")
        mig.add_po(0, "lo")
        mig.add_po(1, "hi")
        back = loads_aiger(dumps_aiger(mig))
        out = simulate_one(back, {"a": 0})
        assert (out["lo"], out["hi"]) == (0, 1)

    def test_write_aiger_to_path(self, tmp_path, xor_mig):
        path = tmp_path / "x.aag"
        write_aiger(xor_mig, str(path))
        assert equivalent(xor_mig, read_netlist(str(path)))


class TestAigerBinary:
    """Binary ``.aig`` writer/reader vs the ASCII ``aag`` flavour."""

    @pytest.mark.parametrize("name", ["adder", "ctrl", "dec", "int2float"])
    def test_binary_and_ascii_decode_identically(self, name):
        mig = build_benchmark(name, "tiny")
        from_ascii = loads_aiger(dumps_aiger(mig))
        from_binary = loads_aiger_binary(dumps_aiger_binary(mig))
        # not merely equivalent: both decodings are the same graph
        assert dumps_mig(from_binary) == dumps_mig(from_ascii)
        assert equivalent(mig, from_binary, exhaustive_limit=16)

    @pytest.mark.parametrize("seed", range(4))
    def test_randomized_roundtrip(self, seed):
        mig = make_random_mig(6, 40, seed=seed, num_pos=3)
        back = loads_aiger_binary(dumps_aiger_binary(mig))
        assert equivalent(mig, back)

    def test_symbol_table_preserved(self, xor_mig):
        back = loads_aiger_binary(dumps_aiger_binary(xor_mig))
        assert [back.pi_name(i) for i in range(back.num_pis)] == ["a", "b"]
        assert back.po_name(0) == "f"

    def test_multibyte_deltas(self):
        # >127 gates forces LEB128 continuation bytes in the deltas
        mig = make_random_mig(8, 400, seed=3, num_pos=4)
        blob = dumps_aiger_binary(mig)
        assert equivalent(
            mig, loads_aiger_binary(blob), exhaustive_limit=16
        )

    def test_file_round_trip_and_dispatch(self, tmp_path, small_random_mig):
        path = tmp_path / "g.aig"
        write_aiger_binary(small_random_mig, str(path))
        direct = read_aiger_binary(str(path))
        via_dispatch = read_netlist(str(path))
        assert via_dispatch.name == "g"  # dispatch names by the stem
        direct.name = via_dispatch.name
        assert dumps_mig(direct) == dumps_mig(via_dispatch)
        assert equivalent(small_random_mig, via_dispatch)

    def test_str_input_rejected(self):
        with pytest.raises(MigParseError, match="bytes"):
            loads_aiger_binary("aig 0 0 0 0 0\n")

    def test_aag_header_rejected(self):
        with pytest.raises(MigParseError, match="'aig"):
            loads_aiger_binary(b"aag 0 0 0 0 0\n")

    def test_latches_rejected(self):
        with pytest.raises(MigParseError, match="latch"):
            loads_aiger_binary(b"aig 2 1 1 0 0\n2\n")

    def test_truncated_gate_section(self):
        blob = dumps_aiger_binary(build_benchmark("ctrl", "tiny"))
        with pytest.raises(MigParseError, match="truncated"):
            loads_aiger_binary(blob[: len(blob) // 2])

    def test_bad_header_counts(self):
        with pytest.raises(MigParseError, match="maxvar"):
            loads_aiger_binary(b"aig 1 1 0 0 1\n")

    def test_zero_delta_rejected(self):
        # delta0 == 0 would make the gate its own operand
        with pytest.raises(MigParseError, match="invalid deltas"):
            loads_aiger_binary(b"aig 2 1 0 0 1\n\x00\x00")


class TestPinnedBytes:
    """The writers' bytes over the 18 tiny benchmarks: a change to the
    codec's code paths must not change one of them."""

    DIGESTS = {
        "mig":
            "c1c92738e92b0ec08a56757444e0728428c876731edc82c4ba3dd19d5616b140",
        "aag":
            "d63a5cbcf9526d2f21b40cb58e1dda54ac3fcb0802afdc666ba5109148bd53a7",
        "aig":
            "86c59c081d0789b588070bd892e9f00f0955046f23028f719e744eeca22f3e3a",
        "rm3":
            "7c5e3783c4cb8812df0f3c43a83cd579eb786aafeb9bf3ad96f73ff6089b6116",
    }
    #: ``dumps_mig`` of each benchmark read back from ``aag`` and ``aig``
    DECODED = (
        "c68e6e16e7362e5805f4f8945530c488a33dfe864f3c7942ed657882f5ed5b77"
    )

    def test_writers_are_pinned(self):
        digests = {name: hashlib.sha256() for name in self.DIGESTS}
        for name in BENCHMARK_ORDER:
            mig = build_benchmark(name, "tiny")
            program = compile_pipeline(
                mig, PRESETS["ea-full"], arch="endurance"
            ).program
            digests["mig"].update(dumps_mig(mig).encode())
            digests["aag"].update(dumps_aiger(mig).encode())
            digests["aig"].update(dumps_aiger_binary(mig))
            digests["rm3"].update(dumps_program(program).encode())
        assert {k: d.hexdigest() for k, d in digests.items()} == self.DIGESTS

    def test_aiger_readers_are_pinned(self):
        from_ascii, from_binary = hashlib.sha256(), hashlib.sha256()
        for name in BENCHMARK_ORDER:
            mig = build_benchmark(name, "tiny")
            text = dumps_mig(loads_aiger(dumps_aiger(mig)))
            from_ascii.update(text.encode())
            text = dumps_mig(loads_aiger_binary(dumps_aiger_binary(mig)))
            from_binary.update(text.encode())
        assert from_ascii.hexdigest() == self.DECODED
        assert from_binary.hexdigest() == self.DECODED


class TestReadNetlist:
    def test_dispatch_table_covers_formats(self):
        assert {".mig", ".blif", ".aag", ".aiger", ".aig"} <= set(
            NETLIST_READERS
        )

    def test_unknown_extension(self, tmp_path):
        path = tmp_path / "x.v"
        path.write_text("module x; endmodule\n")
        with pytest.raises(MigParseError, match="extension"):
            read_netlist(str(path))

    def test_name_defaults_to_stem(self, tmp_path, xor_mig):
        path = tmp_path / "renamed.mig"
        write_mig(xor_mig, str(path))
        assert read_netlist(str(path)).name == "xor2"  # .mig keeps header name

    def test_exchange_format_through_dispatch(self, tmp_path, small_random_mig):
        path = tmp_path / "g.mig"
        write_mig(small_random_mig, str(path))
        assert equivalent(small_random_mig, read_netlist(str(path)))


class TestProgramRoundTrip:
    def test_compiled_program_roundtrip(self, tmp_path, tiny_adder):
        program = PlimCompiler(allocation="min_write").compile(tiny_adder)
        path = tmp_path / "p.rm3"
        write_program(program, str(path))
        back = read_program(str(path))
        assert back.instructions == program.instructions
        assert back.num_cells == program.num_cells
        assert back.pi_cells == program.pi_cells
        assert back.po_cells == program.po_cells
        verify_program(back, tiny_adder)

    def test_sealed_program_renders_once(self, tiny_adder, monkeypatch):
        import io
        import pickle

        import repro.mig.io as mig_io

        program = PlimCompiler(allocation="min_write").compile(tiny_adder)
        renders = []
        render = mig_io._render_program
        monkeypatch.setattr(
            mig_io, "_render_program",
            lambda *args: renders.append(1) or render(*args),
        )
        text = dumps_program(program)
        assert dumps_program(program) is text
        assert len(renders) == 1
        back = read_program(io.StringIO(text))
        assert back.instructions == program.instructions
        # the listing stays out of the pickle, so a stored program's
        # bytes do not depend on whether it was rendered
        blob = pickle.dumps(program)
        assert b"RM3" not in blob
        assert dumps_program(pickle.loads(blob)) == text
        assert len(renders) == 2

    def test_hand_built_program_renders_every_time(self):
        from repro.plim.isa import Program

        program = Program(
            instructions=[(-1, -2, 0)], num_cells=1, po_cells=[0], name="x"
        )
        before = dumps_program(program)
        program.instructions.append((-2, -1, 0))
        after = dumps_program(program)
        assert after == before + "RM3 1 0 @0\n"

    def test_bad_operand(self, tmp_path):
        path = tmp_path / "bad.rm3"
        path.write_text("program x\ncells 1\nRM3 ? 0 @0\n")
        with pytest.raises(MigParseError):
            read_program(str(path))

    def test_validation_applied(self, tmp_path):
        path = tmp_path / "bad2.rm3"
        path.write_text("program x\ncells 1\nRM3 0 1 @7\n")
        with pytest.raises(ValueError):
            read_program(str(path))
