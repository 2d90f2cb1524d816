"""Plain-text serialisation of MIGs and PLiM programs.

A small line-oriented exchange format so users can persist graphs,
diff rewriting results, and feed their own circuits to the compiler
without writing Python:

.. code-block:: text

    # anything after '#' is a comment
    mig adder4
    input a0
    input a1
    node n5 = <a0 a1 0>        # majority of two signals and a constant
    node n6 = <~n5 a0 1>       # '~' marks a complemented edge
    output s0 = ~n6

Signals are referenced by *name*: declared input names, previously
declared node names, or the constants ``0``/``1``.  Programs use an
equally simple listing of ``RM3 p q z`` lines with ``@addr`` operands.
BLIF and AIGER netlists import too; :data:`NETLIST_READERS` maps each
netlist extension to its parser.
"""

from __future__ import annotations

import os
from typing import BinaryIO, Dict, List, Optional, TextIO, Tuple, Union

from ..plim.isa import OP_CONST0, OP_CONST1, Program
from .graph import Mig
from .signal import CONST0, CONST1, complement, is_complemented, node_of

PathOrFile = Union[str, TextIO]
PathOrBytes = Union[str, BinaryIO]


def _read(source: Union[PathOrFile, PathOrBytes]) -> Union[str, bytes]:
    """A path's bytes, or what an open file object reads."""
    if not isinstance(source, str):
        return source.read()
    with open(source, "rb") as handle:
        return handle.read()


def _write(target: Union[PathOrFile, PathOrBytes], data) -> None:
    """Write text (as UTF-8) or bytes to a path or open file object."""
    if not isinstance(target, str):
        target.write(data)
        return
    with open(target, "wb") as handle:
        handle.write(data.encode("utf-8") if isinstance(data, str) else data)


def _text(data: Union[str, bytes]) -> str:
    """Text parsers take a string or its UTF-8 bytes (a file's)."""
    return data.decode("utf-8") if isinstance(data, bytes) else data


# ----------------------------------------------------------------------
# MIG text format
# ----------------------------------------------------------------------

def write_mig(mig: Mig, target: PathOrFile) -> None:
    """Serialise *mig* in the textual exchange format."""
    _write(target, dumps_mig(mig))


def dumps_mig(mig: Mig) -> str:
    """*mig* in the textual exchange format."""
    lines = [f"mig {mig.name or 'unnamed'}"]
    lines.extend(f"input {mig.pi_name(i)}" for i in range(mig.num_pis))
    names: Dict[int, str] = {0: "0"}
    for i, node in enumerate(mig.pis()):
        names[node] = mig.pi_name(i)
    live = mig.live_mask()
    for node in mig.gates():
        if not live[node]:
            continue
        names[node] = f"n{node}"
        ops = " ".join(_format_ref(s, names) for s in mig.fanins(node))
        lines.append(f"node n{node} = <{ops}>")
    for i, s in enumerate(mig.pos()):
        lines.append(f"output {mig.po_name(i)} = {_format_ref(s, names)}")
    return "\n".join(lines) + "\n"


def _format_ref(signal: int, names: Dict[int, str]) -> str:
    if signal == CONST0:
        return "0"
    if signal == CONST1:
        return "1"
    prefix = "~" if is_complemented(signal) else ""
    return prefix + names[node_of(signal)]


class MigParseError(ValueError):
    """Malformed MIG text."""


def read_mig(source: PathOrFile) -> Mig:
    """Parse the textual exchange format back into a :class:`Mig`."""
    return loads_mig(_read(source))


def loads_mig(text: Union[str, bytes]) -> Mig:
    """Parse MIG text from a string (or its UTF-8 bytes)."""
    text = _text(text)
    mig: Mig = Mig()
    names: Dict[str, int] = {"0": CONST0, "1": CONST1}
    seen_header = False

    def resolve(token: str, line_no: int) -> int:
        compl = token.startswith("~")
        name = token[1:] if compl else token
        if name not in names:
            raise MigParseError(f"line {line_no}: unknown signal {name!r}")
        sig = names[name]
        return complement(sig) if compl else sig

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "mig":
            mig.name = parts[1] if len(parts) > 1 else ""
            seen_header = True
        elif kind == "input":
            if len(parts) != 2:
                raise MigParseError(f"line {line_no}: bad input declaration")
            if parts[1] in names:
                raise MigParseError(
                    f"line {line_no}: duplicate name {parts[1]!r}"
                )
            names[parts[1]] = mig.add_pi(parts[1])
        elif kind == "node":
            # node NAME = <a b c>
            try:
                name = parts[1]
                assert parts[2] == "="
                body = line.split("=", 1)[1].strip()
                assert body.startswith("<") and body.endswith(">")
                ops = body[1:-1].split()
                assert len(ops) == 3
            except (IndexError, AssertionError):
                raise MigParseError(
                    f"line {line_no}: expected 'node NAME = <a b c>'"
                ) from None
            if name in names:
                raise MigParseError(
                    f"line {line_no}: duplicate name {name!r}"
                )
            sig = mig.add_maj(*(resolve(op, line_no) for op in ops))
            names[name] = sig
        elif kind == "output":
            try:
                name = parts[1]
                assert parts[2] == "="
                ref = parts[3]
            except (IndexError, AssertionError):
                raise MigParseError(
                    f"line {line_no}: expected 'output NAME = signal'"
                ) from None
            mig.add_po(resolve(ref, line_no), name)
        else:
            raise MigParseError(f"line {line_no}: unknown directive {kind!r}")
    if not seen_header:
        raise MigParseError("missing 'mig NAME' header")
    return mig


# ----------------------------------------------------------------------
# BLIF netlists
# ----------------------------------------------------------------------

def read_blif(source: PathOrFile) -> Mig:
    """Parse a (combinational, single-clause) BLIF netlist into a MIG."""
    return loads_blif(_read(source))


def loads_blif(text: Union[str, bytes]) -> Mig:
    """Parse BLIF text from a string (or its UTF-8 bytes).

    Supports ``.model``/``.inputs``/``.outputs``/``.names`` with PLA
    cover rows (on-set or off-set planes) and ``\\`` line continuations.
    Each ``.names`` body becomes sum-of-products over the existing MIG
    builders.  Latches, subcircuits, and multi-model files raise
    :class:`MigParseError`; tables may appear in any order.
    """
    text = _text(text)
    # Fold continuations, strip comments, keep original line numbers.
    lines = []
    pending, pending_no = "", 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].rstrip()
        if not pending:
            pending_no = line_no
        if body.endswith("\\"):
            pending += body[:-1] + " "
            continue
        merged = (pending + body).strip()
        pending = ""
        if merged:
            lines.append((pending_no, merged))
    if pending.strip():
        lines.append((pending_no, pending.strip()))

    model = ""
    inputs: list = []
    outputs: list = []
    # output name -> (line_no, input names, cover rows)
    tables: Dict[str, tuple] = {}
    current: tuple = None
    seen_model = False

    for line_no, line in lines:
        if line.startswith("."):
            parts = line.split()
            directive = parts[0]
            current = None
            if directive == ".model":
                if seen_model:
                    raise MigParseError(
                        f"line {line_no}: multiple .model sections"
                    )
                seen_model = True
                model = parts[1] if len(parts) > 1 else ""
            elif directive == ".inputs":
                inputs.extend(parts[1:])
            elif directive == ".outputs":
                outputs.extend(parts[1:])
            elif directive == ".names":
                if len(parts) < 2:
                    raise MigParseError(f"line {line_no}: empty .names")
                out = parts[-1]
                if out in tables or out in inputs:
                    raise MigParseError(
                        f"line {line_no}: duplicate definition of {out!r}"
                    )
                current = (line_no, parts[1:-1], [])
                tables[out] = current
            elif directive == ".end":
                current = None
            else:
                raise MigParseError(
                    f"line {line_no}: unsupported directive {directive!r}"
                )
        else:
            if current is None:
                raise MigParseError(
                    f"line {line_no}: cover row outside .names"
                )
            row = line.split()
            n_ins = len(current[1])
            if n_ins == 0:
                pattern, bit = "", row[0]
            elif len(row) == 2:
                pattern, bit = row
            else:
                raise MigParseError(f"line {line_no}: bad cover row")
            if len(pattern) != n_ins or bit not in ("0", "1") or any(
                ch not in "01-" for ch in pattern
            ):
                raise MigParseError(f"line {line_no}: bad cover row")
            current[2].append((pattern, bit))

    if not seen_model:
        raise MigParseError("missing .model header")

    mig = Mig(model)
    signals: Dict[str, int] = {}
    for name in inputs:
        if name in signals:
            raise MigParseError(f"duplicate input {name!r}")
        signals[name] = mig.add_pi(name)

    def elaborate(name: str, stack: tuple) -> int:
        if name in signals:
            return signals[name]
        if name not in tables:
            raise MigParseError(f"undefined signal {name!r}")
        if name in stack:
            raise MigParseError(f"combinational loop through {name!r}")
        line_no, ins, rows = tables[name]
        operands = [elaborate(i, stack + (name,)) for i in ins]
        planes = {bit for _, bit in rows}
        if len(planes) > 1:
            raise MigParseError(
                f"line {line_no}: mixed on-set/off-set rows for {name!r}"
            )
        terms = []
        for pattern, _ in rows:
            literals = []
            for ch, sig in zip(pattern, operands):
                if ch == "1":
                    literals.append(sig)
                elif ch == "0":
                    literals.append(complement(sig))
            term = CONST1
            for lit in literals:
                term = mig.add_and(term, lit)
            terms.append(term)
        plane = CONST0
        for term in terms:
            plane = mig.add_or(plane, term)
        if planes == {"0"}:
            plane = complement(plane)
        signals[name] = plane
        return plane

    for name in outputs:
        mig.add_po(elaborate(name, ()), name)
    return mig


# ----------------------------------------------------------------------
# AIGER netlists: ASCII (``aag``) and binary (``aig``)
# ----------------------------------------------------------------------

def read_aiger(source: PathOrFile) -> Mig:
    """Parse an ASCII AIGER (``aag``) netlist into a MIG."""
    return loads_aiger(_read(source))


def read_aiger_binary(source: PathOrBytes) -> Mig:
    """Parse a binary AIGER (``aig``) netlist file into a MIG."""
    return loads_aiger_binary(_read(source))


def loads_aiger(text: Union[str, bytes], name: str = "") -> Mig:
    """Parse ASCII AIGER text from a string (or its UTF-8 bytes).

    Combinational circuits only — a non-zero latch count raises
    :class:`MigParseError`.  The optional symbol table supplies PI/PO
    names; the comment section (after ``c``) is ignored.
    """
    return _loads_aiger(_text(text), False, name)


def loads_aiger_binary(data: bytes, name: str = "") -> Mig:
    """Parse binary AIGER (``aig``) bytes into a MIG.

    Combinational circuits only, mirroring :func:`loads_aiger`.  Inputs
    are the implicit literals ``2..2I``; gate definitions are the binary
    delta pairs, so operands always precede their gate.
    """
    if isinstance(data, str):
        raise MigParseError("binary AIGER input must be bytes, not str")
    return _loads_aiger(bytes(data), True, name)


def _loads_aiger(data: Union[str, bytes], binary: bool, name: str) -> Mig:
    """Parse ``aag`` text or ``aig`` bytes.  The encodings differ in
    their inputs (ASCII lines; implicit ``2..2I`` in binary) and gates
    (ASCII lines in any order; binary delta pairs in ascending order).
    ASCII symbol names pass through verbatim, binary ones decode as
    ASCII."""
    magic = "aig" if binary else "aag"
    lines = None if binary else data.splitlines()
    # next line index (ASCII) or byte offset (binary); 1-based line number
    pos = line_no = 0

    def line(what: str) -> str:
        nonlocal pos, line_no
        line_no += 1
        if binary:
            end = data.find(b"\n", pos)
            if end < 0:
                raise MigParseError(f"truncated AIGER {what}")
            text = data[pos:end].decode("ascii", errors="replace")
            pos = end + 1
            return text
        if pos == len(lines):
            raise MigParseError(f"truncated AIGER {what}")
        pos += 1
        return lines[pos - 1]

    def literal(text: str) -> int:
        token = (text.split() or [""])[0]
        try:
            lit = int(token)
        except ValueError:
            raise MigParseError(
                f"line {line_no}: bad literal {token!r}"
            ) from None
        if lit < 0 or lit // 2 > m:
            raise MigParseError(
                f"line {line_no}: literal {lit} exceeds maxvar {m}"
            )
        return lit

    def delta() -> int:
        nonlocal pos
        value, shift = 0, 0
        while True:
            if pos >= len(data):
                raise MigParseError("truncated AIGER gate section")
            byte = data[pos]
            pos += 1
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7

    header = line("header")
    if not header.startswith(magic + " "):
        raise MigParseError(f"missing '{magic} M I L O A' header")
    try:
        m, i, latches, o, a = (int(t) for t in header.split()[1:6])
    except ValueError:
        raise MigParseError(f"malformed '{magic} M I L O A' header") from None
    if latches:
        raise MigParseError(
            f"sequential AIGER not supported ({latches} latches)"
        )
    if m < i + a:
        raise MigParseError(f"maxvar {m} below {i} inputs + {a} gates")

    mig = Mig(name)
    # aiger variable index -> mig signal of the positive literal
    var_sig: Dict[int, Optional[int]] = {0: CONST0}
    for idx in range(i):
        lit = 2 * (idx + 1) if binary else literal(line("inputs"))
        if lit & 1 or lit == 0 or lit // 2 in var_sig:
            raise MigParseError(f"line {line_no}: bad input literal {lit}")
        var_sig[lit // 2] = mig.add_pi(f"i{idx}")

    out_lits = [literal(line("outputs")) for _ in range(o)]

    gates = []
    for k in range(a):
        if binary:
            lhs = 2 * (i + k + 1)
            delta0, delta1 = delta(), delta()
            rhs0 = lhs - delta0
            rhs1 = rhs0 - delta1
            if delta0 == 0 or rhs1 < 0:
                raise MigParseError(
                    f"gate {lhs}: invalid deltas ({delta0}, {delta1})"
                )
        else:
            parts = line("gate section").split()
            if len(parts) != 3:
                raise MigParseError(f"line {line_no}: bad and-gate line")
            lhs, rhs0, rhs1 = (literal(t) for t in parts)
            if lhs & 1 or lhs // 2 in var_sig:
                raise MigParseError(
                    f"line {line_no}: bad and-gate output literal {lhs}"
                )
        var_sig[lhs // 2] = None
        gates.append((lhs // 2, rhs0, rhs1))

    def resolve(lit: int) -> Optional[int]:
        sig = var_sig.get(lit // 2)
        if sig is None:
            return None
        return complement(sig) if lit & 1 else sig

    # ASCII gates may reference later ones in non-reindexed files;
    # iterate until the worklist stops shrinking.  Binary gates resolve
    # in one pass.
    remaining = gates
    while remaining:
        deferred = []
        for var, rhs0, rhs1 in remaining:
            s0, s1 = resolve(rhs0), resolve(rhs1)
            if s0 is None or s1 is None:
                deferred.append((var, rhs0, rhs1))
                continue
            var_sig[var] = mig.add_and(s0, s1)
        if len(deferred) == len(remaining):
            raise MigParseError(
                "cyclic or undefined and-gate operands: "
                + ", ".join(str(v * 2) for v, _, _ in deferred[:5])
            )
        remaining = deferred

    if binary:
        symbols = data[pos:].decode("ascii", errors="replace").splitlines()
    else:
        symbols = lines[pos:]
    po_names = {}
    for text in symbols:
        parts = text.split()
        if not parts:
            continue
        tag = parts[0]
        if tag == "c":
            break
        if len(parts) == 2 and tag[0] in "io" and tag[1:].isdigit():
            idx = int(tag[1:])
            if tag[0] == "i" and idx < i:
                mig._pi_names[idx] = parts[1]
            elif tag[0] == "o" and idx < o:
                po_names[idx] = parts[1]

    for idx, lit in enumerate(out_lits):
        sig = resolve(lit)
        if sig is None:
            raise MigParseError(
                f"output {idx} references undefined literal {lit}"
            )
        mig.add_po(sig, po_names.get(idx, f"o{idx}"))
    return mig


def _mig_to_aig(mig: Mig) -> Tuple[int, List[Tuple[int, int]], List[int]]:
    """Decompose *mig* into an and-inverter gate list.

    MAJ nodes expand as ``maj(a,b,c) = ab + ac + bc`` with ORs expressed
    through De Morgan inverters.  Structural hashing and constant folding
    keep the expansion compact.  Returns ``(num_inputs, gates, outputs)``
    where ``gates[k] = (rhs0, rhs1)`` (``rhs0 >= rhs1``) defines AIGER
    literal ``2 * (num_inputs + k + 1)`` and ``outputs`` are literals.
    """
    node_lit: Dict[int, int] = {}
    for idx, node in enumerate(mig.pis()):
        node_lit[node] = 2 * (idx + 1)
    num_inputs = mig.num_pis
    gates: List[Tuple[int, int]] = []
    cache: Dict[Tuple[int, int], int] = {}

    def aig_and(x: int, y: int) -> int:
        lo, hi = (x, y) if x <= y else (y, x)
        if lo == 0:
            return 0
        if lo == 1:
            return hi
        if lo == hi:
            return lo
        if lo ^ 1 == hi:
            return 0
        key = (hi, lo)
        lit = cache.get(key)
        if lit is None:
            lit = 2 * (num_inputs + len(gates) + 1)
            gates.append(key)
            cache[key] = lit
        return lit

    def aig_or(x: int, y: int) -> int:
        return aig_and(x ^ 1, y ^ 1) ^ 1

    def sig_lit(signal: int) -> int:
        if signal == CONST0:
            return 0
        if signal == CONST1:
            return 1
        lit = node_lit[node_of(signal)]
        return lit ^ 1 if is_complemented(signal) else lit

    live = mig.live_mask()
    for node in mig.gates():
        if not live[node]:
            continue
        a, b, c = (sig_lit(s) for s in mig.fanins(node))
        node_lit[node] = aig_or(
            aig_and(a, b), aig_or(aig_and(a, c), aig_and(b, c))
        )
    outputs = [sig_lit(s) for s in mig.pos()]
    return num_inputs, gates, outputs


def _aiger_symbols(mig: Mig) -> List[str]:
    lines = []
    for idx in range(mig.num_pis):
        lines.append(f"i{idx} {mig.pi_name(idx)}")
    for idx in range(mig.num_pos):
        lines.append(f"o{idx} {mig.po_name(idx)}")
    return lines


def dumps_aiger(mig: Mig) -> str:
    """Serialise *mig* as an ASCII AIGER (``aag``) netlist.

    The MIG is decomposed into and-inverter gates first (see
    :func:`dumps_aiger_binary` for the compact binary flavour), so the
    result round-trips through :func:`loads_aiger` to an equivalent
    circuit, not an identical graph.
    """
    num_inputs, gates, outputs = _mig_to_aig(mig)
    maxvar = num_inputs + len(gates)
    lines = [f"aag {maxvar} {num_inputs} 0 {len(outputs)} {len(gates)}"]
    lines.extend(str(2 * (idx + 1)) for idx in range(num_inputs))
    lines.extend(str(lit) for lit in outputs)
    for k, (rhs0, rhs1) in enumerate(gates):
        lines.append(f"{2 * (num_inputs + k + 1)} {rhs0} {rhs1}")
    lines.extend(_aiger_symbols(mig))
    return "\n".join(lines) + "\n"


def write_aiger(mig: Mig, target: PathOrFile) -> None:
    """:func:`dumps_aiger` to a path or text file object."""
    _write(target, dumps_aiger(mig))


def _encode_delta(value: int) -> bytes:
    out = bytearray()
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def dumps_aiger_binary(mig: Mig) -> bytes:
    """Serialise *mig* as a binary AIGER (``aig``) netlist.

    Same and-inverter decomposition as :func:`dumps_aiger`; gates are
    stored as the standard 7-bit variable-length delta pairs
    ``(lhs - rhs0, rhs0 - rhs1)`` in ascending variable order, inputs
    are implicit literals ``2..2I``.
    """
    num_inputs, gates, outputs = _mig_to_aig(mig)
    maxvar = num_inputs + len(gates)
    chunks = [
        f"aig {maxvar} {num_inputs} 0 {len(outputs)} {len(gates)}\n".encode(
            "ascii"
        )
    ]
    chunks.extend(f"{lit}\n".encode("ascii") for lit in outputs)
    for k, (rhs0, rhs1) in enumerate(gates):
        lhs = 2 * (num_inputs + k + 1)
        chunks.append(_encode_delta(lhs - rhs0))
        chunks.append(_encode_delta(rhs0 - rhs1))
    symbols = _aiger_symbols(mig)
    if symbols:
        chunks.append(("\n".join(symbols) + "\n").encode("ascii"))
    return b"".join(chunks)


def write_aiger_binary(mig: Mig, target: PathOrBytes) -> None:
    """:func:`dumps_aiger_binary` to a path or binary file object."""
    _write(target, dumps_aiger_binary(mig))


# ----------------------------------------------------------------------
# Format dispatch
# ----------------------------------------------------------------------

#: Netlist file extension -> parser of the file's bytes: the native
#: exchange format, BLIF, ASCII AIGER and binary AIGER.
NETLIST_READERS = {
    ".mig": loads_mig,
    ".blif": loads_blif,
    ".aag": loads_aiger,
    ".aiger": loads_aiger,
    ".aig": loads_aiger_binary,
}


def read_netlist(path: str) -> Mig:
    """Read a circuit file, dispatching on its extension."""
    return loads_netlist(_read(path), path)


def netlist_extension(path: str) -> str:
    """*path*'s extension, lower-cased, refused unless
    :data:`NETLIST_READERS` has a parser for it."""
    ext = os.path.splitext(path)[1].lower()
    if ext not in NETLIST_READERS:
        raise MigParseError(
            f"unrecognised netlist extension {ext!r} for {path!r}"
            f" (expected one of: {', '.join(sorted(NETLIST_READERS))})"
        )
    return ext


def loads_netlist(data: Union[str, bytes], path: str) -> Mig:
    """Parse the bytes of netlist file *path* (text for a text format)
    by its extension; the graph's name defaults to the file stem."""
    mig = NETLIST_READERS[netlist_extension(path)](data)
    if not mig.name:
        mig.name = os.path.splitext(os.path.basename(path))[0]
    return mig


# ----------------------------------------------------------------------
# Program text format
# ----------------------------------------------------------------------

def write_program(program: Program, target: PathOrFile) -> None:
    """Serialise a PLiM program as a readable instruction listing."""
    _write(target, dumps_program(program))


def dumps_program(program: Program) -> str:
    """The instruction listing of *program*, rendered once per sealed
    program (see :meth:`~repro.plim.isa.Program.listing`)."""
    return program.listing(_render_program)


def _render_program(program: Program) -> str:
    lines = [
        f"program {program.name or 'unnamed'}",
        f"cells {program.num_cells}",
    ]
    if program.pi_cells:
        lines.append("inputs " + " ".join(map(str, program.pi_cells)))
    if program.po_cells:
        lines.append("outputs " + " ".join(map(str, program.po_cells)))
    lines.extend(
        f"RM3 {_op_str(p)} {_op_str(q)} @{z}"
        for p, q, z in program.instructions
    )
    return "\n".join(lines) + "\n"


def _op_str(op: int) -> str:
    if op == OP_CONST0:
        return "0"
    if op == OP_CONST1:
        return "1"
    return f"@{op}"


def read_program(source: PathOrFile) -> Program:
    """Parse a program listing back into a :class:`Program`."""
    text = _text(_read(source))
    program = Program()

    def parse_op(token: str, line_no: int) -> int:
        if token == "0":
            return OP_CONST0
        if token == "1":
            return OP_CONST1
        if token.startswith("@"):
            return int(token[1:])
        raise MigParseError(f"line {line_no}: bad operand {token!r}")

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "program":
            program.name = parts[1] if len(parts) > 1 else ""
        elif parts[0] == "cells":
            program.num_cells = int(parts[1])
        elif parts[0] == "inputs":
            program.pi_cells = [int(t) for t in parts[1:]]
        elif parts[0] == "outputs":
            program.po_cells = [int(t) for t in parts[1:]]
        elif parts[0] == "RM3":
            if len(parts) != 4 or not parts[3].startswith("@"):
                raise MigParseError(f"line {line_no}: bad RM3 line")
            program.instructions.append(
                (
                    parse_op(parts[1], line_no),
                    parse_op(parts[2], line_no),
                    int(parts[3][1:]),
                )
            )
        else:
            raise MigParseError(
                f"line {line_no}: unknown directive {parts[0]!r}"
            )
    program.validate()
    return program
