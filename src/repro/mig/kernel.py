"""Pluggable bit-parallel simulation kernels.

The harness evaluates every MIG function two ways — bit-parallel
simulation of the graph and execution of its compiled PLiM program — and
the graph side is a pure streaming computation over the memoized flat
gate records (:meth:`repro.mig.graph.Mig.flat_gates`).  This module
abstracts that computation behind a *kernel* so the engine is
interchangeable:

* :class:`BigintKernel` — the reference engine.  Simulation words are
  plain Python integers; every gate costs a handful of bigint boolean
  operations.  Always available, no dependencies.
* :class:`NumpyKernel` — the level-batched ``uint64`` lane-array
  engine.  The pattern window is packed 64 patterns per lane, and gates
  are grouped by MIG level (fanins always sit at strictly lower levels,
  so a whole level is data-independent): each level executes as a
  handful of large 2-D ufunc calls per gate kind (majority, or AND/OR
  for gates with a constant fanin) over ``(gates, lanes)`` matrices via
  precomputed gather indices.  It runs on the calling
  thread; concurrent callers (``repro serve`` workers simulating one
  warm graph) each bind their own buffers.

Both kernels consume the same flat gate records — complement attributes
pre-folded into XOR masks, so neither pays per-pattern complement
branches — and both speak Python-int words at the boundary: the numpy
kernel's outputs are bit-identical to the reference engine's, which the
backend-parity tests assert over random graphs and the full registry.

Selection
---------
The engine is not a user choice: :func:`get_kernel` returns the numpy
kernel when numpy is importable and the bigint kernel otherwise.  The
numpy kernel itself hands pattern windows no wider than one 64-bit lane
to the bigint engine, where a Python-int operation beats numpy dispatch.

Memo
----
Each kernel's :meth:`simulate` keeps, per graph and per engine, the
last stimulus ``(tuple(pi_values), mask)`` and its outputs in the
graph's ``_derived`` memo, which any mutation and pickling drop.  A
repeated request (a table row verifies nine programs against one
source graph with one seeded stimulus) returns a copy without running
the engine.  A chunked exhaustive sweep misses on every chunk, and a
degraded fallback is never stored.

Exhaustive equivalence (:func:`repro.mig.simulate.equivalent`) also
remembers each graph's whole exhaustive output table, in the
``("exhaustive", engine)`` slot of the same memo: a read-only
``(POs, 2**num_pis / 64)`` ``uint64`` array in true polarity on the
numpy engine (:meth:`NumpyKernel.exhaustive_equivalent`), a tuple of
``2**num_pis``-bit ints on the bigint kernel (the generic chunk path).
Neither depends on the window width, so pairs swept at different
widths share them.  The first sweep of a graph that reaches the end
stores the table, and an equivalent partner gets the same object; a
sweep that stops at a differing window, fails or is demoted stores
nothing.  A graph with a known table is not swept again: two known
tables are compared directly — a hit that never reaches the numpy
guard or its ``kernel_fail`` chaos hook — and one known table is
compared window by window with the other graph's sweep.  So prove-suite's
35 checks sweep each of their 28 graphs once, not 70 times.  The
perfbench ``kernel.patterns`` count (hence ``kernel.patterns_per_s``)
is per ``equivalent`` call, so it counts remembered sweeps too.  The
memo lives below the traced ``simulate``/``exhaustive_window`` entry
points: a numpy sweep runs :func:`_window_rows`, not those methods.

Degradation
-----------
Runtime failures inside the numpy engine degrade gracefully: both
kernels are bit-identical, so a fault mid-job is recoverable by
recomputing on the reference engine (**numpy → bigint**).  Every numpy
dispatch is guarded — on failure the call falls back to bigint, a
``kernel_degraded`` event is recorded (:mod:`repro.resilience.events`,
surfaced in run manifests), and inside a :func:`degradation_scope` the
demotion is *sticky* for the rest of the job, so a faulting engine is
not re-tried call by call.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from itertools import groupby
from typing import List, Optional, Sequence, Tuple

from ..resilience import events as _res_events
from ..resilience import faults as _res_faults
from .graph import Mig

try:  # numpy is optional: the bigint kernel needs nothing beyond CPython
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the without-numpy CI job
    _np = None


def resolve_sim_threads() -> int:
    """Simulation threads per call: always 1 (the calling thread).

    Kept for callers that record it as run provenance.
    """
    return 1


def _remembered(
    mig: Mig, engine: str, pi_values: Sequence[int], mask: int, run
) -> Optional[List[int]]:
    """``run(mig, pi_values, mask)``, or a copy of *engine*'s last outputs
    on *mig* when the stimulus repeats (see "Memo" above).

    *run* returns ``None`` when the engine declines or fails; nothing is
    stored then.
    """
    key = (tuple(pi_values), mask)
    slot = ("simulate", engine)
    entry = mig._derived.get(slot)
    if entry is not None and entry[0] == key:
        return list(entry[1])
    outputs = run(mig, pi_values, mask)
    if outputs is not None:
        mig._derived[slot] = (key, tuple(outputs))
    return outputs


def _bigint_simulate(mig: Mig, pi_values: Sequence[int], mask: int) -> List[int]:
    """Reference engine: one Python-int word per node.

    The complement XOR masks from the flat gate records are ``0`` or
    ``-1``; ``xor & mask`` widens them to the pattern window, so the
    inner loop is branch-free.
    """
    values = [0] * mig.num_nodes
    for node, word in zip(mig.pis(), pi_values):
        values[node] = word & mask
    for node, na, xa, nb, xb, nc, xc in mig.flat_gates():
        a = values[na] ^ (xa & mask)
        b = values[nb] ^ (xb & mask)
        c = values[nc] ^ (xc & mask)
        # <a b c> = (a & b) | ((a | b) & c): 4 ops instead of the
        # textbook 5-op (a&b)|(a&c)|(b&c).
        values[node] = (a & b) | ((a | b) & c)
    outputs = []
    for s in mig.pos():
        word = values[s >> 1]
        if s & 1:
            word ^= mask
        outputs.append(word & mask)
    return outputs


class BigintKernel:
    """Pure-Python engine over arbitrary-precision integer words."""

    name = "bigint"
    #: Preferred word width (patterns per round) for randomized checks.
    random_width = 64

    def chunk_bits_for(self, mig: Mig) -> int:
        """log2 of the widest exhaustive simulation word (graph-independent).

        2^13-bit words keep every node value L1/L2-resident, where
        CPython's bigint boolean loops run near memory speed; wider words
        were measured slower in the original chunking experiments.
        """
        return 13

    def simulate(
        self, mig: Mig, pi_values: Sequence[int], mask: int
    ) -> List[int]:
        return _remembered(mig, self.name, pi_values, mask, _bigint_simulate)


# ----------------------------------------------------------------------
# Graceful degradation (numpy -> bigint)
# ----------------------------------------------------------------------

#: Per-thread stack of degradation frames; a frame marks a job boundary
#: within which a numpy-engine failure demotes every later dispatch.
_DEGRADE = threading.local()


@contextmanager
def degradation_scope(job: Optional[str] = None):
    """Mark a job boundary for sticky numpy-kernel demotion.

    Inside the scope, the first runtime failure of the numpy engine
    demotes *this thread's* remaining dispatches to the bigint reference
    engine (recorded as one ``kernel_degraded`` event tagged with
    *job*); the demotion ends with the scope, so the next job tries the
    numpy engine again.  Outside any scope failures still fall back, but
    per call.  The job runner enters one scope per (benchmark,
    configurations) job — in worker processes and the serial path alike
    — and :meth:`repro.flow.Flow.run` one per run.  Yields the frame
    dict (``{"job": ..., "demoted": set-of-engine-names}``) so tests can
    observe demotion.
    """
    stack = getattr(_DEGRADE, "stack", None)
    if stack is None:
        stack = _DEGRADE.stack = []
    frame = {"job": job, "demoted": set()}
    stack.append(frame)
    try:
        yield frame
    finally:
        stack.pop()


def _degrade_frame() -> Optional[dict]:
    stack = getattr(_DEGRADE, "stack", None)
    return stack[-1] if stack else None


def _degrade_job() -> Optional[str]:
    frame = _degrade_frame()
    return frame["job"] if frame else None


def _demoted(backend: str) -> bool:
    frame = _degrade_frame()
    return bool(frame) and backend in frame["demoted"]


def _demote(error: BaseException, backend: str, fallback: str) -> None:
    """Record an engine failure and make the demotion scope-sticky."""
    frame = _degrade_frame()
    if frame is not None:
        frame["demoted"].add(backend)
    _res_events.record(
        "kernel_degraded",
        job=frame["job"] if frame else None,
        backend=backend,
        fallback=fallback,
        error=repr(error),
    )


# ----------------------------------------------------------------------
# numpy engine: plan compilation + per-thread executables
# ----------------------------------------------------------------------

#: Pattern windows at or below one uint64 lane stay on the bigint
#: engine: a 64-bit Python int operation beats numpy dispatch overhead.
_NUMPY_MIN_WIDTH = 65

#: Soft cap on the node-value matrix (bytes); exhaustive chunks shrink
#: until ``num_nodes * lanes * 8`` fits.
_NUMPY_MEM_BUDGET = 64 << 20

#: Executables kept per thread per plan (distinct widths); interleaved
#: widths — e.g. serve jobs at different presets on one warm graph —
#: rebind instead of thrashing a single-slot cache.
_EXEC_LRU_SIZE = 4


def _compile_gate_program(mig: Mig):
    """Polarity-propagated, operand-rotated gate program + PO map.

    Gates are compiled to the 4-op majority form

        maj(a, b, c) = b ^ ((a ^ b) & (b ^ c))

    with two algebraic rewrites applied per gate to minimise complement
    work:

    * *polarity propagation* — each node's value is stored in a chosen
      polarity (possibly inverted); since majority is self-dual
      (``maj(~a,~b,~c) = ~maj(a,b,c)``), the stored polarity is picked so
      the trailing output inversion is always free, and fanin edge
      complements are re-derived against the fanins' stored polarities;
    * *operand rotation* — majority is symmetric, so the middle operand
      ``b`` is chosen to minimise the two pair-complement terms.  Of any
      three polarities at least two agree, so rotation always leaves **at
      most one** of the two pair complements set — an invariant the
      level-batched executor relies on to keep tail-lane bits clean.

    Returns ``(program, po_extract)`` where *program* is a list of
    ``(node, a, b, c, flip_ab, flip_bc)`` tuples in flat-gate (topological)
    order and *po_extract* is ``(node, flip)`` per PO with the stored
    polarity folded in.
    """
    program: List[Tuple[int, int, int, int, bool, bool]] = []
    pol = [False] * mig.num_nodes
    for node, na, xa, nb, xb, nc, xc in mig.flat_gates():
        operands = (
            (na, bool(xa) ^ pol[na]),
            (nb, bool(xb) ^ pol[nb]),
            (nc, bool(xc) ^ pol[nc]),
        )
        best = None
        for mid in range(3):
            (a, pa), (b, pb), (c, pc) = (
                operands[mid - 2],
                operands[mid],
                operands[mid - 1],
            )
            cost = (pa ^ pb) + (pb ^ pc)
            if best is None or cost < best[0]:
                best = (cost, a, b, c, pa ^ pb, pb ^ pc, pb)
        _, a, b, c, fab, fbc, pb = best
        # Store maj of the triple with all polarities flipped by pb:
        # self-duality makes the stored value maj ^ pb, for free.
        pol[node] = pb
        program.append((node, a, b, c, fab, fbc))
    po_extract = [(s >> 1, bool(s & 1) ^ pol[s >> 1]) for s in mig.pos()]
    return program, po_extract


def _budget_chunk_bits(num_nodes: int) -> int:
    """Widest exhaustive chunk whose value matrix fits the memory budget.

    Wide rows amortise numpy dispatch overhead, so prefer 2^18 patterns
    (32 KiB per node row) and shrink — never below the bigint kernel's
    2^13 — for graphs whose node count would blow
    :data:`_NUMPY_MEM_BUDGET`.
    """
    bits = 18
    while bits > 13 and (num_nodes << (bits - 6 + 3)) > _NUMPY_MEM_BUDGET:
        bits -= 1
    return bits


def _tls_executable(plan, num_lanes: int, width: int):
    """This thread's executable for *width*, via a per-width LRU.

    Executables (value matrices + work buffers) are bound per thread —
    concurrent ``serve`` jobs each own their buffers, so no lock
    serializes simulation of a shared warm graph — and cached per width
    in a small LRU, so interleaved widths (jobs at different presets on
    one graph) rebind instead of rebuilding on every call.
    """
    cache = getattr(plan._tls, "cache", None)
    if cache is None:
        cache = plan._tls.cache = OrderedDict()
    exe = cache.get(width)
    if exe is not None:
        cache.move_to_end(width)
        return exe
    exe = _BatchExec(plan, num_lanes, width)
    cache[width] = exe
    if len(cache) > _EXEC_LRU_SIZE:
        cache.popitem(last=False)
    return exe


def _gate_kind(entry):
    """``(rank, flip, operands)`` of one gate-program entry.

    The entry computes ``maj(a ^ fab, b, c ^ fbc)`` over stored rows.
    A constant operand (node 0, an all-zero row) turns it into a
    two-input gate — ``maj(x, y, 0) = x & y``, ``maj(x, y, 1) = x | y``
    — which the executor runs with two gathers and one ufunc instead of
    three gathers and four: rank 0 is ``(u ^ flip) & w``, rank 1 is
    ``u | w``, each over ``operands = (u, w)``.  Rank 2 is a full
    majority over ``operands = (a, b, c, fab, fbc)``.  Rotation leaves
    at most one of ``fab``/``fbc`` set, so an OR never needs a flip.
    Fanins are sorted, so the constant comes first and rotation places
    it at ``b`` or ``c``; anywhere else the gate stays a majority.
    """
    _, a, b, c, fab, fbc = entry
    if c == 0:
        return (1, False, (a, b)) if fbc else (0, fab, (a, b))
    if b == 0:
        return (0, True, (c, a)) if fbc else (0, fab, (a, c))
    return (2, False, (a, b, c, fab, fbc))


class _BatchGroup:
    """One run of same-kind gates within a MIG level (width-independent).

    The group's outputs occupy the contiguous row span ``[lo, hi)`` of
    the value matrix, so results are written in place with no scatter
    copy; ``ai``/``bi``/``ci`` gather fanin rows into ``(gates, lanes)``
    matrices.  A majority group (``join is None``) folds the surviving
    pair complement in through ``fab_col``/``fbc_col``, ``(gates, 1)``
    all-ones/zero columns applied as one broadcast XOR (``None`` when no
    gate in the group needs it).  A two-input group (see
    :func:`_gate_kind`) computes ``join(a, b)`` with ``ci`` unused, its
    first ``nflip`` gates taking ``a`` complemented.
    """

    __slots__ = ("lo", "hi", "ai", "bi", "ci", "fab_col", "fbc_col", "join", "nflip")

    def __init__(self, lo, hi, ai, bi, ci=None, fab_col=None, fbc_col=None,
                 join=None, nflip=0) -> None:
        self.lo = lo
        self.hi = hi
        self.ai = ai
        self.bi = bi
        self.ci = ci
        self.fab_col = fab_col
        self.fbc_col = fbc_col
        self.join = join
        self.nflip = nflip


class _BatchExec:
    """Per-thread, per-width buffers for the level-batched engine."""

    __slots__ = ("width", "vals", "buf_b", "buf_t", "tmp", "full", "exh_width")

    def __init__(self, plan, num_lanes: int, width: int) -> None:
        np = _np
        self.width = width
        self.vals = np.empty((plan.num_rows, num_lanes), dtype=np.uint64)
        self.vals[0] = 0  # constant-false row
        self.buf_b = np.empty((plan.max_gates, num_lanes), dtype=np.uint64)
        self.buf_t = np.empty((plan.max_gates, num_lanes), dtype=np.uint64)
        self.tmp = np.empty(num_lanes, dtype=np.uint64)
        self.full = np.full(num_lanes, 0xFFFFFFFFFFFFFFFF, dtype=np.uint64)
        if width & 63:
            self.full[-1] = (1 << (width & 63)) - 1
        self.exh_width: Optional[int] = None

    def run(self, plan) -> None:
        """Replay the group program: a few large ufunc calls per group.

        Complements are *not* tail-masked (unlike ``full``): a flipped
        operand carries garbage above *width* in its last lane, but it
        always meets an unflipped operand in an ``&`` — rotation leaves
        at most one pair complement per majority gate, and a two-input
        gate flips at most its ``a`` — so the "high bits are zero" row
        invariant holds.
        """
        np = _np
        vals = self.vals
        take, bxor, band = np.take, np.bitwise_xor, np.bitwise_and
        for grp in plan.groups:
            g = grp.hi - grp.lo
            buf_b = self.buf_b[:g]
            out = vals[grp.lo : grp.hi]
            # mode="clip" skips take's per-element bounds checks (~5x
            # on this path); the plan's indices are valid by
            # construction.
            if grp.join is not None:
                take(vals, grp.ai, axis=0, out=out, mode="clip")
                if grp.nflip:
                    flipped = out[: grp.nflip]
                    np.invert(flipped, out=flipped)
                take(vals, grp.bi, axis=0, out=buf_b, mode="clip")
                grp.join(out, buf_b, out=out)
                continue
            buf_t = self.buf_t[:g]
            take(vals, grp.bi, axis=0, out=buf_b, mode="clip")
            take(vals, grp.ci, axis=0, out=buf_t, mode="clip")
            bxor(buf_b, buf_t, out=buf_t)  # b ^ c
            if grp.fbc_col is not None:
                bxor(buf_t, grp.fbc_col, out=buf_t)
            take(vals, grp.ai, axis=0, out=out, mode="clip")
            bxor(out, buf_b, out=out)  # a ^ b
            if grp.fab_col is not None:
                bxor(out, grp.fab_col, out=out)
            band(out, buf_t, out=out)  # (a^b) & (b^c)
            bxor(out, buf_b, out=out)  # ^ b  ->  maj(a, b, c)


class _BatchPlan:
    """Per-graph compiled form for the level-batched numpy kernel.

    Node values live in a *packed* row order — constant, PIs, then gates
    grouped by level and, within a level, by kind (:func:`_gate_kind`;
    topological within a group) — so each group's outputs are one
    contiguous matrix slice and the whole group runs as a few large
    ufunc calls (see :class:`_BatchExec.run`).  The plan lives in the
    graph's ``_derived`` memo, hence is invalidated by any mutation
    alongside ``flat_gates``.
    """

    __slots__ = (
        "num_rows",
        "pi_rows",
        "po_extract",
        "po_rows",
        "po_flips",
        "groups",
        "max_gates",
        "_tls",
    )

    def __init__(self, mig: Mig) -> None:
        np = _np
        program, po_extract = _compile_gate_program(mig)
        gate_levels = mig.flat_gate_levels()  # aligned with program
        kinds = [_gate_kind(entry) for entry in program]
        row_of = [0] * mig.num_nodes
        self.pi_rows: List[int] = []
        row = 1
        for node in mig.pis():
            row_of[node] = row
            self.pi_rows.append(row)
            row += 1
        # Stable sort by (level, kind, flipped first) keeps the
        # topological order within a group.
        order = sorted(
            range(len(program)),
            key=lambda i: (gate_levels[i], kinds[i][0], not kinds[i][1]),
        )
        for i in order:
            row_of[program[i][0]] = row
            row += 1
        self.num_rows = row
        self.groups: List[_BatchGroup] = []
        lo = 1 + len(self.pi_rows)
        for (_, rank), run in groupby(
            order, key=lambda i: (gate_levels[i], kinds[i][0])
        ):
            members = [kinds[i] for i in run]
            g = len(members)

            def _rows(pos):
                return np.array(
                    [row_of[m[2][pos]] for m in members], dtype=np.intp
                )

            def _col(pos):
                flags = [m[2][pos] for m in members]
                if not any(flags):
                    return None
                col = np.zeros((g, 1), dtype=np.uint64)
                col[flags] = np.uint64(0xFFFFFFFFFFFFFFFF)
                return col

            if rank == 2:
                grp = _BatchGroup(
                    lo, lo + g, _rows(0), _rows(1), _rows(2), _col(3), _col(4)
                )
            else:
                grp = _BatchGroup(
                    lo, lo + g, _rows(0), _rows(1),
                    join=np.bitwise_or if rank else np.bitwise_and,
                    nflip=sum(m[1] for m in members),
                )
            self.groups.append(grp)
            lo += g
        self.max_gates = max((grp.hi - grp.lo for grp in self.groups), default=0)
        self.po_extract = [(row_of[node], flip) for node, flip in po_extract]
        # The same map as gather indices and a (POs, 1) all-ones/zero
        # XOR column (None when no PO is stored complemented).
        self.po_rows = np.array(
            [row for row, _ in self.po_extract], dtype=np.intp
        )
        flips = [flip for _, flip in self.po_extract]
        self.po_flips = None
        if any(flips):
            self.po_flips = np.zeros((len(flips), 1), dtype=np.uint64)
            self.po_flips[flips] = np.uint64(0xFFFFFFFFFFFFFFFF)
        self._tls = threading.local()

    def executable(self, num_lanes: int, width: int) -> _BatchExec:
        return _tls_executable(self, num_lanes, width)


#: 64-pattern stimulus words for variables 0..5 (period <= one lane).
_P64 = (
    0xAAAAAAAAAAAAAAAA,
    0xCCCCCCCCCCCCCCCC,
    0xF0F0F0F0F0F0F0F0,
    0xFF00FF00FF00FF00,
    0xFFFF0000FFFF0000,
    0xFFFFFFFF00000000,
)


def _batch_plan(mig: Mig) -> _BatchPlan:
    # Benign race: concurrent first callers may compile twice; the plans
    # are identical and last-write wins.
    plan = mig._derived.get("numpy_plan")
    if plan is None:
        plan = _BatchPlan(mig)
        mig._derived["numpy_plan"] = plan
    return plan


def _word_to_lanes(word: int, num_lanes: int):
    """Little-endian split of a Python-int word into uint64 lanes."""
    return _np.frombuffer(
        word.to_bytes(num_lanes * 8, "little"), dtype="<u8"
    )


def _lanes_to_word(lanes) -> int:
    """Inverse of :func:`_word_to_lanes`."""
    return int.from_bytes(
        _np.ascontiguousarray(lanes, dtype="<u8").tobytes(), "little"
    )


def _fill_exhaustive(plan, exe, base: int, width: int) -> None:
    """Synthesise the exhaustive window ``[base, base + width)`` stimulus.

    The structured stimulus goes directly into the lane rows — constant
    lane patterns for low variables, lane block patterns for middle
    ones, constant rows for high ones — so no Python bigints are built
    on the input side at all.  Low and middle variables do not depend on
    the window base and are filled once per width (``exe.exh_width``
    memo); callers guarantee *base* is a multiple of *width* and *width*
    is a multiple of 64.
    """
    np = _np
    vals = exe.vals
    num_lanes = width >> 6
    lane_bits = num_lanes.bit_length() - 1
    if exe.exh_width != width:
        lanes = np.arange(num_lanes, dtype=np.uint64)
        for i, row in enumerate(plan.pi_rows):
            if i < 6:
                vals[row] = np.uint64(_P64[i])
            elif i < 6 + lane_bits:
                np.negative(
                    (lanes >> np.uint64(i - 6)) & np.uint64(1),
                    out=vals[row],
                )
        exe.exh_width = width
    for i in range(6 + lane_bits, len(plan.pi_rows)):
        vals[plan.pi_rows[i]] = np.uint64(
            0xFFFFFFFFFFFFFFFF if (base >> i) & 1 else 0
        )


def _extract_words(plan, exe) -> List[int]:
    """PO rows as Python-int words (stored polarity folded back in)."""
    outputs = []
    for row_i, flip in plan.po_extract:
        row = exe.vals[row_i]
        if flip:
            _np.bitwise_xor(row, exe.full, out=exe.tmp)
            row = exe.tmp
        outputs.append(_lanes_to_word(row))
    return outputs


def _run_window(plan, base: int, width: int):
    """Fill + replay one exhaustive window on this thread's executable."""
    exe = plan.executable(width >> 6, width)
    _fill_exhaustive(plan, exe, base, width)
    exe.run(plan)
    return exe


def _window_rows(plan, base: int, width: int):
    """Fill + replay one exhaustive window; a fresh ``(POs, lanes)``
    array of its output rows with the stored polarity folded back in.

    Exhaustive windows on this engine are whole lanes (*width* is a
    multiple of 64), so a complement is a plain XOR with all ones.
    """
    exe = _run_window(plan, base, width)
    rows = exe.vals[plan.po_rows]
    if plan.po_flips is not None:
        _np.bitwise_xor(rows, plan.po_flips, out=rows)
    return rows


class NumpyKernel:
    """Level-batched uint64 lane-array engine on the calling thread.

    Independent gates of one MIG level execute together as a handful of
    large 2-D ufunc calls (:meth:`_BatchExec.run`), so numpy dispatch is
    paid per level, not per gate.  Each calling thread binds its own
    executable buffers (:func:`_tls_executable`).  Runtime failures
    demote to the bigint reference engine, keeping results bit-identical.
    """

    name = "numpy"
    #: Randomized checks sweep 16 lanes per round.
    random_width = 1024

    def chunk_bits_for(self, mig: Mig) -> int:
        return _budget_chunk_bits(mig.num_nodes)

    def _guarded(self, run, fallback):
        """``run()``, or ``fallback()`` once this engine is demoted or fails."""
        if _demoted(self.name):
            return fallback()
        try:
            _res_faults.kernel_fault(_degrade_job())  # chaos hook
            return run()
        except Exception as error:
            # Both engines are bit-identical, so recomputing on the
            # reference kernel preserves the artefact exactly.
            _demote(error, self.name, _BIGINT.name)
            return fallback()

    def simulate(
        self, mig: Mig, pi_values: Sequence[int], mask: int
    ) -> List[int]:
        width = mask.bit_length()
        if width < _NUMPY_MIN_WIDTH:
            return _remembered(
                mig, BigintKernel.name, pi_values, mask, _bigint_simulate
            )

        def run(mig, pi_values, mask):
            return self._guarded(
                lambda: self._numpy_simulate(mig, pi_values, mask, width),
                lambda: None,
            )

        # A memo hit never reaches the guard, and a demoted or failed
        # engine stores nothing: its fallback is computed per call.
        outputs = _remembered(mig, self.name, pi_values, mask, run)
        if outputs is None:
            outputs = _bigint_simulate(mig, pi_values, mask)
        return outputs

    def _numpy_simulate(
        self, mig: Mig, pi_values: Sequence[int], mask: int, width: int
    ) -> List[int]:
        plan = _batch_plan(mig)
        num_lanes = (width + 63) >> 6
        exe = plan.executable(num_lanes, width)
        exe.exh_width = None  # PI rows now hold arbitrary words
        for row, word in zip(plan.pi_rows, pi_values):
            exe.vals[row] = _word_to_lanes(word & mask, num_lanes)
        exe.run(plan)
        return _extract_words(plan, exe)

    def exhaustive_window(
        self, mig: Mig, base: int, width: int
    ) -> Optional[List[int]]:
        """Evaluate the exhaustive window ``[base, base + width)``.

        Fast path used by :func:`repro.mig.simulate.exhaustive_chunks`
        (see :func:`_fill_exhaustive` for the native stimulus).  Returns
        ``None`` when the window is too narrow for this kernel (the
        caller falls back to the generic path) — and when the engine is
        demoted or fails, for the same reason: the generic path
        re-dispatches through :meth:`simulate`, which lands on the
        reference engine.
        """
        if width < _NUMPY_MIN_WIDTH:
            return None

        def run():
            plan = _batch_plan(mig)
            return _extract_words(plan, _run_window(plan, base, width))

        return self._guarded(run, lambda: None)

    def exhaustive_equivalent(
        self, a: Mig, b: Mig, chunk_bits: int
    ) -> Optional[bool]:
        """Exhaustively compare two same-interface MIGs window by window.

        Fast path used by :func:`repro.mig.simulate.equivalent`: the
        output *rows* of each window are compared lane-wise, skipping the
        int-conversion boundary entirely — on output-heavy graphs that
        boundary dominates the sweep.  A graph whose exhaustive table is
        remembered (see "Memo" above) is not swept: two known tables are
        compared directly, and one known table is compared window by
        window with the other graph's sweep.  Early-exits on the first
        differing window; only a sweep that reaches the end stores its
        table, on both graphs, as one read-only array.  Returns ``None``
        (caller falls back to the generic chunk-zip) when the windows are
        too narrow, or when the engine is demoted or fails.
        """
        num_patterns = 1 << a.num_pis
        width = min(num_patterns, 1 << chunk_bits)
        if width < _NUMPY_MIN_WIDTH:
            return None
        slot = ("exhaustive", self.name)
        known, other = a._derived.get(slot), b._derived.get(slot)
        if known is not None and other is not None:
            return known is other or bool(_np.array_equal(known, other))
        if known is None:  # sweep a against b's table, if b has one
            a, b, known = b, a, other

        def run():
            plan_b = _batch_plan(b)
            plan_a = None if known is not None or a is b else _batch_plan(a)
            table = known
            if table is None:
                table = _np.empty((b.num_pos, num_patterns >> 6), dtype=_np.uint64)
            for base in range(0, num_patterns, width):
                window = table[:, base >> 6 : (base + width) >> 6]
                rows = _window_rows(plan_b, base, width)
                if known is not None:
                    if not _np.array_equal(rows, window):
                        return False
                    continue
                if plan_a is not None and not _np.array_equal(
                    rows, _window_rows(plan_a, base, width)
                ):
                    return False
                window[...] = rows
            table.flags.writeable = False
            a._derived[slot] = b._derived[slot] = table
            return True

        return self._guarded(run, lambda: None)


class NumpyBatchKernel(NumpyKernel):
    # Never instantiated and defines nothing: the name survives only
    # because ``perfbench/layers.py`` lists it among the classes whose
    # own ``simulate``/``exhaustive_window`` it traces.  A plain alias
    # (``NumpyBatchKernel = NumpyKernel``) would wrap NumpyKernel twice
    # and count every simulate call twice.
    pass


# ----------------------------------------------------------------------
# Selection
# ----------------------------------------------------------------------

_BIGINT = BigintKernel()
_NUMPY = NumpyKernel() if _np is not None else None


def numpy_available() -> bool:
    """Whether the numpy engine can be used in this process."""
    return _NUMPY is not None


def get_kernel():
    """The simulation kernel: numpy when importable, bigint otherwise."""
    return _NUMPY if _NUMPY is not None else _BIGINT
