"""Bit-parallel simulation of Majority-Inverter Graphs.

Values are plain Python integers used as bit vectors: position ``i`` of
every value is one independent simulation pattern, so a single sweep over
the graph evaluates arbitrarily many input patterns at once.  This is the
reference model against which compiled PLiM programs are verified
(:mod:`repro.plim.verify`) and the engine behind equivalence checking of
rewriting passes.

The gate-evaluation engine is pluggable (:mod:`repro.mig.kernel`): the
pure-Python bigint kernel is always available, and the optional numpy
kernel evaluates the same flat gate records (complement attributes
pre-folded into XOR masks) as whole-array ``uint64`` operations, one MIG
level at a time.  Every function here speaks Python-int words regardless
of the active kernel, and both kernels are bit-identical (asserted by
the parity tests).

Exhaustive runs past the kernel's chunk width are evaluated in
fixed-width chunks: the cost of a chunked sweep grows linearly with the
pattern count instead of the quadratic blow-up of building multi-megabit
input words incrementally.  Randomized checks draw one word per input
per round; the round count and word width come from one shared helper
(:func:`randomized_rounds`), so the numpy kernel's wider sweeps apply to
``equivalent`` and ``find_counterexample`` alike.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .graph import Mig
from .kernel import get_kernel

#: Refuse exhaustive truth tables beyond this many inputs (2^20 patterns).
MAX_EXHAUSTIVE_PIS = 20


def check_exhaustive_limit(limit: int) -> None:
    """Refuse an exhaustive cutoff above :data:`MAX_EXHAUSTIVE_PIS`."""
    if limit > MAX_EXHAUSTIVE_PIS:
        raise ValueError(
            f"exhaustive_limit {limit} exceeds MAX_EXHAUSTIVE_PIS "
            f"({MAX_EXHAUSTIVE_PIS}); exhaustive simulation past 2^"
            f"{MAX_EXHAUSTIVE_PIS} patterns is not supported"
        )


def input_word(var: int, num_patterns: int, base: int = 0) -> int:
    """Bit-parallel stimulus for variable *var* over a pattern window.

    Bit ``j`` of the result is bit *var* of minterm ``base + j``.  The
    periodic pattern is built by doubling (O(log num_patterns) bigint
    operations), not by setting blocks one at a time.
    """
    half = 1 << var
    period = half << 1
    offset = base % period
    # Window inside one half-period: the variable is constant across it.
    if offset + num_patterns <= half:
        return 0
    if half <= offset and offset + num_patterns <= period:
        return (1 << num_patterns) - 1
    # One period (2^var zeros then 2^var ones), phase-shifted to base.
    word = ((1 << half) - 1) << half
    if offset:
        word = ((word | (word << period)) >> offset) & ((1 << period) - 1)
    width = period
    while width < num_patterns:
        word |= word << width
        width <<= 1
    return word & ((1 << num_patterns) - 1)


def exhaustive_words(
    num_inputs: int, num_patterns: int, base: int = 0
) -> List[int]:
    """One stimulus word per input covering minterms ``[base, base+n)``."""
    return [input_word(i, num_patterns, base) for i in range(num_inputs)]


def simulate(
    mig: Mig, pi_values: Sequence[int], mask: int = 1, *, kernel=None
) -> List[int]:
    """Evaluate *mig* on bit-parallel input words.

    Parameters
    ----------
    pi_values:
        One integer per primary input; bit ``i`` of each word is pattern
        ``i``.
    mask:
        All-ones mask covering the pattern width (e.g. ``(1 << 64) - 1``
        for 64 parallel patterns).
    kernel:
        Simulation kernel override; defaults to the process-wide engine
        (:func:`repro.mig.kernel.get_kernel`).

    Returns
    -------
    One integer per primary output.
    """
    if len(pi_values) != mig.num_pis:
        raise ValueError(
            f"expected {mig.num_pis} input words, got {len(pi_values)}"
        )
    return (kernel or get_kernel()).simulate(mig, pi_values, mask)


def simulate_one(mig: Mig, assignment: Dict[str, int]) -> Dict[str, int]:
    """Evaluate a single pattern given by PI name.

    >>> mig = Mig()
    >>> a, b = mig.add_pi("a"), mig.add_pi("b")
    >>> _ = mig.add_po(mig.add_and(a, b), "f")
    >>> simulate_one(mig, {"a": 1, "b": 1})
    {'f': 1}
    """
    words = []
    for i in range(mig.num_pis):
        name = mig.pi_name(i)
        if name not in assignment:
            raise KeyError(f"missing assignment for input {name!r}")
        words.append(1 if assignment[name] else 0)
    outs = simulate(mig, words, mask=1)
    return {mig.po_name(i): outs[i] for i in range(mig.num_pos)}


def exhaustive_chunks(
    mig: Mig, chunk_bits: Optional[int] = None, *, kernel=None
) -> Iterator[Tuple[int, int, List[int]]]:
    """Exhaustively simulate *mig* in chunks of ``2**chunk_bits`` patterns.

    Yields ``(base, width, outputs)`` triples covering minterms
    ``[base, base + width)`` in ascending order.  Keeping each chunk to a
    fixed word width makes the total exhaustive cost linear in the number
    of patterns, where one monolithic ``2**num_pis``-bit sweep pays
    bigint arithmetic proportional to the full table per gate.  The
    default chunk width is the active kernel's preference (13 bits for
    bigint, wider for numpy); pass *chunk_bits* to pin it.
    """
    n = mig.num_pis
    if n > MAX_EXHAUSTIVE_PIS:
        raise ValueError(f"too many inputs for exhaustive simulation: {n}")
    kernel = kernel or get_kernel()
    if chunk_bits is None:
        chunk_bits = kernel.chunk_bits_for(mig)
    num_patterns = 1 << n
    width = min(num_patterns, 1 << chunk_bits)
    mask = (1 << width) - 1
    # Kernels may synthesise the structured exhaustive stimulus
    # natively (numpy fills lane rows without building bigint words);
    # a declined window (None) falls back to the generic path below.
    fast_window = getattr(kernel, "exhaustive_window", None)
    # Low variables (period <= chunk width) repeat identically per
    # chunk; built lazily since the fast path never needs them.
    shared: Optional[List[int]] = None
    for base in range(0, num_patterns, width):
        outputs = None
        if fast_window is not None:
            outputs = fast_window(mig, base, width)
        if outputs is None:
            if shared is None:
                shared = [
                    input_word(i, width)
                    for i in range(n)
                    if (1 << (i + 1)) <= width
                ]
            words = list(shared)
            for i in range(len(shared), n):
                words.append(mask if (base >> i) & 1 else 0)
            outputs = kernel.simulate(mig, words, mask)
        yield base, width, outputs


def truth_tables(
    mig: Mig, chunk_bits: Optional[int] = None, *, kernel=None
) -> List[int]:
    """Exhaustive truth table per output, as ``2**num_pis``-bit integers.

    Bit ``m`` of each table is the output value under minterm ``m`` (input
    ``i`` takes bit ``i`` of ``m``).  Only feasible for input counts up to
    :data:`MAX_EXHAUSTIVE_PIS`; wide tables are swept chunk by chunk.
    The result is independent of the chunking and of the active kernel.
    """
    windows = []
    for _, width, outputs in exhaustive_chunks(mig, chunk_bits, kernel=kernel):
        windows.append(outputs)
    return list(_join_windows(windows, width))


def random_words(num_inputs: int, width: int, rng: random.Random) -> List[int]:
    """Draw *num_inputs* random bit-words of *width* patterns."""
    return [rng.getrandbits(width) for _ in range(num_inputs)]


def randomized_rounds(
    samples: int, width: Optional[int] = None, *, kernel=None
) -> Tuple[int, int, int]:
    """Round count, word width, and mask for a randomized sweep.

    At least *samples* patterns are covered in rounds of *width*
    patterns each; the default width is the active kernel's preference
    (64 for bigint, wider for numpy), capped at *samples* so narrow
    requests are not silently over-simulated.  Shared by
    :func:`equivalent`, :func:`find_counterexample`, and
    :func:`repro.plim.verify.verify_program`.
    """
    if width is None:
        width = min((kernel or get_kernel()).random_width, max(1, samples))
    rounds = max(1, (samples + width - 1) // width)
    return rounds, width, (1 << width) - 1


def _chunks_equal(
    a: Mig, b: Mig, chunk_bits: int, kernel, *, remember: bool
) -> bool:
    """Generic exhaustive comparison: zip both graphs' chunk sweeps.

    With *remember*, a graph whose exhaustive table is known (the
    ``("exhaustive", kernel.name)`` entry of its ``_derived`` memo: one
    ``2**num_pis``-bit int per output) is not swept, and a sweep that
    reaches the end stores its table on both graphs as one tuple.
    """
    slot = ("exhaustive", kernel.name)
    known = a._derived.get(slot) if remember else None
    other = b._derived.get(slot) if remember else None
    if known is not None and other is not None:
        return known == other
    if known is None:  # sweep a against b's table, if b has one
        a, b, known = b, a, other
    if known is not None:
        reference = _table_windows(known, b.num_pis, chunk_bits)
    elif a is not b:
        reference = (out for _, _, out in exhaustive_chunks(a, chunk_bits, kernel=kernel))
    else:
        reference = None
    windows: List[List[int]] = []
    for _, width, out_b in exhaustive_chunks(b, chunk_bits, kernel=kernel):
        if reference is not None and next(reference) != out_b:
            return False
        if remember and known is None:
            windows.append(out_b)
    if remember:
        table = known if known is not None else _join_windows(windows, width)
        a._derived[slot] = b._derived[slot] = table
    return True


def _table_windows(table, num_pis: int, chunk_bits: int) -> Iterator[List[int]]:
    """A remembered table's chunk outputs, in sweep order.

    A table split into several chunks is split on byte boundaries:
    equivalence sweeps chunks of the kernel's width (at least 2^13
    patterns).
    """
    num_patterns = 1 << num_pis
    width = min(num_patterns, 1 << chunk_bits)
    if width == num_patterns:
        yield list(table)
        return
    size, step = num_patterns >> 3, width >> 3
    rows = [word.to_bytes(size, "little") for word in table]
    for start in range(0, size, step):
        yield [int.from_bytes(row[start : start + step], "little") for row in rows]


def _join_windows(windows: List[List[int]], width: int) -> Tuple[int, ...]:
    """One table int per output from in-order chunk outputs of *width*.

    Byte-sized chunks are joined bytewise: appending fixed-size byte
    blocks and joining once is linear in the table size, where
    ``table |= word << base`` would copy the growing table per chunk.
    """
    if len(windows) == 1:
        return tuple(windows[0])
    if width & 7:  # sub-byte chunks (tiny explicit chunk_bits)
        return tuple(
            sum(word << (i * width) for i, word in enumerate(column))
            for column in zip(*windows)
        )
    step = width >> 3
    return tuple(
        int.from_bytes(
            b"".join(word.to_bytes(step, "little") for word in column), "little"
        )
        for column in zip(*windows)
    )


def equivalent(
    a: Mig,
    b: Mig,
    *,
    exhaustive_limit: Optional[int] = None,
    samples: int = 1024,
    width: Optional[int] = None,
    seed: int = 0xC0FFEE,
) -> bool:
    """Check functional equivalence of two MIGs.

    Up to ``exhaustive_limit`` inputs (default: :data:`MAX_EXHAUSTIVE_PIS`,
    the same ceiling :func:`truth_tables` enforces) the check is exhaustive
    and therefore exact, evaluated chunk-wise with early exit on the first
    differing window.  Each graph remembers its exhaustive output table
    per engine in its ``_derived`` memo (see "Memo" in
    :mod:`repro.mig.kernel`), so a graph checked again is not swept
    again: two known tables are compared directly, and one known table
    against the other graph's sweep.  A sweep stores its table only when
    it reaches the end (equivalent graphs then share one table object);
    one that stops early, fails or is demoted stores nothing, and any
    mutation or pickling drops the table.  A memo hit never reaches the
    numpy engine's guard or its chaos hook.  Under the numpy kernel the
    generic chunk path stores nothing: it runs there only for windows
    of at most 64 patterns (one simulate request, which the simulate
    memo answers) or as the fallback of a failed or demoted sweep.

    Beyond the limit an exhaustive check is infeasible, and the function
    *refuses* rather than silently degrading: randomized bit-parallel
    checking (sound for inequivalence, probabilistic for equivalence) must
    be requested explicitly by passing ``exhaustive_limit`` — callers that
    opt in acknowledge the random fallback above their chosen cutoff.
    The randomized path draws rounds of *width* patterns (default: the
    active kernel's preferred word width) until *samples* are covered.
    """
    if a.num_pis != b.num_pis or a.num_pos != b.num_pos:
        return False
    explicit = exhaustive_limit is not None
    limit = exhaustive_limit if explicit else MAX_EXHAUSTIVE_PIS
    check_exhaustive_limit(limit)
    kernel = get_kernel()
    if a.num_pis <= limit:
        # Both graphs must be swept with identical chunking or the
        # zipped windows would not line up (the kernel may size chunks
        # per graph); take the smaller of the two preferences.
        chunk_bits = min(kernel.chunk_bits_for(a), kernel.chunk_bits_for(b))
        # Kernels may compare whole windows natively (numpy compares
        # output lane rows, skipping the int-conversion boundary).
        fast = getattr(kernel, "exhaustive_equivalent", None)
        if fast is not None:
            verdict = fast(a, b, chunk_bits)
            if verdict is not None:
                return verdict
        return _chunks_equal(a, b, chunk_bits, kernel, remember=fast is None)
    if not explicit:
        raise ValueError(
            f"{a.num_pis} inputs exceed the exhaustive-check ceiling of "
            f"{MAX_EXHAUSTIVE_PIS}; pass exhaustive_limit= explicitly to "
            "opt in to randomized (probabilistic) equivalence checking, "
            "or use find_counterexample() for a refutation-only search"
        )
    rng = random.Random(seed)
    rounds, width, mask = randomized_rounds(samples, width, kernel=kernel)
    for _ in range(rounds):
        words = random_words(a.num_pis, width, rng)
        if kernel.simulate(a, words, mask) != kernel.simulate(b, words, mask):
            return False
    return True


def find_counterexample(
    a: Mig,
    b: Mig,
    *,
    samples: int = 1024,
    width: Optional[int] = None,
    seed: int = 0xC0FFEE,
) -> Optional[Dict[str, int]]:
    """Return an input assignment on which the two MIGs differ, if found.

    Draws the same randomized rounds as :func:`equivalent`'s fallback
    path (*samples* patterns in rounds of *width*, default the kernel's
    preferred word width).
    """
    if a.num_pis != b.num_pis or a.num_pos != b.num_pos:
        raise ValueError("interface mismatch")
    kernel = get_kernel()
    rng = random.Random(seed)
    rounds, width, mask = randomized_rounds(samples, width, kernel=kernel)
    for _ in range(rounds):
        words = random_words(a.num_pis, width, rng)
        out_a = kernel.simulate(a, words, mask)
        out_b = kernel.simulate(b, words, mask)
        diff = 0
        for wa, wb in zip(out_a, out_b):
            diff |= wa ^ wb
        if diff:
            bit = (diff & -diff).bit_length() - 1
            return {
                a.pi_name(i): (words[i] >> bit) & 1 for i in range(a.num_pis)
            }
    return None
