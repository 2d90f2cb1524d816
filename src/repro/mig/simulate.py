"""Bit-parallel simulation of Majority-Inverter Graphs.

Values are plain Python integers used as bit vectors: position ``i`` of
every value is one independent simulation pattern, so a single sweep over
the graph evaluates arbitrarily many input patterns at once.  This is the
reference model against which compiled PLiM programs are verified
(:mod:`repro.plim.verify`) and the engine behind equivalence checking of
rewriting passes.  Every sweep runs through the one kernel
(:mod:`repro.mig.kernel`).

Exhaustive runs past :data:`CHUNK_BITS` inputs are evaluated in
2^13-pattern chunks: the cost of a chunked sweep grows linearly with the
pattern count instead of the quadratic blow-up of building multi-megabit
input words incrementally.  Randomized checks draw one word per input
per round; the round count and word width (:data:`RANDOM_WIDTH`
patterns) come from one shared helper (:func:`randomized_rounds`).
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .graph import Mig
from .kernel import get_kernel

#: Refuse exhaustive truth tables beyond this many inputs (2^20 patterns).
MAX_EXHAUSTIVE_PIS = 20

#: log2 of the widest exhaustive simulation word.  2^13-bit words keep
#: every node value L1/L2-resident, where CPython's bigint boolean loops
#: run near memory speed; wider words were measured slower.
CHUNK_BITS = 13

#: Patterns per round of a randomized check: one 64-bit word.
RANDOM_WIDTH = 64


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


def simulate(mig: Mig, pi_values: Sequence[int], mask: int = 1) -> List[int]:
    """Evaluate *mig* on bit-parallel input words.

    Parameters
    ----------
    pi_values:
        One integer per primary input; bit ``i`` of each word is pattern
        ``i``.
    mask:
        All-ones mask covering the pattern width (e.g. ``(1 << 64) - 1``
        for 64 parallel patterns).

    Returns
    -------
    One integer per primary output.
    """
    if len(pi_values) != mig.num_pis:
        raise ValueError(
            f"expected {mig.num_pis} input words, got {len(pi_values)}"
        )
    return get_kernel().simulate(mig, pi_values, mask)


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
    mig: Mig, chunk_bits: Optional[int] = None
) -> Iterator[Tuple[int, int, List[int]]]:
    """Exhaustively simulate *mig* in chunks of ``2**chunk_bits`` patterns.

    Yields ``(base, width, outputs)`` triples covering minterms
    ``[base, base + width)`` in ascending order.  Keeping each chunk to a
    fixed word width makes the total exhaustive cost linear in the number
    of patterns, where one monolithic ``2**num_pis``-bit sweep pays
    bigint arithmetic proportional to the full table per gate.  The
    default chunk width is :data:`CHUNK_BITS`; pass *chunk_bits* to pin
    it.
    """
    n = mig.num_pis
    if n > MAX_EXHAUSTIVE_PIS:
        raise ValueError(f"too many inputs for exhaustive simulation: {n}")
    kernel = get_kernel()
    num_patterns = 1 << n
    width = min(
        num_patterns, 1 << (CHUNK_BITS if chunk_bits is None else chunk_bits)
    )
    mask = (1 << width) - 1
    # Low variables (period <= chunk width) repeat identically per chunk.
    shared = [input_word(i, width) for i in range(n) if (1 << (i + 1)) <= width]
    for base in range(0, num_patterns, width):
        words = list(shared)
        for i in range(len(shared), n):
            words.append(mask if (base >> i) & 1 else 0)
        yield base, width, kernel.simulate(mig, words, mask)


def truth_tables(mig: Mig, chunk_bits: Optional[int] = None) -> List[int]:
    """Exhaustive truth table per output, as ``2**num_pis``-bit integers.

    Bit ``m`` of each table is the output value under minterm ``m`` (input
    ``i`` takes bit ``i`` of ``m``).  Only feasible for input counts up to
    :data:`MAX_EXHAUSTIVE_PIS`; wide tables are swept chunk by chunk.
    The result is independent of the chunking.
    """
    windows = []
    for _, width, outputs in exhaustive_chunks(mig, chunk_bits):
        windows.append(outputs)
    return list(_join_windows(windows, width))


def random_words(num_inputs: int, width: int, rng: random.Random) -> List[int]:
    """Draw *num_inputs* random bit-words of *width* patterns."""
    return [rng.getrandbits(width) for _ in range(num_inputs)]


def randomized_rounds(
    samples: int, width: Optional[int] = None
) -> Tuple[int, int, int]:
    """Round count, word width, and mask for a randomized sweep.

    At least *samples* patterns are covered in rounds of *width*
    patterns each; the default width is :data:`RANDOM_WIDTH`, capped at
    *samples* so narrow requests are not silently over-simulated.  Both
    must be at least 1.  Shared by :func:`equivalent`,
    :func:`find_counterexample`, and
    :func:`repro.plim.verify.verify_program`.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if width is None:
        width = min(RANDOM_WIDTH, samples)
    elif width < 1:
        raise ValueError(f"width must be at least 1, got {width}")
    rounds = (samples + width - 1) // width
    return rounds, width, (1 << width) - 1


def _chunks_equal(a: Mig, b: Mig) -> bool:
    """Exhaustive comparison: zip both graphs' chunk sweeps.

    A graph whose exhaustive table is known (the ``"exhaustive"`` entry
    of its ``_derived`` memo: one ``2**num_pis``-bit int per output) is
    not swept, and a sweep that reaches the end stores its table on both
    graphs as one tuple.
    """
    known, other = a._derived.get("exhaustive"), b._derived.get("exhaustive")
    if known is not None and other is not None:
        return known == other
    if known is None:  # sweep a against b's table, if b has one
        a, b, known = b, a, other
    if known is not None:
        reference = _table_windows(known, b.num_pis)
    elif a is not b:
        reference = (out for _, _, out in exhaustive_chunks(a))
    else:
        reference = None
    windows: List[List[int]] = []
    for _, width, out_b in exhaustive_chunks(b):
        if reference is not None and next(reference) != out_b:
            return False
        if known is None:
            windows.append(out_b)
    table = known if known is not None else _join_windows(windows, width)
    a._derived["exhaustive"] = b._derived["exhaustive"] = table
    return True


def _table_windows(table, num_pis: int) -> Iterator[List[int]]:
    """A remembered table's chunk outputs, in sweep order.

    A table split into several chunks is split on byte boundaries
    (:data:`CHUNK_BITS` is at least 3).
    """
    num_patterns = 1 << num_pis
    width = min(num_patterns, 1 << CHUNK_BITS)
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
    in its ``_derived`` memo (see "Memo" in :mod:`repro.mig.kernel`), so
    a graph checked again is not swept again: two known tables are
    compared directly, and one known table against the other graph's
    sweep.  A sweep stores its table only when it reaches the end
    (equivalent graphs then share one table object); one that stops
    early stores nothing, and any mutation or pickling drops the table.

    Beyond the limit an exhaustive check is infeasible, and the function
    *refuses* rather than silently degrading: randomized bit-parallel
    checking (sound for inequivalence, probabilistic for equivalence) must
    be requested explicitly by passing ``exhaustive_limit`` — callers that
    opt in acknowledge the random fallback above their chosen cutoff.
    The randomized path draws rounds of *width* patterns (default
    :data:`RANDOM_WIDTH`) until *samples* are covered.
    """
    if a.num_pis != b.num_pis or a.num_pos != b.num_pos:
        return False
    explicit = exhaustive_limit is not None
    limit = exhaustive_limit if explicit else MAX_EXHAUSTIVE_PIS
    check_exhaustive_limit(limit)
    if a.num_pis <= limit:
        return _chunks_equal(a, b)
    if not explicit:
        raise ValueError(
            f"{a.num_pis} inputs exceed the exhaustive-check ceiling of "
            f"{MAX_EXHAUSTIVE_PIS}; pass exhaustive_limit= explicitly to "
            "opt in to randomized (probabilistic) equivalence checking, "
            "or use find_counterexample() for a refutation-only search"
        )
    kernel = get_kernel()
    rng = random.Random(seed)
    rounds, width, mask = randomized_rounds(samples, width)
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
    path (*samples* patterns in rounds of *width*, default
    :data:`RANDOM_WIDTH`).
    """
    if a.num_pis != b.num_pis or a.num_pos != b.num_pos:
        raise ValueError("interface mismatch")
    kernel = get_kernel()
    rng = random.Random(seed)
    rounds, width, mask = randomized_rounds(samples, width)
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
