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
    n = mig.num_pis
    if n > MAX_EXHAUSTIVE_PIS:
        raise ValueError(f"too many inputs for exhaustive simulation: {n}")
    # Chunk outputs are assembled bytewise: appending fixed-size byte
    # blocks and joining once is linear in the table size, where
    # ``table |= word << base`` would copy the growing table per chunk.
    parts: Optional[List[List[bytes]]] = None
    chunk_bytes = 0
    for base, width, outputs in exhaustive_chunks(mig, chunk_bits, kernel=kernel):
        if base == 0:
            if width >= (1 << n):  # single chunk: nothing to assemble
                return outputs
            if width & 7:  # sub-byte chunks (tiny explicit chunk_bits)
                tables = [0] * mig.num_pos
                for base, _, outputs in exhaustive_chunks(
                    mig, chunk_bits, kernel=kernel
                ):
                    for idx, word in enumerate(outputs):
                        tables[idx] |= word << base
                return tables
            parts = [[] for _ in outputs]
            chunk_bytes = width >> 3
        for idx, word in enumerate(outputs):
            parts[idx].append(word.to_bytes(chunk_bytes, "little"))
    if parts is None:  # zero POs or a pathological empty sweep
        return [0] * mig.num_pos
    return [int.from_bytes(b"".join(p), "little") for p in parts]


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
    differing window.

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
        for (_, _, out_a), (_, _, out_b) in zip(
            exhaustive_chunks(a, chunk_bits, kernel=kernel),
            exhaustive_chunks(b, chunk_bits, kernel=kernel),
        ):
            if out_a != out_b:
                return False
        return True
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
