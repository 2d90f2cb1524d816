"""Metric helpers shared by the benchmark runner and its tests.

* :func:`check_name` enforces the metric-name alphabet;
* :func:`tail_percentile` applies the percentile rule — a percentile is
  reported only when at least :data:`MIN_TAIL` samples lie beyond it;
* :class:`Outcome` counts attempted and failed operations, so the
  failure ratio is always failures over attempts;
* :class:`SpeedLog` turns measured intervals into reference-speed
  seconds (see its docstring for why).
"""

from __future__ import annotations

import bisect
import math
import re
import statistics
import threading
import time
from contextlib import contextmanager
from typing import List, Sequence, Tuple

#: Metric names: a letter or digit, then letters, digits, ``_``, ``.``
#: and ``-``, at most 64 characters.
NAME_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")

#: Samples that must lie beyond a reported percentile.
MIN_TAIL = 10


def check_name(name: str) -> str:
    """Return *name* if it is a valid metric name, else raise ValueError."""
    if not isinstance(name, str) or not NAME_PATTERN.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


class InsufficientSamples(ValueError):
    """Too few samples beyond a percentile to report it."""


def tail_percentile(
    samples: Sequence[float], q: float, min_tail: int = MIN_TAIL
) -> float:
    """Harrell-Davis estimate of the *q*-th percentile of *samples*.

    Raises :class:`InsufficientSamples` unless at least *min_tail*
    samples rank strictly above the nearest-rank percentile (p90 needs
    100 samples, p50 needs 20).

    The estimate weights every order statistic by the chance that it
    is the percentile, rather than picking one.  Job times cluster by
    circuit, and a nearest-rank p90 that falls between two clusters
    jumps between them from run to run.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {q}")
    n = len(samples)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < min_tail:
        raise InsufficientSamples(
            f"p{q:g} needs {min_tail} samples beyond it; "
            f"{n} samples leave {max(0, n - rank)}"
        )
    p = q / 100.0
    cdf = _beta_cdf(p * (n + 1), (1 - p) * (n + 1), n)
    return sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], sorted(samples)))


def _beta_cdf(a: float, b: float, n: int, steps: int = 20000) -> List[float]:
    """The Beta(a, b) distribution function at ``0, 1/n, ..., 1``, by
    the trapezoid rule over *steps* intervals (a, b > 1)."""
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    pdf = [0.0] + [
        math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
        for x in (i / steps for i in range(1, steps))
    ] + [0.0]
    cumulative = [0.0]
    for left, right in zip(pdf, pdf[1:]):
        cumulative.append(cumulative[-1] + (left + right) / (2 * steps))
    total = cumulative[-1]
    return [cumulative[round(i * steps / n)] / total for i in range(n + 1)]


def samples_needed(q: float, min_tail: int = MIN_TAIL) -> int:
    """Smallest sample count for which :func:`tail_percentile` reports."""
    n = min_tail + 1
    while n - max(1, math.ceil(q / 100.0 * n)) < min_tail:
        n += 1
    return n


class Outcome:
    """Attempted and failed operations of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def check(self, ok: bool, what: str) -> bool:
        """Count one operation; a false *ok* counts as a failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
        return ok

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


#: Time the reference loop takes at reference speed (about its time on
#: an idle 2-CPU bench box); reported times are in these units.
REFERENCE_S = 0.0015

#: A probe's speed is the median of it and this many probes either side.
SMOOTHING = 4


def reference_loop() -> int:
    """Fixed pure-Python work (tuples, dict stores and lookups) whose
    duration samples the machine's current speed."""
    table = {}
    acc = 0
    for i in range(3000):
        key = (i, i ^ 0x5A5A, i * 7)
        table[key] = i
        acc += table.get((i - 1, (i - 1) ^ 0x5A5A, (i - 1) * 7), 0) & 0xFF
    return acc


def _overlap(a: float, b: float, start: float, end: float) -> float:
    return max(0.0, min(b, end) - max(a, start))


class SpeedLog:
    """Machine-speed timeline sampled by probes of :func:`reference_loop`.

    On a shared host the same work takes up to 3x longer from one minute
    to the next, and the slowdown follows the load pattern of the work
    itself, so a run-level correction does not track it.  Probes taken
    right before and after every job do: :meth:`normalize` scales each
    stretch of an interval by ``REFERENCE_S / probe time`` interpolated
    between the nearest probes, giving the time the interval would have
    taken at reference speed.  The probe code never changes with the
    program, so a faster program still reads faster.

    A probe between jobs times wall-clock time, which sees every kind of
    slowdown, CPUs taken by other processes included.  A probe beside
    running jobs (:meth:`sampling`) times its thread's CPU time instead,
    so that waiting for the GIL, or for a CPU this process's own threads
    hold, does not count: it times the host, not the program.  Probes
    run one at a time, holding the GIL, and their own time is left out
    of every normalized interval.
    """

    def __init__(self) -> None:
        #: ``(start, end, loop time)`` of every probe.
        self._probes: List[Tuple[float, float, float]] = []
        self._lock = threading.Lock()

    def probe(self, repeats: int = 1, clock=time.perf_counter) -> float:
        """Time *repeats* reference loops now on *clock*; returns (and
        records) their median time."""
        start = time.perf_counter()
        times = []
        for _ in range(repeats):
            begin = clock()
            reference_loop()
            times.append(clock() - begin)
        end = time.perf_counter()
        loop = statistics.median(times)
        with self._lock:
            self._probes.append((start, end, loop))
        return loop

    @contextmanager
    def sampling(self, period: float):
        """Probe every *period* seconds, in CPU time, from a background
        thread while the body runs: for work whose jobs overlap, so that
        no probe can sit between two jobs."""
        stop = threading.Event()

        def sample() -> None:
            while not stop.wait(period):
                self.probe(clock=time.thread_time)

        thread = threading.Thread(target=sample, name="speed-probe", daemon=True)
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()

    def normalize(self, start: float, end: float) -> float:
        """Reference-speed seconds of ``[start, end]`` outside the probes."""
        with self._lock:
            probes = sorted(self._probes)
        if not probes:
            return end - start
        n = len(probes)
        mids = [(s + e) / 2 for s, e, _ in probes]
        times = [loop for _, _, loop in probes]

        def speed(j: int) -> float:
            # One probe jitters by 10-20%; the host's speed moves slower.
            j = min(max(j, 0), n - 1)
            return statistics.median(times[max(0, j - SMOOTHING): j + SMOOTHING + 1])

        def factor(i: int) -> float:
            # Segment i runs from the midpoint of probe i-1 to that of
            # probe i (the outer two are open) at the mean of their speeds.
            return (speed(i - 1) + speed(i)) / 2

        edges = [-math.inf] + mids + [math.inf]
        first = bisect.bisect_left(mids, start)
        last = bisect.bisect_left(mids, end)
        factors = {i: factor(i) for i in range(max(0, first - 1), last + 2)}
        total = 0.0
        for i in range(first, last + 1):
            total += _overlap(edges[i], edges[i + 1], start, end) / factors[i]
        # A probe's halves lie in the segments either side of its midpoint.
        for i in range(max(0, first - 1), min(n, last + 1)):
            s, e, _ = probes[i]
            total -= _overlap(s, mids[i], start, end) / factors[i]
            total -= _overlap(mids[i], e, start, end) / factors[i + 1]
        return total * REFERENCE_S
