"""Write-traffic statistics — the paper's evaluation metrics.

Table I of the paper characterises each compiled program by the standard
deviation, minimum, and maximum of the per-device write counts; Tables II
and III add instruction (``#I``) and device (``#R``) counts.  This module
computes those numbers plus the improvement over a baseline used in the
prose.

The paper calls the standard deviation "a robust statistical metric"
without specifying the estimator; we use the *population* standard
deviation (every allocated device is observed, there is no sampling), and
expose the sample variant for sensitivity checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence


@dataclass(frozen=True)
class WriteTrafficStats:
    """Summary of a per-device write-count distribution."""

    num_devices: int
    total_writes: int
    min_writes: int
    max_writes: int
    mean: float
    stdev: float
    sample_stdev: float

    @classmethod
    def from_counts(cls, counts: Sequence[int]) -> "WriteTrafficStats":
        """Build the summary from raw per-device counts."""
        n = len(counts)
        if n == 0:
            return cls(0, 0, 0, 0, 0.0, 0.0, 0.0)
        total = sum(counts)
        mean = total / n
        var = sum((c - mean) ** 2 for c in counts) / n
        sample_var = var * n / (n - 1) if n > 1 else 0.0
        return cls(
            num_devices=n,
            total_writes=total,
            min_writes=min(counts),
            max_writes=max(counts),
            mean=mean,
            stdev=math.sqrt(var),
            sample_stdev=math.sqrt(sample_var),
        )

    def describe(self) -> str:
        """One-line summary in the paper's ``min/max STDEV`` format."""
        return (
            f"{self.min_writes}/{self.max_writes} writes, "
            f"stdev {self.stdev:.2f} over {self.num_devices} devices"
        )


def improvement_percent(baseline_stdev: float, new_stdev: float) -> float:
    """Stdev improvement in percent (paper's ``impr.`` definition)."""
    if baseline_stdev == 0:
        return 0.0
    return (1.0 - new_stdev / baseline_stdev) * 100.0


def average_improvement(
    baseline: Sequence[float], new: Sequence[float]
) -> float:
    """Arithmetic mean of per-benchmark improvements (the paper's ``AVG``).

    The paper averages the per-benchmark percentages rather than the
    deviations themselves; zero baselines contribute zero.
    """
    if len(baseline) != len(new):
        raise ValueError("series length mismatch")
    if not baseline:
        return 0.0
    return sum(
        improvement_percent(b, n) for b, n in zip(baseline, new)
    ) / len(baseline)


def gini_coefficient(counts: Sequence[int]) -> float:
    """Gini coefficient of the write distribution (extension metric).

    0 = perfectly balanced, 1 = all writes on one device.  Not in the
    paper; used by the extended analyses and the ablation benchmarks as a
    scale-free alternative to the standard deviation.
    """
    n = len(counts)
    total = sum(counts)
    if n == 0 or total == 0:
        return 0.0
    ordered = sorted(counts)
    cum = 0.0
    weighted = 0.0
    for i, c in enumerate(ordered, start=1):
        cum += c
        weighted += i * c
    return (2.0 * weighted) / (n * total) - (n + 1.0) / n


def normalized_stdev(counts: Sequence[int]) -> Optional[float]:
    """Coefficient of variation (stdev / mean); ``None`` for zero mean."""
    stats = WriteTrafficStats.from_counts(list(counts))
    if stats.mean == 0:
        return None
    return stats.stdev / stats.mean


def write_histogram(counts: Sequence[int], bins: int = 10) -> List[int]:
    """Fixed-width histogram of write counts (for reports/examples)."""
    if not counts:
        return [0] * bins
    top = max(counts)
    if top == 0:
        hist = [0] * bins
        hist[0] = len(counts)
        return hist
    hist = [0] * bins
    for c in counts:
        idx = min(bins - 1, c * bins // (top + 1))
        hist[idx] += 1
    return hist
