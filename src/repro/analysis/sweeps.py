"""Parameter sweeps beyond the paper's evaluation.

The paper evaluates fixed-size benchmarks.  Because our generators are
width-parametric, we can additionally ask how the endurance techniques
*scale*: does the naive compiler's write imbalance grow with circuit
size, and does the managed flow keep it flat?  These sweeps back the
scaling ablation benches and the ``design_space`` example.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..core.manager import (
    EnduranceConfig,
    PRESETS,
    full_management,
)
from ..mig.graph import Mig
from ..plim.memory import TYPICAL_ENDURANCE_LOW, estimate_lifetime


@dataclass(frozen=True)
class SweepPoint:
    """One (size, configuration) measurement."""

    parameter: int
    config: str
    gates: int
    instructions: int
    rrams: int
    stdev: float
    max_writes: int
    lifetime: int

    @property
    def writes_per_gate(self) -> float:
        """Instruction (= write) overhead per logic node."""
        return self.instructions / self.gates if self.gates else 0.0


def sweep_widths(
    builder: Callable[[int], Mig],
    widths: Sequence[int],
    configs: Optional[Dict[str, EnduranceConfig]] = None,
    endurance: int = TYPICAL_ENDURANCE_LOW,
    session=None,
) -> List[SweepPoint]:
    """Compile ``builder(width)`` for every width under every config.

    *builder* maps an integer size parameter to a MIG (any of the
    arithmetic generators fits directly).  Every point runs as a
    :class:`repro.flow.Flow` through one session (pass *session* to
    share its cache), so configurations with a common rewriting script
    rewrite each width only once.
    """
    from ..flow import Flow, Session  # deferred: flow imports this package

    if configs is None:
        configs = {
            "naive": PRESETS["naive"],
            "ea-full": PRESETS["ea-full"],
            "wmax20": full_management(20),
        }
    if session is None:
        session = Session()
    points: List[SweepPoint] = []
    for width in widths:
        mig = builder(width)
        gates = mig.num_live_gates()
        for label, config in configs.items():
            result = Flow.for_config(
                config, session=session
            ).source_mig(mig).run().compilation
            stats = result.stats
            life = estimate_lifetime(
                result.program.write_counts(), endurance=endurance
            )
            points.append(
                SweepPoint(
                    parameter=width,
                    config=label,
                    gates=gates,
                    instructions=result.num_instructions,
                    rrams=result.num_rrams,
                    stdev=stats.stdev,
                    max_writes=stats.max_writes,
                    lifetime=life.executions,
                )
            )
    return points


def scaling_exponent(points: Sequence[SweepPoint], field: str) -> float:
    """Crude log-log slope of *field* vs the size parameter.

    Used by the scaling bench to check e.g. that the naive flow's peak
    write count grows super-linearly while the capped flow stays flat
    (slope ~0).  Requires at least two distinct parameters.
    """
    import math

    xs = [p.parameter for p in points]
    ys = [max(1e-9, float(getattr(p, field))) for p in points]
    if len(set(xs)) < 2:
        raise ValueError("need at least two distinct sweep parameters")
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    n = len(lx)
    mean_x = sum(lx) / n
    mean_y = sum(ly) / n
    num = sum((a - mean_x) * (b - mean_y) for a, b in zip(lx, ly))
    den = sum((a - mean_x) ** 2 for a in lx)
    return num / den


def render_sweep(points: Sequence[SweepPoint]) -> str:
    """Fixed-width text table of a sweep result."""
    lines = [
        f"{'param':>6s} {'config':>10s} {'gates':>7s} {'#I':>8s} "
        f"{'#R':>6s} {'stdev':>8s} {'max':>6s} {'lifetime':>12s}"
    ]
    for p in points:
        lines.append(
            f"{p.parameter:6d} {p.config:>10s} {p.gates:7d} "
            f"{p.instructions:8d} {p.rrams:6d} {p.stdev:8.2f} "
            f"{p.max_writes:6d} {p.lifetime:12,d}"
        )
    return "\n".join(lines)


def by_config(
    points: Sequence[SweepPoint], config: str
) -> List[SweepPoint]:
    """Filter a sweep to one configuration, ordered by parameter."""
    return sorted(
        (p for p in points if p.config == config),
        key=lambda p: p.parameter,
    )
