"""Forward verification: first-passage simulation and statistical checks.

Crossings are checked only at grid times, matching the calibration's
definition, so a calibrate-then-verify round trip shares one
discretization bias and tests the distributional identity cleanly.
Censored paths (never crossing within the horizon) carry +inf and count
as "not yet crossed" at every finite time, which is exactly what a
defective target prescribes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boundary import BoundaryCurve, BoundaryEstimate, TimeGrid
from .calibrate import InitialDistribution, evolve
from .orders import OrderReport
# perfbench/tracer.py patches this name; it goes when the benchmark is next revised
from .processes import step_increments  # noqa: F401
from .targets import TargetDistribution


class GridMismatchError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class FptSample:
    """First-passage times on a grid; +inf marks paths that never crossed."""

    times: np.ndarray
    grid: TimeGrid

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        t.setflags(write=False)
        object.__setattr__(self, "times", t)

    @property
    def censored_fraction(self) -> float:
        return float(np.isinf(self.times).mean())


def forward_fpt(
    model,
    initial: InitialDistribution,
    boundary: BoundaryCurve,
    n: int,
    seed: int,
) -> FptSample:
    """Simulate n fresh paths; FPT is the first grid time with X >= b."""
    points = boundary.grid.points
    # each path's crossing step, in the narrowest type; len(points) marks no crossing
    hit = np.full(n, len(points), dtype=np.min_scalar_type(len(points)))
    for k, _, ens in evolve(model, initial, boundary.grid, n, seed, None):
        crossed = np.flatnonzero(ens.x >= boundary.values[k])
        hit[ens.ids[crossed]] = k
        ens.remove(crossed)
        if not len(ens.ids):
            break
    return FptSample(times=np.append(points, math.inf)[hit], grid=boundary.grid)


def ks_statistic(sample: FptSample, target: TargetDistribution) -> tuple[float, float]:
    """sup over grid times of |empirical P(tau <= t) - (1 - S(t))|.

    Returns ``(statistic, t)`` where t is the first grid time attaining
    the supremum.
    """
    n = len(sample.times)
    if n == 0:
        raise ValueError("sample must be nonempty")
    ts = sample.grid.points
    # time t counts at every grid point from the first ts[i] >= t on: cell i
    # of the ascending grid, or cell len(ts) past it, where the non-finite
    # times go too; the counts need no sorted copy of the sample
    cell = np.searchsorted(ts, sample.times)
    cell[~np.isfinite(sample.times)] = len(ts)
    emp = np.cumsum(np.bincount(cell, minlength=len(ts) + 1)[:-1]) / n
    cdf = 1.0 - np.asarray(target.survival(ts), dtype=float)
    gap = np.abs(emp - cdf)
    i = int(np.argmax(gap))
    return float(gap[i]), float(ts[i])


def dkw_critical_value(n: int, alpha: float) -> float:
    """The (1 - alpha) bound on the KS statistic of n samples, sqrt(ln(2/alpha) / (2n)).

    By the Dvoretzky-Kiefer-Wolfowitz inequality with Massart's constant,
    the statistic of a correct boundary exceeds it with probability at
    most alpha (the grid-time statistic is a sup over fewer points).
    """
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


def compare_boundaries(b1: BoundaryEstimate, b2: BoundaryEstimate, slack: float = 0.0) -> OrderReport:
    """Check b1 <= b2 + slack at every grid point, infinities included."""
    # the negated comparison also rejects NaN, under which every margin reads as held
    if not slack >= 0:
        raise ValueError("slack must be >= 0")
    g1, g2 = b1.curve.grid, b2.curve.grid
    if not g1.matches(g2.points):
        raise GridMismatchError("boundary grids differ")
    v1, v2 = b1.curve.values, b2.curve.values
    # violation margin; same-signed infinities compare equal (margin 0)
    with np.errstate(invalid="ignore"):
        margin = v1 - (v2 + slack)
    return OrderReport.worst(np.where(np.isnan(margin), 0.0, margin), g1.points, 0.0)
