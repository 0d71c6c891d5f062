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
from scipy.special import ndtr

from .boundary import BoundaryCurve, BoundaryEstimate, TimeGrid
from .calibrate import InitialDistribution, evolve
from .orders import OrderReport
# perfbench/tracer.py patches this name; it goes when the benchmark is next revised
from .processes import step_increments  # noqa: F401
from .rng import generator
from .targets import TargetDistribution


class GridMismatchError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class FptSample:
    """First-passage times on a grid; +inf marks paths that never crossed."""

    times: np.ndarray
    grid: TimeGrid
    n: int

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        t.setflags(write=False)
        object.__setattr__(self, "times", t)
        if len(t) != self.n:
            raise ValueError("times length must equal n")

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
    times = np.full(n, math.inf)
    for k, t, ens in evolve(model, initial, boundary.grid, n, seed, None):
        crossed = np.flatnonzero(ens.x >= boundary.values[k])
        times[ens.ids[crossed]] = t
        ens.remove(crossed)
        if not len(ens.ids):
            break
    return FptSample(times=times, grid=boundary.grid, n=n)


def ks_statistic(sample: FptSample, target: TargetDistribution) -> tuple[float, float]:
    """sup over grid times of |empirical P(tau <= t) - (1 - S(t))|.

    Returns ``(statistic, t)`` where t is the first grid time attaining
    the supremum.
    """
    if sample.n == 0:
        raise ValueError("sample must be nonempty")
    finite = np.sort(sample.times[np.isfinite(sample.times)])
    ts = sample.grid.points
    emp = np.searchsorted(finite, ts, side="right") / sample.n
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
    if not g1.matches(g2):
        raise GridMismatchError("boundary grids differ")
    v1, v2 = b1.curve.values, b2.curve.values
    # violation margin; same-signed infinities compare equal (margin 0)
    with np.errstate(invalid="ignore"):
        margin = v1 - (v2 + slack)
    margin = np.where(np.isnan(margin), 0.0, margin)
    i = int(np.argmax(margin))
    worst = float(margin[i])
    return OrderReport(holds=worst <= 0.0, worst_violation=worst, witness=float(g1.points[i]))


# ---------------------------------------------------------------------------
# Closed-form oracles for Brownian motion


def analytic_bm_level_cdf(c: float, t: float) -> float:
    """P(sup_{s<=t} B_s >= c) = 2 Phi(-c / sqrt(t)) for c > 0."""
    if c <= 0 or t <= 0:
        raise ValueError("need c > 0 and t > 0")
    return float(2.0 * ndtr(-c / math.sqrt(t)))


def analytic_bm_linear_cdf(c: float, gamma: float, t: float) -> float:
    """P(exists s <= t : B_s >= c + gamma s), the linear-boundary law.

    Reflection-type closed form, validated against the brute-force path
    oracle below before being trusted anywhere.
    """
    if c <= 0 or t <= 0:
        raise ValueError("need c > 0 and t > 0")
    rt = math.sqrt(t)
    return float(
        ndtr((-c - gamma * t) / rt)
        + math.exp(-2.0 * gamma * c) * ndtr((gamma * t - c) / rt)
    )


def bm_linear_crossing_mc(
    c: float,
    gamma: float,
    ts,
    n_paths: int,
    dt: float,
    seed: int,
) -> np.ndarray:
    """Brute-force crossing probabilities of c + gamma*s on a fine Euler grid.

    Streams over steps so memory stays O(n_paths); returns the empirical
    P(crossed by t) for each requested t.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    horizon = float(ts.max())
    steps = int(round(horizon / dt))
    rng = generator(seed, 0xB0)
    x = np.zeros(n_paths)
    crossed = np.zeros(n_paths, dtype=bool)
    out = np.empty(len(ts))
    order = np.argsort(ts)
    next_out = 0
    sq = math.sqrt(dt)
    for k in range(1, steps + 1):
        x += sq * rng.standard_normal(n_paths)
        s = k * dt
        crossed |= x >= c + gamma * s
        while next_out < len(ts) and ts[order[next_out]] <= s + 1e-12:
            out[order[next_out]] = crossed.mean()
            next_out += 1
    while next_out < len(ts):
        out[order[next_out]] = crossed.mean()
        next_out += 1
    return out
