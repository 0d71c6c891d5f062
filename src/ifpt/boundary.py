"""Extended-real boundary curves on a time grid.

A curve stores one value per grid point; everywhere off the grid it takes
the upper end of its domain.  The represented function is therefore lower
semicontinuous by construction, which is the shape the killing
construction produces: finite (or -inf) values at grid times, the domain
maximum in between.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

GRID_RTOL = 1e-12


class GridError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """The times t_start + k*dt for k < steps; never contains 0."""

    t_start: float
    dt: float
    steps: int
    points: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # negated comparisons, so NaN fails too
        if not self.dt > 0:
            raise GridError("dt must be > 0")
        if not self.steps >= 1:
            raise GridError("steps must be >= 1")
        if not self.t_start >= self.dt:
            # a first point below dt would put 0 inside the first cell
            raise GridError("t_start must be >= dt (grids exclude 0)")
        # in Python floats, so an overflow fails here instead of warning in
        # numpy; a step count past the float range overflows as well
        try:
            last = self.t_start + self.dt * (self.steps - 1)
        except OverflowError:
            last = math.inf
        if not math.isfinite(last):
            raise GridError("the last grid point must be finite")
        pts = self.t_start + self.dt * np.arange(self.steps, dtype=float)
        # dt below the spacing of doubles near t_start repeats a point
        if not np.all(np.diff(pts) > 0.0):
            raise GridError("grid points must be strictly increasing")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.steps

    @property
    def max_step(self) -> float:
        """The longest step from 0 through the points, as a run takes them."""
        return float(np.max(np.diff(self.points, prepend=0.0)))

    def matches(self, points) -> bool:
        """Do the times equal the grid points one for one, each within GRID_RTOL?"""
        points = np.asarray(points, dtype=float)
        return len(points) == len(self) and bool(
            np.all(
                np.abs(points - self.points)
                <= GRID_RTOL * np.maximum(1.0, np.abs(self.points))
            )
        )


@dataclass(frozen=True, eq=False)
class BoundaryCurve:
    """Grid-indexed extended-real curve; the upper domain bound off the grid."""

    grid: TimeGrid
    values: np.ndarray
    domain_bounds: tuple[float, float] = (-math.inf, math.inf)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if len(vals) != len(self.grid):
            raise ValueError("values length must equal grid length")
        lo, hi = self.domain_bounds
        if not lo < hi:
            raise ValueError("domain bounds must satisfy L < R")
        if np.any(np.nan_to_num(vals, nan=lo) < lo) or np.any(
            np.nan_to_num(vals, nan=hi) > hi
        ):
            raise ValueError("curve values must lie in [L, R]")
        if np.any(np.isnan(vals)):
            raise ValueError("curve values must not be NaN")
        vals.setflags(write=False)

    @property
    def off_grid_value(self) -> float:
        """The fill everywhere off the grid: the upper domain bound."""
        return self.domain_bounds[1]


@dataclass(frozen=True, eq=False)
class BoundaryEstimate:
    """Calibrated boundary plus the survival bookkeeping that produced it."""

    curve: BoundaryCurve
    survival_target: np.ndarray
    survival_achieved: np.ndarray
    particles: int
    seed: int
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        st = np.asarray(self.survival_target, dtype=float)
        sa = np.asarray(self.survival_achieved, dtype=float)
        object.__setattr__(self, "survival_target", st)
        object.__setattr__(self, "survival_achieved", sa)
        k = len(self.curve.grid)
        if len(st) != k or len(sa) != k:
            raise ValueError("survival arrays must align with the grid")
        if np.any(st < -1e-15) or np.any(st > 1 + 1e-15):
            raise ValueError("survival_target must lie in [0, 1]")
        if np.any(np.diff(st) > 1e-15):
            raise ValueError("survival_target must be non-increasing")
