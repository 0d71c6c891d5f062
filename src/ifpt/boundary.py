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
    """Strictly increasing positive times; never contains 0.

    Arithmetic grids (t_start + k*dt) carry their descriptor so that time
    lookups go through index arithmetic instead of float equality.
    """

    points: np.ndarray
    t_start: float | None = None
    dt: float | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1 or len(pts) == 0:
            raise GridError("grid needs at least one point")
        if not np.all(np.isfinite(pts)):
            raise GridError("grid points must be finite")
        if pts[0] <= 0.0:
            raise GridError("grid points must be strictly positive")
        if len(pts) > 1 and not np.all(np.diff(pts) > 0.0):
            raise GridError("grid points must be strictly increasing")
        pts.setflags(write=False)

    @classmethod
    def arithmetic(cls, t_start: float, dt: float, steps: int) -> "TimeGrid":
        if dt <= 0 or steps < 1:
            raise GridError("need dt > 0 and steps >= 1")
        if t_start < dt:
            # a first point below dt would put 0 inside the first cell
            raise GridError("t_start must be >= dt (grids exclude 0)")
        pts = t_start + dt * np.arange(steps, dtype=float)
        return cls(pts, t_start=float(t_start), dt=float(dt))

    @property
    def is_arithmetic(self) -> bool:
        return self.dt is not None

    def __len__(self) -> int:
        return len(self.points)

    def lookup(self, t: float) -> int | None:
        """Index of the grid point matching t, or None if t is off-grid."""
        if not math.isfinite(t):
            return None
        if self.is_arithmetic:
            i = round((t - self.t_start) / self.dt)
            if i < 0 or i >= len(self.points):
                return None
        else:
            i = int(np.searchsorted(self.points, t))
            if i == len(self.points) or (
                i > 0 and abs(t - self.points[i - 1]) < abs(t - self.points[i])
            ):
                i -= 1
            if i < 0:
                return None
        ref = self.points[i]
        if abs(t - ref) <= GRID_RTOL * max(1.0, abs(ref)):
            return int(i)
        return None

    def matches(self, other: "TimeGrid") -> bool:
        return len(self) == len(other) and bool(
            np.all(
                np.abs(self.points - other.points)
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

    def __call__(self, t: float) -> float:
        """Curve value at time t; the fill value everywhere off the grid."""
        if t < 0:
            raise ValueError("t must be >= 0")
        idx = self.grid.lookup(t)
        if idx is None:
            return self.off_grid_value
        return float(self.values[idx])


def compactify_space(x) -> np.ndarray:
    """phi(x) = x / (1 + |x|), with +-inf mapped to +-1."""
    x = np.asarray(x, dtype=float)
    with np.errstate(invalid="ignore"):
        out = np.where(np.isfinite(x), x / (1.0 + np.abs(x)), np.sign(x))
    return out


def compactify_time(t) -> np.ndarray:
    """psi(t) = t / (1 + t) on [0, inf], mapping inf to 1."""
    t = np.asarray(t, dtype=float)
    return np.where(np.isfinite(t), t / (1.0 + t), 1.0)


def _raster_rows(curve: BoundaryCurve, resolution: int) -> np.ndarray:
    """Lowest epigraph row index per lattice column, on the unit square.

    The compactified square maps time through psi and space through
    (phi + 1) / 2.  Grid points are binned to the nearest lattice column;
    columns without a grid point take the off-grid fill.  Row indices are
    the smallest lattice row lying inside the epigraph.
    """
    n = resolution
    cols_of_points = np.rint(compactify_time(curve.grid.points) * (n - 1)).astype(int)
    thr = np.full(n, 0.5 * (compactify_space(curve.off_grid_value) + 1.0))
    v = 0.5 * (compactify_space(curve.values) + 1.0)
    # epigraphs union where several grid points land in one column
    np.minimum.at(thr, cols_of_points, v)
    rows = np.ceil(thr * (n - 1) - 1e-9).astype(int)
    return np.clip(rows, 0, n - 1)


def _directed_hausdorff(rows_a: np.ndarray, rows_b: np.ndarray, resolution: int) -> float:
    # the farthest point of A from B sits at the bottom of its column
    n = resolution
    h = 1.0 / (n - 1)
    i = np.arange(n)
    du = (i[:, None] - i[None, :]) * h
    dv = np.maximum(0, rows_b[None, :] - rows_a[:, None]) * h
    return float(np.sqrt(du**2 + dv**2).min(axis=1).max())


def epigraph_hausdorff(a: BoundaryCurve, b: BoundaryCurve, resolution: int) -> float:
    """Hausdorff distance between lattice-sampled compactified epigraphs.

    Symmetric, zero for identical curves, and a metric on the rasterized
    point clouds; used as the refinement convergence diagnostic.
    """
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    ra = _raster_rows(a, resolution)
    rb = _raster_rows(b, resolution)
    return max(
        _directed_hausdorff(ra, rb, resolution),
        _directed_hausdorff(rb, ra, resolution),
    )


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
