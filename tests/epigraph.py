"""The Γ-convergence diagnostic: Hausdorff distance between epigraphs.

The paper obtains its boundaries as limits of discrete approximations.
``refine`` calibrates on dyadic refinements of one grid and measures each
consecutive pair by ``epigraph_hausdorff`` on the compactified square.
"""

import numpy as np

from ifpt.boundary import TimeGrid
from ifpt.calibrate import calibrate
from ifpt.rng import derive_seed


def compactify_space(x) -> np.ndarray:
    """phi(x) = x / (1 + |x|), with +-inf mapped to +-1."""
    x = np.asarray(x, dtype=float)
    with np.errstate(invalid="ignore"):
        return np.where(np.isfinite(x), x / (1.0 + np.abs(x)), np.sign(x))


def compactify_time(t) -> np.ndarray:
    """psi(t) = t / (1 + t) on [0, inf], mapping inf to 1."""
    t = np.asarray(t, dtype=float)
    return np.where(np.isfinite(t), t / (1.0 + t), 1.0)


def raster_rows(curve, n: int) -> np.ndarray:
    """Lowest epigraph row index per column of the n x n lattice on the unit square.

    Time maps through psi and space through (phi + 1) / 2.  Grid points are
    binned to the nearest column; columns without a grid point take the
    off-grid fill.
    """
    cols = np.rint(compactify_time(curve.grid.points) * (n - 1)).astype(int)
    thr = np.full(n, 0.5 * (compactify_space(curve.off_grid_value) + 1.0))
    # epigraphs union where several grid points land in one column
    np.minimum.at(thr, cols, 0.5 * (compactify_space(curve.values) + 1.0))
    return np.clip(np.ceil(thr * (n - 1) - 1e-9).astype(int), 0, n - 1)


def epigraph_hausdorff(a, b, n: int) -> float:
    """Hausdorff distance between the rasterized compactified epigraphs of a and b."""
    h = 1.0 / (n - 1)
    du = (np.arange(n)[:, None] - np.arange(n)[None, :]) * h

    def directed(rows_a, rows_b):
        # the farthest point of A from B sits at the bottom of its column
        dv = np.maximum(0, rows_b[None, :] - rows_a[:, None]) * h
        return float(np.sqrt(du**2 + dv**2).min(axis=1).max())

    ra, rb = raster_rows(a, n), raster_rows(b, n)
    return max(directed(ra, rb), directed(rb, ra))


def refine(model, initial, target, dt, steps, levels, n, seed, resolution=128):
    """Calibrate on the grids (dt/2^j, dt/2^j, steps*2^j) for j < levels.

    Level j uses the sub-seed derive_seed(seed, 0x7E, j).  Returns the
    estimates and the distance between each consecutive pair.
    """
    estimates = []
    for j in range(levels):
        grid = TimeGrid(dt / 2**j, dt / 2**j, steps * 2**j)
        estimates.append(calibrate(model, initial, target, grid, n, derive_seed(seed, 0x7E, j)))
    pairs = zip(estimates, estimates[1:])
    return estimates, [epigraph_hausdorff(a.curve, b.curve, resolution) for a, b in pairs]
