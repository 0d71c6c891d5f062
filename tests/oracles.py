"""Reference computations that no command runs: the tests hold the solver to them.

The characteristic exponent of a Lévy triple and the scale function of a
diffusion, by adaptive quadrature (scipy.integrate), and the crossing
probabilities of Brownian motion and a line, by brute-force paths through
``forward_fpt``.  The convention for psi is the one in ``ifpt.processes``:

    E exp(i theta X_t) = exp(-t psi(theta)),
    psi(theta) = i theta a + sigma^2 theta^2 / 2
                 + integral (1 - e^{i theta x} + i theta x 1_{(-1,1)}(x)) dPi.
"""

import math

import numpy as np
from scipy.integrate import quad

from ifpt.boundary import BoundaryCurve, TimeGrid
from ifpt.calibrate import PointInitial
from ifpt.processes import BrownianDrift, FiniteAtoms, IntervalDiffusion, LevyMeasureSpec, LevyTriple
from ifpt.verify import forward_fpt

QUAD_REL_TOL = 1e-8
SCALE_ABS_TOL = 1e-10


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach its tolerance."""


def _quad(f, a, b) -> float:
    val, err = quad(f, a, b, epsabs=1e-13, epsrel=QUAD_REL_TOL, limit=400)
    if err > 100 * max(1e-12, QUAD_REL_TOL * abs(val)):
        raise QuadratureError(f"quadrature residual {err:g} for value {val:g}")
    return val


def char_integral(measure, theta: float) -> complex:
    """The jump part of psi(theta) for a ``LevyMeasureSpec`` or one of its
    components: a sum over ``FiniteAtoms``, quadrature over a ``OneSidedStable``."""
    if isinstance(measure, LevyMeasureSpec):
        return sum((char_integral(c, theta) for c in measure.components), 0j)
    if isinstance(measure, FiniteAtoms):
        out = 0j
        for x, r in measure.atoms:
            comp = 1.0 - np.exp(1j * theta * x)
            if abs(x) < 1.0:
                comp += 1j * theta * x
            out += r * comp
        return complex(out)
    # computed on jump magnitudes; mirroring the support flips the
    # imaginary part only (the real part is even in x)
    c, a, lam = measure.intensity, measure.alpha, measure.tempering

    def dens(m):
        return c * m ** (-1.0 - a) * math.exp(-lam * m)

    re = _quad(lambda m: (1.0 - math.cos(theta * m)) * dens(m), 0.0, 1.0)
    re += _quad(lambda m: (1.0 - math.cos(theta * m)) * dens(m), 1.0, np.inf)
    im = _quad(lambda m: (theta * m - math.sin(theta * m)) * dens(m), 0.0, 1.0)
    im += _quad(lambda m: -math.sin(theta * m) * dens(m), 1.0, np.inf)
    return complex(re, measure.sign * im)


def levy_char_exponent(triple: LevyTriple, theta: float) -> complex:
    """psi(theta) with the drift sign as printed; psi(0) = 0."""
    psi = 1j * theta * triple.a + 0.5 * triple.sigma2 * theta**2
    psi += char_integral(triple.levy_measure, theta)
    return complex(psi)


def scale_transform(model: IntervalDiffusion, x: float, c: float) -> float:
    """f(x) = integral from c to x of 1/sigma, strictly increasing in x."""
    L, R = model.state_bounds
    if not (L < c < R):
        raise ValueError("c must lie in (L, R)")
    if not (L < x < R):
        raise ValueError("x must lie in (L, R)")
    if x == c:
        return 0.0
    val, err = quad(lambda z: 1.0 / float(model.sigma(z)), c, x, epsabs=SCALE_ABS_TOL, limit=400)
    # quad's estimate is conservative; only genuine non-convergence raises
    if err > 1e-6 * max(1.0, abs(val)):
        raise QuadratureError(f"scale transform residual {err:g}")
    return float(val)


def bm_linear_crossing_mc(
    c: float,
    gamma: float,
    ts,
    n_paths: int,
    dt: float,
    seed: int,
) -> np.ndarray:
    """Brute-force crossing probabilities of c + gamma*s, checked every dt.

    Runs n_paths standard Brownian paths from 0 through ``forward_fpt`` on
    the grid dt, 2 dt, ... up to max(ts), and returns for each t the
    fraction that crossed by the first grid time >= t: a check of the
    ``InverseGaussianHitting(c, gamma)`` law up to discrete monitoring.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    grid = TimeGrid(dt, dt, int(round(float(ts.max()) / dt)))
    curve = BoundaryCurve(grid, c + gamma * grid.points)
    times = np.sort(forward_fpt(BrownianDrift(0, 1), PointInitial(0.0), curve, n_paths, seed).times)
    # the 1e-12 keeps a t that sits on a grid time from rounding past it
    at = grid.points[np.minimum(np.searchsorted(grid.points, ts - 1e-12), len(grid) - 1)]
    return np.searchsorted(times, at, side="right") / n_paths
