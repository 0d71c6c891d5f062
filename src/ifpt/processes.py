"""Process models and one-step increment generation.

The Lévy simulator follows the jump decomposition: deterministic drift
-a' t with a' = a + integral of x over eta <= |x| < 1, a Gaussian part,
a compound Poisson part for jumps with |x| >= eta, and a surrogate for the
compensated small jumps (variance-matched Gaussian, or nothing in discard
mode).  The characteristic exponent psi is realized with the convention

    E exp(i theta X_t) = exp(-t psi(theta)),
    psi(theta) = i theta a + sigma^2 theta^2 / 2
                 + integral (1 - e^{i theta x} + i theta x 1_{(-1,1)}(x)) dPi,

so a positive a produces a negative drift; the characteristic-function
tests pin this sign down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np
from scipy.special import exp1, gamma as gamma_fn, gammainc, gammaincc, pdtr

from .rng import StreamKeys

QUAD_REL_TOL = 1e-8
SCALE_ABS_TOL = 1e-10
# points of the log-spaced table that inverts a density component's jump tail
TAIL_TABLE_SIZE = 4096


class StateSpaceError(ValueError):
    """A position left the model's state space."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach its tolerance."""


def _quad(f, a, b, points=None) -> float:
    # scipy.integrate (and the scipy.optimize/linalg/sparse tree it loads)
    # costs about 0.3 s and 25 MiB at import, and no CLI command integrates
    from scipy.integrate import quad

    val, err = quad(f, a, b, epsabs=1e-13, epsrel=QUAD_REL_TOL, limit=400, points=points)
    if err > 100 * max(1e-12, QUAD_REL_TOL * abs(val)):
        raise QuadratureError(f"quadrature residual {err:g} for value {val:g}")
    return val


def upper_incomplete_gamma(s: float, z: float) -> float:
    """Gamma(s, z) for s > -2, z > 0, via the upward recurrence."""
    if z <= 0:
        raise ValueError("z must be > 0")
    if s > 0:
        return gamma_fn(s) * gammaincc(s, z)
    if s == 0.0:
        return float(exp1(z))
    return (upper_incomplete_gamma(s + 1.0, z) - z**s * math.exp(-z)) / s


# ---------------------------------------------------------------------------
# Lévy measure components


@dataclass(frozen=True)
class FiniteAtoms:
    """Finitely many jump sizes with Poisson rates."""

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "atoms", tuple((float(x), float(r)) for x, r in self.atoms)
        )
        for x, r in self.atoms:
            if not (math.isfinite(x) and math.isfinite(r)):
                raise ValueError("atoms must be finite")
            if x == 0.0:
                raise ValueError("jump size 0 is not allowed")
            if r <= 0:
                raise ValueError("atom rates must be positive")
        object.__setattr__(self, "has_pos", any(x > 0 for x, _ in self.atoms))
        object.__setattr__(self, "has_neg", any(x < 0 for x, _ in self.atoms))

    touches_zero = False
    infinite_mass = False
    unbounded_variation = False

    def tail_rate(self, eta: float) -> float:
        return sum(r for x, r in self.atoms if abs(x) >= eta)

    def mean_trunc(self, eta: float) -> float:
        return sum(x * r for x, r in self.atoms if eta <= abs(x) < 1.0)

    def small_var(self, eta: float) -> float:
        return sum(x * x * r for x, r in self.atoms if abs(x) < eta)

    def char_integral(self, theta: float) -> complex:
        out = 0j
        for x, r in self.atoms:
            comp = 1.0 - np.exp(1j * theta * x)
            if abs(x) < 1.0:
                comp += 1j * theta * x
            out += r * comp
        return complex(out)

    def tail_ppf(self, eta: float):
        tail = [(x, r) for x, r in self.atoms if abs(x) >= eta]
        sizes = np.array([x for x, _ in tail])
        rates = np.array([r for _, r in tail])
        cum = np.cumsum(rates) / rates.sum()

        def ppf(u):
            return sizes[np.searchsorted(cum, u, side="left")]

        return ppf


class _DensityComponent:
    """Shared machinery for one-sided absolutely continuous components.

    Subclasses define the density of jump magnitudes on (0, inf), its tail
    rate ``tail_rate(y)`` (the rate of magnitudes >= y) and the analytic
    pieces; ``side`` mirrors the support onto the negative axis.
    """

    touches_zero = True
    infinite_mass = True
    unbounded_variation = False

    def __post_init__(self):
        if self.side not in ("+", "-"):
            raise ValueError("side must be '+' or '-'")
        object.__setattr__(self, "has_pos", self.side == "+")
        object.__setattr__(self, "has_neg", self.side == "-")

    @property
    def sign(self) -> float:
        return 1.0 if self.side == "+" else -1.0

    def mean_trunc(self, eta: float) -> float:
        if eta >= 1.0:
            return 0.0
        return self.sign * self._magnitude_mean(eta, 1.0)

    def char_integral(self, theta: float) -> complex:
        # computed on jump magnitudes; mirroring the support flips the
        # imaginary part only (the real part is even in x)
        re = _quad(lambda m: (1.0 - math.cos(theta * m)) * self._magnitude_density(m), 0.0, 1.0)
        re += _quad(lambda m: (1.0 - math.cos(theta * m)) * self._magnitude_density(m), 1.0, np.inf)
        im = _quad(
            lambda m: (theta * m - math.sin(theta * m)) * self._magnitude_density(m), 0.0, 1.0
        )
        im += _quad(lambda m: -math.sin(theta * m) * self._magnitude_density(m), 1.0, np.inf)
        return complex(re, self.sign * im)

    def tail_ppf(self, eta: float):
        """Inverse CDF of the normalized magnitude tail, via a log-spaced table."""
        rate = self.tail_rate(eta)
        hi = eta
        while self.tail_rate(hi) > 1e-13 * rate:
            hi *= 2.0
        ys = np.geomspace(eta, hi, TAIL_TABLE_SIZE)
        cdf = 1.0 - np.array([self.tail_rate(y) for y in ys]) / rate
        cdf[0] = 0.0
        cdf, idx = np.unique(cdf, return_index=True)
        logy = np.log(ys)[idx]
        sign = self.sign

        def ppf(u):
            return sign * np.exp(np.interp(u, cdf, logy))

        return ppf


@dataclass(frozen=True)
class OneSidedStable(_DensityComponent):
    """Density c |x|^(-1-alpha) exp(-tempering |x|) on one side of 0."""

    side: str
    alpha: float
    intensity: float
    tempering: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.alpha < 2.0:
            raise ValueError("alpha must be in (0, 2)")
        if self.intensity <= 0 or self.tempering < 0:
            raise ValueError("need intensity > 0 and tempering >= 0")
        # integral of min(1, |x|) is infinite iff alpha >= 1, tempered or not
        object.__setattr__(self, "unbounded_variation", self.alpha >= 1.0)

    def _magnitude_density(self, m):
        return self.intensity * m ** (-1.0 - self.alpha) * math.exp(-self.tempering * m)

    def tail_rate(self, y: float) -> float:
        c, a, lam = self.intensity, self.alpha, self.tempering
        if lam == 0.0:
            return c * y**-a / a
        return c * lam**a * upper_incomplete_gamma(-a, lam * y)

    def _magnitude_mean(self, lo: float, hi: float) -> float:
        c, a, lam = self.intensity, self.alpha, self.tempering
        if lam == 0.0:
            if a == 1.0:
                return c * math.log(hi / lo)
            return c * (hi ** (1.0 - a) - lo ** (1.0 - a)) / (1.0 - a)
        return c * lam ** (a - 1.0) * (
            upper_incomplete_gamma(1.0 - a, lam * lo)
            - upper_incomplete_gamma(1.0 - a, lam * hi)
        )

    def small_var(self, eta: float) -> float:
        c, a, lam = self.intensity, self.alpha, self.tempering
        if lam == 0.0:
            return c * eta ** (2.0 - a) / (2.0 - a)
        return c * lam ** (a - 2.0) * gamma_fn(2.0 - a) * gammainc(2.0 - a, lam * eta)

    def tail_ppf(self, eta: float):
        if self.tempering == 0.0:
            sign, a = self.sign, self.alpha

            def ppf(u):
                return sign * eta * (1.0 - u) ** (-1.0 / a)

            return ppf
        return super().tail_ppf(eta)


@dataclass(frozen=True)
class GammaSubordinatorMeasure(_DensityComponent):
    """Gamma-process jump measure, density shape * |x|^-1 exp(-rate |x|)."""

    side: str
    shape: float
    rate: float

    def __post_init__(self):
        super().__post_init__()
        if self.shape <= 0 or self.rate <= 0:
            raise ValueError("need shape > 0 and rate > 0")

    def _magnitude_density(self, m):
        return self.shape * math.exp(-self.rate * m) / m

    def tail_rate(self, y: float) -> float:
        return self.shape * float(exp1(self.rate * y))

    def _magnitude_mean(self, lo: float, hi: float) -> float:
        return self.shape * (math.exp(-self.rate * lo) - math.exp(-self.rate * hi)) / self.rate

    def small_var(self, eta: float) -> float:
        g, r = self.shape, self.rate
        return g * (1.0 - (1.0 + r * eta) * math.exp(-r * eta)) / r**2


@dataclass(frozen=True)
class LevyMeasureSpec:
    components: tuple

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))

    def tail_rate(self, eta):
        return sum(c.tail_rate(eta) for c in self.components)

    def mean_trunc(self, eta):
        return sum(c.mean_trunc(eta) for c in self.components)

    def small_var(self, eta):
        return sum(c.small_var(eta) for c in self.components)

    def char_integral(self, theta):
        return sum((c.char_integral(theta) for c in self.components), 0j)


@dataclass(frozen=True)
class LevyTriple:
    """Characteristic triple (a, sigma^2, Pi), signs exactly as in psi."""

    a: float
    sigma2: float
    levy_measure: LevyMeasureSpec

    def __post_init__(self):
        if self.sigma2 < 0:
            raise ValueError("sigma2 must be >= 0")


def small_jump_stats(measure: LevyMeasureSpec, eta: float) -> tuple[float, float, float]:
    """(rate of |x| >= eta, drift correction over eta <= |x| < 1, variance below eta)."""
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must be in (0, 1)")
    return (
        float(measure.tail_rate(eta)),
        float(measure.mean_trunc(eta)),
        float(measure.small_var(eta)),
    )


def levy_char_exponent(triple: LevyTriple, theta: float) -> complex:
    """psi(theta) with the drift sign as printed; psi(0) = 0."""
    psi = 1j * theta * triple.a + 0.5 * triple.sigma2 * theta**2
    psi += triple.levy_measure.char_integral(theta)
    return complex(psi)


# ---------------------------------------------------------------------------
# Classification


class Uniqueness(Enum):
    FULL_INTERVAL = "full_interval"
    SUPPORT_ONLY = "support_only"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class LevyClassification:
    existence_diffuse: bool
    unbounded_variation: bool
    zero_in_supp: bool
    pos_mass: bool
    neg_mass: bool
    uniqueness: Uniqueness
    i_xi_description: str


def classify_levy(triple: LevyTriple) -> LevyClassification:
    """Existence and uniqueness regime of the triple, decided analytically.

    Marginals from a point start are diffuse iff sigma^2 > 0 or the measure
    has infinite total mass.  Uniqueness holds on the full interval
    (0, t^xi) under unbounded variation or an accumulation of positive
    jumps at 0, and only on the target's support when the accumulation is
    from below.
    """
    comps = triple.levy_measure.components
    sigma_pos = triple.sigma2 > 0
    existence = sigma_pos or any(c.infinite_mass for c in comps)
    unbounded = sigma_pos or any(c.unbounded_variation for c in comps)
    zero_supp = any(c.touches_zero for c in comps)
    pos_mass = any(c.has_pos for c in comps)
    neg_mass = any(c.has_neg for c in comps)
    if unbounded or (zero_supp and pos_mass):
        uniq = Uniqueness.FULL_INTERVAL
        descr = "(0, t_xi)"
    elif zero_supp and neg_mass:
        uniq = Uniqueness.SUPPORT_ONLY
        descr = "supp(target law) intersected with (0, t_xi)"
    else:
        uniq = Uniqueness.UNKNOWN
        descr = "no uniqueness interval established"
    return LevyClassification(
        existence_diffuse=existence,
        unbounded_variation=unbounded,
        zero_in_supp=zero_supp,
        pos_mass=pos_mass,
        neg_mass=neg_mass,
        uniqueness=uniq,
        i_xi_description=descr,
    )


# ---------------------------------------------------------------------------
# Coefficient functions for interval diffusions (closed set of built-ins)


@dataclass(frozen=True)
class Constant:
    value: float

    def __call__(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.value)


@dataclass(frozen=True)
class Linear:
    a: float
    b: float

    def __call__(self, x):
        return self.a + self.b * np.asarray(x, dtype=float)


@dataclass(frozen=True)
class OU:
    """Mean-reverting drift -theta * x."""

    theta: float

    def __call__(self, x):
        return -self.theta * np.asarray(x, dtype=float)


@dataclass(frozen=True)
class BesselDrift:
    """(delta - 1) / (2 x), the Bessel-process drift of dimension delta."""

    delta: float

    def __call__(self, x):
        return (self.delta - 1.0) / (2.0 * np.asarray(x, dtype=float))


@dataclass(frozen=True)
class Power:
    p: float
    coeff: float

    def __call__(self, x):
        return self.coeff * np.asarray(x, dtype=float) ** self.p


# ---------------------------------------------------------------------------
# Process models.  Each model's ``step(x, dt, keys, diag)`` returns the
# positions x advanced by dt, drawing through ``keys`` (one entry per id).


@dataclass(frozen=True)
class BrownianDrift:
    mu: float
    vol: float

    def __post_init__(self):
        if self.vol <= 0:
            raise ValueError("vol must be > 0")

    state_bounds = (-math.inf, math.inf)

    def step(self, x: np.ndarray, dt: float, keys: StreamKeys, diag: Diagnostics | None) -> np.ndarray:
        z = keys.normals(slot=0)
        z *= self.vol * math.sqrt(dt)
        z += x + self.mu * dt
        return z


@dataclass(frozen=True)
class Levy:
    triple: LevyTriple
    small_jump_mode: str = "gaussian"
    eta: float = 1e-2

    def __post_init__(self):
        if self.small_jump_mode not in ("gaussian", "discard"):
            raise ValueError("small_jump_mode must be 'gaussian' or 'discard'")
        if not 0.0 < self.eta < 1.0:
            raise ValueError("eta must be in (0, 1)")

    state_bounds = (-math.inf, math.inf)

    @cached_property
    def _stats(self):
        return small_jump_stats(self.triple.levy_measure, self.eta)

    @cached_property
    def drift(self) -> float:
        # a' = a + mean of jumps in eta <= |x| < 1; realized as -a' per unit time
        return -(self.triple.a + self._stats[1])

    @cached_property
    def gauss_std(self) -> float:
        var = self.triple.sigma2
        if self.small_jump_mode == "gaussian":
            var += self._stats[2]
        return math.sqrt(var)

    @cached_property
    def jump_rate(self) -> float:
        return self._stats[0]

    @cached_property
    def _tail_ppf(self):
        comps = [c for c in self.triple.levy_measure.components if c.tail_rate(self.eta) > 0]
        rates = np.array([c.tail_rate(self.eta) for c in comps])
        frac = np.cumsum(rates) / rates.sum()
        ppfs = [c.tail_ppf(self.eta) for c in comps]

        def ppf(u):
            u = np.asarray(u, dtype=float)
            out = np.empty_like(u)
            lo = 0.0
            for j, p in enumerate(ppfs):
                hi = frac[j]
                mask = (u >= lo) & (u < hi) if j < len(ppfs) - 1 else (u >= lo)
                if mask.any():
                    rescaled = np.clip((u[mask] - lo) / (hi - lo), 0.0, 1.0 - 1e-15)
                    out[mask] = p(rescaled)
                lo = hi
            return out

        return ppf

    def step(self, x: np.ndarray, dt: float, keys: StreamKeys, diag: Diagnostics | None) -> np.ndarray:
        out = x + self.drift * dt
        if self.gauss_std > 0:
            z = keys.normals(slot=0)
            z *= self.gauss_std * math.sqrt(dt)
            out += z
        if self.jump_rate > 0:
            jumping, counts = poisson_jumps(self.jump_rate * dt, keys.uniforms(slot=1))
            # a particle's j-th jump size is keyed (slot 2, row j, id): it does
            # not depend on the alive set or on the other particles' counts
            j = 0
            while len(jumping):
                u = replace(keys, ids=keys.ids[jumping]).uniforms(slot=2, row=j)
                out[jumping] += self._tail_ppf(u)
                j += 1
                more = counts > j
                jumping, counts = jumping[more], counts[more]
        return out


@dataclass(frozen=True)
class IntervalDiffusion:
    """Euler-Maruyama diffusion on (L, R), R excluded from the state space.

    A substep landing at or above R is rejected (position kept, counter
    incremented); the lower boundary is folded back or rejected depending
    on ``lower_boundary_behavior``.
    """

    beta: object
    sigma: object
    L: float = -math.inf
    R: float = math.inf
    lower_boundary_behavior: str = "unattainable"
    dt_substeps: int = 1

    def __post_init__(self):
        if self.lower_boundary_behavior not in ("unattainable", "reflecting"):
            raise ValueError("lower_boundary_behavior must be 'unattainable' or 'reflecting'")
        if self.dt_substeps < 1:
            raise ValueError("dt_substeps must be >= 1")
        if not self.L < self.R:
            raise ValueError("need L < R")
        probe = _probe_grid(self.L, self.R)
        sig = np.asarray(self.sigma(probe), dtype=float)
        if np.any(~np.isfinite(sig)) or np.any(sig <= 0):
            raise ValueError("sigma must be finite and > 0 on (L, R)")

    @property
    def state_bounds(self):
        return (self.L, self.R)

    def step(self, x: np.ndarray, dt: float, keys: StreamKeys, diag: Diagnostics | None) -> np.ndarray:
        m = self.dt_substeps
        h = dt / m
        sqh = math.sqrt(h)
        z = keys.normal_block(m, slot=0)
        reflect = self.lower_boundary_behavior == "reflecting"
        for j in range(m):
            prop = x + np.asarray(self.beta(x), dtype=float) * h
            prop += np.asarray(self.sigma(x), dtype=float) * sqh * z[j]
            if math.isfinite(self.L):
                if reflect:
                    prop = self.L + np.abs(prop - self.L)
                else:
                    low = prop <= self.L
                    if low.any():
                        prop[low] = x[low]
                        if diag is not None:
                            diag.lower_rejections += int(low.sum())
            high = prop >= self.R
            if high.any():
                prop[high] = x[high]
                if diag is not None:
                    diag.upper_rejections += int(high.sum())
            x = prop
        return x


def _probe_grid(L: float, R: float, n: int = 129) -> np.ndarray:
    lo = L if math.isfinite(L) else (min(R, 0.0) - 10.0 if math.isfinite(R) else -10.0)
    hi = R if math.isfinite(R) else (max(L, 0.0) + 10.0 if math.isfinite(L) else 10.0)
    pts = np.linspace(lo, hi, n + 2)[1:-1]
    return pts


@dataclass
class Diagnostics:
    """Mutable counters surfaced in run reports."""

    upper_rejections: int = 0
    lower_rejections: int = 0
    tie_shortfall: int = 0
    tie_events: int = 0


def check_positions(model, positions: np.ndarray, where: str = "") -> None:
    """Raise StateSpaceError unless every position is finite and in (L, R)."""
    if not len(positions):
        return
    lo, hi = model.state_bounds
    # min and max are NaN if any entry is; NaN fails both comparisons
    if lo < positions.min() and positions.max() < hi:
        return
    prefix = f"{where}: " if where else ""
    if not np.all(np.isfinite(positions)):
        raise StateSpaceError(prefix + "positions must be finite")
    raise StateSpaceError(prefix + "position outside the open state space (L, R)")


def step_increments(
    model,
    positions: np.ndarray,
    dt: float,
    stream_keys: StreamKeys,
    diag: Diagnostics | None = None,
) -> np.ndarray:
    """Advance positions by one increment of length dt with ``model.step``.

    Pure in (model, positions, dt, stream_keys): every draw is keyed by
    particle id, so the result is independent of thread count and of which
    particles elsewhere in the ensemble are alive.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    positions = np.asarray(positions, dtype=float)
    check_positions(model, positions)
    return model.step(positions, dt, stream_keys, diag)


@lru_cache(maxsize=64)
def _poisson_cdf(lam: float) -> np.ndarray:
    """P(N <= k) for N ~ Poisson(lam), k = 0, 1, ..., K, with P(N <= K) == 1.0.

    Every uniform in (0, 1) lies below the last entry, so inversion never
    indexes past the table.
    """
    k = 16
    while pdtr(k, lam) < 1.0:
        k *= 2
    cdf = pdtr(np.arange(k + 1), lam)
    cdf = cdf[: int(np.argmax(cdf >= 1.0)) + 1]
    cdf.setflags(write=False)
    return cdf


def poisson_jumps(lam: float, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Poisson(lam) counts by inverse CDF of uniforms u in (0, 1): the
    positions i with a nonzero count, and those counts.

    A count is 0 exactly when u <= P(N = 0), so the table search runs only
    on the uniforms that jump.
    """
    cdf = _poisson_cdf(lam)
    jumping = np.flatnonzero(u > cdf[0])
    return jumping, np.searchsorted(cdf, u[jumping])


def scale_transform(model: IntervalDiffusion, x: float, c: float) -> float:
    """f(x) = integral from c to x of 1/sigma, strictly increasing in x."""
    L, R = model.state_bounds
    if not (L < c < R):
        raise ValueError("c must lie in (L, R)")
    if not (L < x < R):
        raise ValueError("x must lie in (L, R)")
    if x == c:
        return 0.0
    from scipy.integrate import quad  # see _quad

    val, err = quad(lambda z: 1.0 / float(model.sigma(z)), c, x, epsabs=SCALE_ABS_TOL, limit=400)
    # quad's estimate is conservative; only genuine non-convergence raises
    if err > 1e-6 * max(1.0, abs(val)):
        raise QuadratureError(f"scale transform residual {err:g}")
    return float(val)
