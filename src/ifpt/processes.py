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
import numbers
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

from .rng import _CHUNK, MAX_SIZE, StreamKeys
from .targets import _libm

# points of the log-spaced table that inverts a tempered component's jump tail
TAIL_TABLE_SIZE = 4096


class StateSpaceError(ValueError):
    """A position left the model's state space."""


# ---------------------------------------------------------------------------
# Incomplete gamma functions, per element of an array until each converges.
# Every exp, log and power is libm's and numpy does only + - * /, so no value
# depends on the SIMD kernels numpy picks.

_EPS = 2.0**-52


def _series(z: np.ndarray, t: np.ndarray, ratio) -> np.ndarray:
    """t + t ratio(1, z) + t ratio(1, z) ratio(2, z) + ..., per element of z."""
    total, idx, n = t.copy(), np.arange(len(z)), 0
    while len(idx):
        n += 1
        t = t * ratio(n, z)
        total[idx] += t
        keep = np.abs(t) >= np.abs(total[idx]) * _EPS
        idx, t, z = idx[keep], t[keep], z[keep]
    return total


def _gamma_fraction(s: float, z: np.ndarray) -> np.ndarray:
    """Gamma(s, z) / (z^s e^-z) by Lentz's continued fraction, per element;
    it converges fast for z >= s + 1 (Numerical Recipes, 3rd ed., 6.2)."""
    b = z + (1.0 - s)
    h = d = 1.0 / b
    c = np.full(len(z), math.inf)  # so that the first c is b
    idx, i = np.arange(len(z)), 0
    while len(idx):
        i += 1
        an = -i * (i - s)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = d * c
        h[idx] *= delta
        keep = np.abs(delta - 1.0) >= _EPS
        idx, b, c, d = idx[keep], b[keep], c[keep], d[keep]
    return h


def _gamma_tails(s: float, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P(s, z), Q(s, z)), the regularized lower and upper incomplete gamma
    functions, for s > 0 and a 1-D array z >= 0: the series below s + 1, the
    continued fraction above it, and the other tail as 1 minus the first."""
    lg = math.lgamma(s)
    # z^s e^-z / Gamma(s)
    pre = _libm(lambda v: math.exp(s * math.log(v) - v - lg) if v > 0 else 0.0, z)
    low = z < s + 1.0
    p, q = np.empty(len(z)), np.empty(len(z))
    # z^n / (s (s + 1) ... (s + n)) summed over n >= 0
    p[low] = pre[low] * _series(z[low], np.full(low.sum(), 1.0 / s), lambda n, z: z / (s + n))
    q[~low] = pre[~low] * _gamma_fraction(s, z[~low])
    q[low], p[~low] = 1.0 - p[low], 1.0 - q[~low]
    return p, q


def _exp1(z: np.ndarray) -> np.ndarray:
    """E1(z) = Gamma(0, z) for a 1-D array z > 0: the continued fraction from 1 up;
    below 1, -C - log z - sum over k >= 1 of (-z)^k / (k k!), C Euler's constant."""
    out = np.empty(len(z))
    hi = z >= 1.0
    out[hi] = _libm(lambda v: math.exp(-v), z[hi]) * _gamma_fraction(0.0, z[hi])
    lo = z[~hi]
    series = _series(lo, -lo, lambda n, z: -z * n / ((n + 1) * (n + 1)))
    out[~hi] = -0.57721566490153286 - _libm(math.log, lo) - series
    return out


def _small_s_upper_gamma(s: float, z: np.ndarray) -> np.ndarray:
    """Gamma(s, z) for 0 < s < 1/4 and a 1-D array z > 0, with no 1 - P(s, z),
    which cancels there: z^s e^-z times the continued fraction from X = s + 1
    up, and below X, Gamma(s, X) plus the integral of t^(s-1) e^-t over
    [z, X], termwise (X^(s+n) - z^(s+n)) (-1)^n / (n! (s + n)).  The n = 0
    term is -X^s expm1(s log(z / X)) / s, and the rest is X^s S(X) - z^s S(z)
    with S(y) = sum over n >= 1 of (-y)^n / (n! (s + n))."""
    top = s + 1.0
    out = np.empty(len(z))
    hi = z >= top
    out[hi] = _libm(lambda v: math.exp(s * math.log(v) - v), z[hi]) * _gamma_fraction(s, z[hi])
    lo = z[~hi]
    if len(lo):

        def tail_sum(y):
            return _series(y, -y / (1.0 + s), lambda n, y: -y * (s + n) / ((n + 1) * (s + n + 1)))

        top_s = math.pow(top, s)
        at_top = math.exp(s * math.log(top) - top) * float(_gamma_fraction(s, np.array([top]))[0])
        first = _libm(lambda v: -top_s * math.expm1(s * math.log(v / top)) / s, lo)
        lo_s = _libm(lambda v: math.pow(v, s), lo)
        out[~hi] = at_top + first + top_s * float(tail_sum(np.array([top]))[0]) - lo_s * tail_sum(lo)
    return out


def upper_incomplete_gamma(s: float, z):
    """Gamma(s, z) for s > -2 and z > 0, a float or a 1-D array; below s = 0
    by the upward recurrence Gamma(s, z) = (Gamma(s + 1, z) - z^s e^-z) / s."""
    zs = np.atleast_1d(np.asarray(z, dtype=float))
    if not np.all(zs > 0):
        raise ValueError("z must be > 0")
    if 0 < s < 0.25:
        out = _small_s_upper_gamma(s, zs)
    elif s > 0:
        out = math.gamma(s) * _gamma_tails(s, zs)[1]
    elif s == 0.0:
        out = _exp1(zs)
    else:
        out = (upper_incomplete_gamma(s + 1.0, zs) - _libm(lambda v: math.pow(v, s) * math.exp(-v), zs)) / s
    return out if np.ndim(z) else float(out[0])


def _near_one_integral(a: float, r: float, h: float) -> float:
    """The integral of (1 - w/v)^-a e^w over [0, h], for h = r v, 0 <= r <= 1/2
    and a >= 0: e^v v^a times that of t^-a e^-t over [v - h, v].

    It is expm1(h) plus the integral of ((1 - w/v)^-a - 1) e^w, summed from
    the Cauchy product of the two Taylor series, whose terms are all
    positive: B_j = (a)_j r^j / j! and E_k = h^k / k! for the scaled powers
    of w, and term n is h sum over j + k = n, j >= 1 of B_j E_k / (n + 1).
    At a = 0 only expm1(h) is left.
    """
    b, e, terms = [1.0], [1.0], []
    n = 0
    while True:
        n += 1
        b.append(b[-1] * (a + n - 1) * r / n)
        e.append(e[-1] * h / n)
        term = h * math.fsum(b[j] * e[n - j] for j in range(1, n + 1)) / (n + 1)
        terms.append(term)
        if term <= _EPS / 4 * math.fsum(terms) and n > h:
            return math.expm1(h) + math.fsum(terms)


# ---------------------------------------------------------------------------
# Lévy measure components


@dataclass(frozen=True)
class FiniteAtoms:
    """Finitely many jump sizes with Poisson rates."""

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        # float() would also take True and "1" from a config
        if not isinstance(self.atoms, (tuple, list, np.ndarray)):
            raise ValueError("atoms must be a list of pairs [size, rate]")
        for pair in self.atoms:
            if not isinstance(pair, (tuple, list, np.ndarray)) or len(pair) != 2:
                raise ValueError("each atom must be a pair [size, rate]")
            if any(isinstance(v, bool) or not isinstance(v, numbers.Real) for v in pair):
                raise ValueError("atom sizes and rates must be numbers")
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

    def tail_ppf(self, eta: float):
        tail = [(x, r) for x, r in self.atoms if abs(x) >= eta]
        sizes = np.array([x for x, _ in tail])
        rates = np.array([r for _, r in tail])
        # divided by its own last entry, which is then exactly 1.0, so that no
        # uniform in (0, 1) lies above it and indexes past the sizes
        cum = np.cumsum(rates)
        cum /= cum[-1]

        def ppf(u):
            return sizes[np.searchsorted(cum, u, side="left")]

        return ppf


@dataclass(frozen=True)
class OneSidedStable:
    """Density c |x|^(-1-alpha) exp(-tempering |x|) on one side of 0.

    ``side`` mirrors the support onto the negative axis.  At alpha = 0 it is
    the Gamma process's jump measure, which needs tempering > 0; see
    ``GammaSubordinatorMeasure``.
    """

    side: str
    alpha: float
    intensity: float
    tempering: float = 0.0

    touches_zero = True
    infinite_mass = True

    def __post_init__(self):
        if self.side not in ("+", "-"):
            raise ValueError("side must be '+' or '-'")
        if not 0.0 <= self.alpha < 2.0:
            raise ValueError("alpha must be in [0, 2)")
        if self.intensity <= 0 or self.tempering < 0:
            raise ValueError("need intensity > 0 and tempering >= 0")
        if self.alpha == 0.0 and self.tempering == 0.0:
            raise ValueError("alpha = 0 needs tempering > 0")
        object.__setattr__(self, "has_pos", self.side == "+")
        object.__setattr__(self, "has_neg", self.side == "-")
        # integral of min(1, |x|) is infinite iff alpha >= 1, tempered or not
        object.__setattr__(self, "unbounded_variation", self.alpha >= 1.0)

    @property
    def sign(self) -> float:
        return 1.0 if self.side == "+" else -1.0

    def tail_rate(self, y):
        """The rate of jump magnitudes >= y, y a float or a 1-D array."""
        c, a, lam = self.intensity, self.alpha, self.tempering
        if lam == 0.0:
            return c * y**-a / a
        return c * lam**a * upper_incomplete_gamma(-a, lam * y)

    def mean_trunc(self, eta: float) -> float:
        if eta >= 1.0:
            return 0.0
        c, a, lam = self.intensity, self.alpha, self.tempering
        if lam == 0.0 and a == 1.0:
            mean = c * math.log(1.0 / eta)
        elif lam == 0.0:
            # 1 - eta^(1 - a) through expm1, which does not cancel as eta nears 1
            mean = -c * math.expm1((1.0 - a) * math.log(eta)) / (1.0 - a)
        elif eta >= 0.5 and lam * (1.0 - eta) <= 1.0:
            # the two upper gammas below would nearly cancel
            mean = c / lam * math.exp(-lam) * _near_one_integral(a, 1.0 - eta, lam * (1.0 - eta))
        else:
            mean = c * lam ** (a - 1.0) * (
                upper_incomplete_gamma(1.0 - a, lam * eta) - upper_incomplete_gamma(1.0 - a, lam)
            )
        return self.sign * mean

    def small_var(self, eta: float) -> float:
        c, a, lam = self.intensity, self.alpha, self.tempering
        if lam == 0.0:
            return c * eta ** (2.0 - a) / (2.0 - a)
        lower = _gamma_tails(2.0 - a, np.array([lam * eta]))[0]
        return c * lam ** (a - 2.0) * math.gamma(2.0 - a) * float(lower[0])

    def tail_ppf(self, eta: float):
        """Inverse CDF of the normalized magnitude tail: in closed form without
        tempering, else through a log-spaced table."""
        sign = self.sign
        if self.tempering == 0.0:
            a = self.alpha

            def ppf(u):
                return sign * eta * (1.0 - u) ** (-1.0 / a)

            return ppf
        rate = self.tail_rate(eta)
        hi = eta
        while self.tail_rate(hi) > 1e-13 * rate:
            hi *= 2.0
        ys = np.geomspace(eta, hi, TAIL_TABLE_SIZE)
        cdf = 1.0 - self.tail_rate(ys) / rate
        cdf[0] = 0.0
        cdf, idx = np.unique(cdf, return_index=True)
        logy = np.log(ys)[idx]

        def ppf(u):
            return sign * np.exp(np.interp(u, cdf, logy))

        return ppf


def GammaSubordinatorMeasure(side: str, shape: float, rate: float) -> OneSidedStable:
    """The Gamma process's jump measure, density shape |x|^-1 exp(-rate |x|):
    the tempered stable density at alpha = 0."""
    if not (shape > 0 and rate > 0):
        raise ValueError("need shape > 0 and rate > 0")
    return OneSidedStable(side, 0.0, shape, rate)


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


def classify_levy(model: Levy) -> LevyClassification:
    """Existence and uniqueness regime of the model's triple, decided analytically.

    Marginals from a point start are diffuse iff sigma^2 > 0 or the measure
    has infinite total mass.  Uniqueness holds on the full interval
    (0, t^xi) under unbounded variation or an accumulation of positive
    jumps at 0, and only on the target's support when the accumulation is
    from below.  An accumulation is one component's: one whose support
    touches 0 on that side.
    """
    comps = model.measure
    sigma_pos = model.sigma2 > 0
    existence = sigma_pos or any(c.infinite_mass for c in comps)
    unbounded = sigma_pos or any(c.unbounded_variation for c in comps)
    zero_supp = any(c.touches_zero for c in comps)
    pos_mass = any(c.has_pos for c in comps)
    neg_mass = any(c.has_neg for c in comps)
    if unbounded or any(c.touches_zero and c.has_pos for c in comps):
        uniq = Uniqueness.FULL_INTERVAL
        descr = "(0, t_xi)"
    elif any(c.touches_zero and c.has_neg for c in comps):
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
        # a scalar broadcasts against x and rounds as the full array would
        return float(self.value)


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


def _euler(z: np.ndarray, x: np.ndarray, beta, sigma, h: float) -> np.ndarray:
    """x + beta(x) h + sigma(x) sqrt(h) z, written into the normals z one RNG
    chunk at a time, with the coefficients evaluated on the chunk.  The sum
    z (sigma sqrt(h)) + (x + beta h) is bit for bit the expression, as IEEE
    addition and multiplication commute."""
    sqh = math.sqrt(h)
    for a in range(0, len(x), _CHUNK):
        xs, zs = x[a : a + _CHUNK], z[a : a + _CHUNK]
        zs *= sigma(xs) * sqh
        zs += xs + beta(xs) * h
    return z


@dataclass(frozen=True)
class Levy:
    """A Lévy process with characteristic triple (a, sigma2, Pi), signs exactly as
    in psi, where Pi is the sum of the components in ``measure``.  It is stepped
    by the jump decomposition at eta; its step constants drift, gauss_std,
    jump_rate and small_jump_variance are set once, when built."""

    a: float
    sigma2: float
    measure: tuple
    small_jump_mode: str = "gaussian"
    eta: float = 1e-2

    def __post_init__(self):
        object.__setattr__(self, "measure", tuple(self.measure))
        if self.sigma2 < 0:
            raise ValueError("sigma2 must be >= 0")
        if self.small_jump_mode not in ("gaussian", "discard"):
            raise ValueError("small_jump_mode must be 'gaussian' or 'discard'")
        if not 0.0 < self.eta < 1.0:
            raise ValueError("eta must be in (0, 1)")
        # an infinite jump rate overflows the Poisson table's search in the first step
        try:
            rates = tuple(c.tail_rate(self.eta) for c in self.measure)
            rate = float(sum(rates))
            mean = float(sum(c.mean_trunc(self.eta) for c in self.measure))
            var = float(sum(c.small_var(self.eta) for c in self.measure))
        except OverflowError:
            rate = mean = var = math.inf
        if not all(math.isfinite(v) for v in (rate, mean, var)):
            raise ValueError("the jump rate, drift and small-jump variance at eta must be finite")
        gauss_var = self.sigma2 + (var if self.small_jump_mode == "gaussian" else 0.0)
        # a' = a + mean of jumps in eta <= |x| < 1; realized as -a' per unit time
        object.__setattr__(self, "drift", -(self.a + mean))
        object.__setattr__(self, "gauss_std", math.sqrt(gauss_var))
        object.__setattr__(self, "jump_rate", rate)
        object.__setattr__(self, "small_jump_variance", var)
        # each component's rate of |x| >= eta, the weights of the jump-size mixture
        object.__setattr__(self, "_tail_rates", rates)

    state_bounds = (-math.inf, math.inf)

    @cached_property
    def _tail_ppf(self):
        tails = [(c, r) for c, r in zip(self.measure, self._tail_rates) if r > 0]
        rates = np.array([r for _, r in tails])
        frac = np.cumsum(rates) / rates.sum()
        ppfs = [c.tail_ppf(self.eta) for c, _ in tails]

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

    def check_step(self, dt: float) -> None:
        """Raise ValueError if a step of length dt needs a jump-count table
        of more than MAX_SIZE entries."""
        if self.jump_rate > 0:
            _poisson_table_end(self.jump_rate * dt)

    def step(self, x: np.ndarray, dt: float, keys: StreamKeys, diag: Diagnostics | None) -> np.ndarray:
        if self.gauss_std > 0:
            out = _euler(keys.normals(slot=0), x, Constant(self.drift), Constant(self.gauss_std), dt)
        else:
            out = x + self.drift * dt
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
    on ``lower_boundary_behavior``.  ``beta`` and ``sigma`` return an array
    or a scalar.  With constant coefficients on the whole line it is
    ``BrownianDrift``.
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
        z = keys.normal_block(m, slot=0)
        L, R = self.L, self.R
        lower, upper = math.isfinite(L), math.isfinite(R)
        reflect = lower and self.lower_boundary_behavior == "reflecting"
        for j in range(m):
            # the last of several substeps goes into an array of its own, so that
            # the result does not hold the whole block alive
            row = z[j].copy() if m > 1 and j == m - 1 else z[j]
            prop = _euler(row, x, self.beta, self.sigma, h)
            if reflect:
                # L + |prop - L|; with L == 0 both shifts are exact no-ops
                if L:
                    prop -= L
                np.abs(prop, out=prop)
                if L:
                    prop += L
            elif lower:
                low = prop <= L
                if low.any():
                    prop[low] = x[low]
                    if diag is not None:
                        diag.lower_rejections += int(low.sum())
            if upper:
                high = prop >= R
                if high.any():
                    prop[high] = x[high]
                    if diag is not None:
                        diag.upper_rejections += int(high.sum())
            x = prop
        return x


def BrownianDrift(mu: float, vol: float) -> IntervalDiffusion:
    """Brownian motion with drift mu and volatility vol: the constant-coefficient
    diffusion on the whole line, whose one Euler substep is exact in law."""
    if vol <= 0:
        raise ValueError("vol must be > 0")
    return IntervalDiffusion(Constant(mu), Constant(vol))


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
    keys: StreamKeys,
    diag: Diagnostics | None = None,
) -> np.ndarray:
    """Advance positions by one increment of length dt with ``model.step``.

    Pure in (model, positions, dt, keys): every draw is keyed by
    particle id, so the result is independent of thread count and of which
    particles elsewhere in the ensemble are alive.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    positions = np.asarray(positions, dtype=float)
    check_positions(model, positions)
    return model.step(positions, dt, keys, diag)


def _poisson_table_end(lam: float) -> int:
    """The last count K of _poisson_cdf(lam)'s table before trimming: the
    first 16 * 2^j with P(N > K) below 2^-60 by the Chernoff bound
    P(N >= k) <= exp(k - lam - k log(k / lam)) for k > lam, O(1) per doubling.

    Raises ValueError, before allocating anything, when the table would pass
    MAX_SIZE entries.  P(N <= lam) is below 1, so that holds for every
    lam >= MAX_SIZE (and for an infinite lam) without a search.
    """
    if lam < MAX_SIZE:
        # 2^-60 is far below the 2^-54 under which P(N <= K) rounds to 1.0
        k, tail_log = 16, -60.0 * math.log(2.0)
        while k < MAX_SIZE and lam > 0 and (
            k + 1 <= lam or k + 1 - lam - (k + 1) * math.log((k + 1) / lam) > tail_log
        ):
            k *= 2
        if k < MAX_SIZE:
            return k
    raise ValueError(f"the Poisson table of a mean of {lam:g} jumps per step would pass {MAX_SIZE} entries")


@lru_cache(maxsize=64)
def _poisson_cdf(lam: float) -> np.ndarray:
    """P(N <= k) for N ~ Poisson(lam), k = 0, 1, ..., K, with P(N <= K) == 1.0.

    The probabilities run out from the mode m: P(N = m) from lgamma, then
    cumulative products of lam / k above it and k / lam below it.  Their
    cumulative sum is divided by its last entry, which cancels the rounding
    of P(N = m) and makes the last entry exactly 1.0, so every uniform in
    (0, 1) lies below it and inversion never indexes past the table.
    """
    end = _poisson_table_end(lam)
    m = int(lam)
    p_mode = math.exp((m * math.log(lam) if m else 0.0) - lam - math.lgamma(m + 1.0))
    below = np.cumprod(np.arange(m, 0, -1) / lam)[::-1]
    above = np.cumprod(lam / np.arange(m + 1, end + 1))
    cdf = np.cumsum(p_mode * np.concatenate([below, [1.0], above]))
    cdf /= cdf[-1]
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
