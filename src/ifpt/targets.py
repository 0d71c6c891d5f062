"""Target distributions for the inverse problem: laws of xi > 0.

Each kind evaluates its survival function S(t) = P(xi > t) exactly and
checks its parameters when built, so every object is the law of some
xi > 0: S(0) = 1, S non-increasing, S in [0, 1].  Defective laws (positive
mass at +inf, e.g. a hitting law with an upward-drifting boundary, or an
exponential with rate 0) are allowed; calibration simply never kills the
residual fraction.  Checks use negated comparisons, so NaN parameters fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _libm(f, *args):
    """f from libm (math.exp, math.pow), point by point, with numpy's inf
    where it overflows and its NaN where it has no real value.

    np.exp and np.power pick a SIMD kernel at run time whose last bit can
    differ from libm's, and S_target is written to boundary.csv bit for bit.
    """

    def point(*a):
        try:
            return f(*a)
        except OverflowError:
            return math.inf
        except ValueError:
            return math.nan

    return np.asarray(np.frompyfunc(point, len(args), 1)(*args), dtype=float)[()]


class TargetDistribution:
    """Base interface; see the concrete kinds below."""

    def survival(self, t):
        raise NotImplementedError


@dataclass(frozen=True)
class Exponential(TargetDistribution):
    rate: float

    def __post_init__(self):
        # rate 0 is the fully defective law; rate inf would put xi at 0
        if not 0 <= self.rate < math.inf:
            raise ValueError("rate must be >= 0 and finite")

    def survival(self, t):
        return _libm(math.exp, -self.rate * np.asarray(t, dtype=float))


@dataclass(frozen=True)
class Weibull(TargetDistribution):
    shape: float
    scale: float

    def __post_init__(self):
        if not self.shape > 0:
            raise ValueError("shape must be > 0")
        if not self.scale > 0:
            raise ValueError("scale must be > 0")

    def survival(self, t):
        return _libm(math.exp, -_libm(math.pow, np.asarray(t, dtype=float) / self.scale, self.shape))


@dataclass(frozen=True)
class InverseGaussianHitting(TargetDistribution):
    """First time Brownian motion from 0 reaches the line c + gamma * t.

    For gamma > 0 the law is defective with total hitting mass
    exp(-2 gamma c); gamma = 0 is the level-hitting law, LevyHittingLaw(c).
    """

    c: float
    gamma: float

    def __post_init__(self):
        # an infinite c or gamma leaves inf - inf in the survival formula
        if not 0 < self.c < math.inf:
            raise ValueError("c must be > 0 and finite")
        if not abs(self.gamma) < math.inf:
            raise ValueError("gamma must be finite")
        # past this the survival's log weight -2 gamma c is +inf, and inf - inf
        # puts NaN in it; -inf (a large upward drift) is the right limit
        if not -2.0 * self.gamma * self.c < math.inf:
            raise ValueError("-2 * gamma * c must not overflow a double")

    def survival(self, t):
        # scipy.special costs about 0.25 s and 25 MiB at import; only the
        # runs that evaluate a special function load it
        from scipy.special import erfcx, ndtr

        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            rt = np.sqrt(np.maximum(t, 0.0))
            y = (-self.c - self.gamma * t) / rt
            x = (self.gamma * t - self.c) / rt
            # exp(-2 gamma c) overflows for gamma c < -354; for gamma < 0 (so x < 0), erfcx gives
            # exp(x^2 / 2) ndtr(x) with no cancelling huge exponents, as -2 gamma c = (x^2 - y^2) / 2
            if self.gamma < 0:
                second = 0.5 * _libm(math.exp, -0.5 * y * y) * erfcx(-x / math.sqrt(2.0))
            else:
                second = math.exp(-2.0 * self.gamma * self.c) * ndtr(x)
            cdf = ndtr(y) + second
        return np.where(t > 0, 1.0 - cdf, 1.0)


def LevyHittingLaw(c: float) -> InverseGaussianHitting:
    """First time standard Brownian motion from 0 reaches level c > 0: the
    line-hitting law with gamma = 0, CDF 2 Phi(-c / sqrt(t)), heavy-tailed
    with infinite mean."""
    return InverseGaussianHitting(c, 0.0)


@dataclass(frozen=True)
class PointMass(TargetDistribution):
    t0: float

    def __post_init__(self):
        if not self.t0 > 0:
            raise ValueError("t0 must be > 0")

    def survival(self, t):
        return np.where(np.asarray(t, dtype=float) < self.t0, 1.0, 0.0)


@dataclass(frozen=True)
class Mixture(TargetDistribution):
    components: tuple[tuple[float, TargetDistribution], ...]

    def __post_init__(self):
        if not all(w >= 0 for w, _ in self.components):
            raise ValueError("weights must be >= 0")
        total = sum(w for w, _ in self.components)
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"sum of weights is {total!r}, not 1")

    def survival(self, t):
        return sum(w * c.survival(t) for w, c in self.components)


@dataclass(frozen=True, eq=False)
class EmpiricalTarget(TargetDistribution):
    samples: np.ndarray

    def __post_init__(self):
        s = np.sort(np.asarray(self.samples, dtype=float))
        if not s.size:
            raise ValueError("need at least one sample")
        # +inf is never-hit mass; NaN fails the comparison
        if not np.all(s > 0):
            raise ValueError("samples must be > 0")
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)

    def survival(self, t):
        n = len(self.samples)
        return 1.0 - np.searchsorted(self.samples, np.asarray(t, dtype=float), side="right") / n
