"""Target distributions for the inverse problem: laws of xi > 0.

Each kind exposes exact survival evaluation, the sup-support time, its
atom list, and a deterministic sampler.  Defective laws (positive mass at
+inf, e.g. a hitting law with an upward-drifting boundary) are allowed;
their samplers return +inf for the never-hit mass and calibration simply
never kills the residual fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .rng import SAMPLE_LABEL, derive_seed, generator


def norm_cdf(x):
    """Standard normal CDF, the single shared special-function dependency."""
    return ndtr(x)


class TargetDistribution:
    """Base interface; see the concrete kinds below."""

    t_sup: float = math.inf

    def survival(self, t):
        raise NotImplementedError

    def survival_left(self, t):
        """P(xi >= t); differs from survival only at atoms."""
        return self.survival(t)

    def atoms(self) -> tuple[tuple[float, float], ...]:
        return ()

    def sample(self, n: int, seed: int) -> np.ndarray:
        raise NotImplementedError

    def validate(self) -> list[str]:
        return _validate(self)


@dataclass(frozen=True)
class Exponential(TargetDistribution):
    rate: float

    def survival(self, t):
        return np.exp(-self.rate * np.asarray(t, dtype=float))

    def sample(self, n, seed):
        u = generator(seed, SAMPLE_LABEL).random(n)
        return -np.log1p(-u) / self.rate


@dataclass(frozen=True)
class Weibull(TargetDistribution):
    shape: float
    scale: float

    def survival(self, t):
        t = np.asarray(t, dtype=float)
        return np.exp(-((t / self.scale) ** self.shape))

    def sample(self, n, seed):
        u = generator(seed, SAMPLE_LABEL).random(n)
        return self.scale * (-np.log1p(-u)) ** (1.0 / self.shape)


@dataclass(frozen=True)
class LevyHittingLaw(TargetDistribution):
    """First time standard Brownian motion from 0 reaches level c > 0.

    CDF 2 Phi(-c / sqrt(t)); heavy-tailed with infinite mean.
    """

    c: float

    def survival(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            s = 1.0 - 2.0 * norm_cdf(-self.c / np.sqrt(np.maximum(t, 0.0)))
        return np.where(t > 0, s, 1.0)

    def sample(self, n, seed):
        z = generator(seed, SAMPLE_LABEL).standard_normal(n)
        return (self.c / z) ** 2


@dataclass(frozen=True)
class InverseGaussianHitting(TargetDistribution):
    """First time Brownian motion from 0 reaches the line c + gamma * t.

    For gamma > 0 the law is defective with total hitting mass
    exp(-2 gamma c); gamma = 0 reduces to the level-hitting law.
    """

    c: float
    gamma: float

    def survival(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            rt = np.sqrt(np.maximum(t, 0.0))
            cdf = norm_cdf((-self.c - self.gamma * t) / rt) + np.exp(
                -2.0 * self.gamma * self.c
            ) * norm_cdf((self.gamma * t - self.c) / rt)
        return np.where(t > 0, 1.0 - cdf, 1.0)

    def hit_probability(self) -> float:
        return math.exp(-2.0 * self.gamma * self.c) if self.gamma > 0 else 1.0

    def sample(self, n, seed):
        if self.gamma == 0.0:
            return LevyHittingLaw(self.c).sample(n, seed)
        rng = generator(seed, SAMPLE_LABEL)
        # conditioned on hitting, the time is inverse Gaussian with
        # mean c/|gamma| and shape c^2 (Michael-Schucany-Haas sampler)
        mu = self.c / abs(self.gamma)
        lam = self.c**2
        z = rng.standard_normal(n)
        v = z**2
        x = mu + (mu**2 * v) / (2 * lam) - (mu / (2 * lam)) * np.sqrt(
            4 * mu * lam * v + mu**2 * v**2
        )
        flip = rng.random(n) > mu / (mu + x)
        out = np.where(flip, mu**2 / np.maximum(x, 1e-300), x)
        if self.gamma > 0:
            censored = rng.random(n) >= self.hit_probability()
            out = np.where(censored, np.inf, out)
        return out


@dataclass(frozen=True)
class PointMass(TargetDistribution):
    t0: float

    @property
    def t_sup(self):
        return self.t0

    def survival(self, t):
        return np.where(np.asarray(t, dtype=float) < self.t0, 1.0, 0.0)

    def survival_left(self, t):
        return np.where(np.asarray(t, dtype=float) <= self.t0, 1.0, 0.0)

    def atoms(self):
        return ((self.t0, 1.0),)

    def sample(self, n, seed):
        return np.full(n, float(self.t0))


@dataclass(frozen=True)
class Mixture(TargetDistribution):
    components: tuple[tuple[float, TargetDistribution], ...]

    @property
    def t_sup(self):
        return max(c.t_sup for _, c in self.components)

    def survival(self, t):
        return sum(w * c.survival(t) for w, c in self.components)

    def survival_left(self, t):
        return sum(w * c.survival_left(t) for w, c in self.components)

    def atoms(self):
        merged: dict[float, float] = {}
        for w, c in self.components:
            for t, m in c.atoms():
                merged[t] = merged.get(t, 0.0) + w * m
        return tuple(sorted(merged.items()))

    def sample(self, n, seed):
        rng = generator(seed, SAMPLE_LABEL)
        weights = np.array([w for w, _ in self.components])
        pick = rng.choice(len(weights), size=n, p=weights / weights.sum())
        out = np.empty(n)
        for i, (_, comp) in enumerate(self.components):
            idx = np.flatnonzero(pick == i)
            if len(idx):
                out[idx] = comp.sample(len(idx), derive_seed(seed, 0x5B, i))
        return out


@dataclass(frozen=True, eq=False)
class EmpiricalTarget(TargetDistribution):
    samples: np.ndarray

    def __post_init__(self):
        s = np.sort(np.asarray(self.samples, dtype=float))
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)

    @property
    def t_sup(self):
        return float(self.samples[-1])

    def survival(self, t):
        n = len(self.samples)
        return 1.0 - np.searchsorted(self.samples, np.asarray(t, dtype=float), side="right") / n

    def survival_left(self, t):
        n = len(self.samples)
        return 1.0 - np.searchsorted(self.samples, np.asarray(t, dtype=float), side="left") / n

    def atoms(self):
        vals, counts = np.unique(self.samples, return_counts=True)
        n = len(self.samples)
        return tuple((float(v), c / n) for v, c in zip(vals, counts))

    def sample(self, n, seed):
        rng = generator(seed, SAMPLE_LABEL)
        return self.samples[rng.integers(0, len(self.samples), size=n)]


def survival(target: TargetDistribution, t):
    """P(xi > t); exact for analytic kinds."""
    return target.survival(t)


def sup_support_time(target: TargetDistribution) -> float:
    """sup of the support of xi; +inf for the unbounded built-ins."""
    return target.t_sup


def sample(target: TargetDistribution, n: int, seed: int) -> np.ndarray:
    """n deterministic draws; +inf encodes the defective (never) mass."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return target.sample(n, seed)


def _validate(target: TargetDistribution) -> list[str]:
    problems = []
    s0 = float(np.asarray(target.survival(0.0)))
    if abs(s0 - 1.0) > 1e-12:
        problems.append(f"survival at 0 is {s0!r}, xi > 0 requires 1")
    horizon = target.t_sup if math.isfinite(target.t_sup) else 50.0
    probe = np.linspace(0.0, horizon * 1.1 + 1e-9, 257)
    sv = np.asarray(target.survival(probe), dtype=float)
    if np.any(np.diff(sv) > 1e-12):
        k = int(np.argmax(np.diff(sv)))
        problems.append(f"survival increases near t={probe[k + 1]!r}")
    if np.any(sv < -1e-12) or np.any(sv > 1 + 1e-12):
        problems.append("survival leaves [0, 1]")
    for t, m in target.atoms():
        if t <= 0:
            problems.append(f"atom at t={t!r} violates xi > 0 required")
            continue
        jump = float(np.asarray(target.survival_left(t) - target.survival(t)))
        if abs(jump - m) > 1e-12:
            problems.append(f"atom at t={t!r} has mass {m!r} but jump {jump!r}")
    if isinstance(target, Mixture):
        total = sum(w for w, _ in target.components)
        if abs(total - 1.0) > 1e-12:
            problems.append(f"weights sum {total!r}")
        for _, comp in target.components:
            problems.extend(comp.validate())
    if isinstance(target, EmpiricalTarget) and target.samples[0] <= 0:
        problems.append("xi > 0 required: empirical sample <= 0")
    if isinstance(target, PointMass) and target.t0 <= 0:
        problems.append("xi > 0 required: point mass at t <= 0")
    return problems


def validate(target: TargetDistribution) -> list[str]:
    """Empty list when the target is a valid law of some xi > 0."""
    return _validate(target)
