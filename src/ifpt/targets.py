"""Target distributions for the inverse problem: laws of xi > 0.

Each kind exposes exact survival evaluation, the sup-support time and its
atoms as a (times, masses) pair of arrays.  Defective laws (positive mass
at +inf, e.g. a hitting law with an upward-drifting boundary) are allowed;
calibration simply never kills the residual fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr


class TargetDistribution:
    """Base interface; see the concrete kinds below."""

    t_sup: float = math.inf

    def survival(self, t):
        raise NotImplementedError

    def survival_left(self, t):
        """P(xi >= t); differs from survival only at atoms."""
        return self.survival(t)

    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        """(times, masses) of the atoms, times sorted and distinct."""
        return np.empty(0), np.empty(0)

    def validate(self) -> list[str]:
        """Problems that keep this from being the law of some xi > 0; empty when valid."""
        problems = []
        ts, ms = self.atoms()
        # a bad parameter (weibull shape < 0) makes the probes divide by zero
        with np.errstate(all="ignore"):
            s0 = float(np.asarray(self.survival(0.0)))
            horizon = self.t_sup if math.isfinite(self.t_sup) else 50.0
            probe = np.linspace(0.0, horizon * 1.1 + 1e-9, 257)
            sv = np.asarray(self.survival(probe), dtype=float)
            # one vectorized pass: an empirical target has an atom per distinct sample
            jumps = np.asarray(self.survival_left(ts) - self.survival(ts), dtype=float)
        # negated comparisons, so that NaN survival values are problems too
        if not abs(s0 - 1.0) <= 1e-12:
            problems.append(f"survival at 0 is {s0!r}, xi > 0 requires 1")
        if np.any(np.diff(sv) > 1e-12):
            k = int(np.argmax(np.diff(sv)))
            problems.append(f"survival increases near t={probe[k + 1]!r}")
        if not np.all((sv >= -1e-12) & (sv <= 1 + 1e-12)):
            problems.append("survival leaves [0, 1]")
        for i in np.flatnonzero((ts <= 0) | (np.abs(jumps - ms) > 1e-12)):
            t, m, jump = float(ts[i]), float(ms[i]), float(jumps[i])
            if t <= 0:
                problems.append(f"atom at t={t!r} violates xi > 0 required")
            else:
                problems.append(f"atom at t={t!r} has mass {m!r} but jump {jump!r}")
        if isinstance(self, Mixture):
            total = sum(w for w, _ in self.components)
            if abs(total - 1.0) > 1e-12:
                problems.append(f"weights sum {total!r}")
            for _, comp in self.components:
                problems.extend(comp.validate())
        if isinstance(self, EmpiricalTarget) and self.samples[0] <= 0:
            problems.append("xi > 0 required: empirical sample <= 0")
        if isinstance(self, PointMass) and self.t0 <= 0:
            problems.append("xi > 0 required: point mass at t <= 0")
        return problems


@dataclass(frozen=True)
class Exponential(TargetDistribution):
    rate: float

    def survival(self, t):
        return np.exp(-self.rate * np.asarray(t, dtype=float))


@dataclass(frozen=True)
class Weibull(TargetDistribution):
    shape: float
    scale: float

    def survival(self, t):
        t = np.asarray(t, dtype=float)
        return np.exp(-((t / self.scale) ** self.shape))


@dataclass(frozen=True)
class LevyHittingLaw(TargetDistribution):
    """First time standard Brownian motion from 0 reaches level c > 0.

    CDF 2 Phi(-c / sqrt(t)); heavy-tailed with infinite mean.
    """

    c: float

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError("c must be > 0")

    def survival(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            s = 1.0 - 2.0 * ndtr(-self.c / np.sqrt(np.maximum(t, 0.0)))
        return np.where(t > 0, s, 1.0)


@dataclass(frozen=True)
class InverseGaussianHitting(TargetDistribution):
    """First time Brownian motion from 0 reaches the line c + gamma * t.

    For gamma > 0 the law is defective with total hitting mass
    exp(-2 gamma c); gamma = 0 reduces to the level-hitting law.
    """

    c: float
    gamma: float

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError("c must be > 0")

    def survival(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            rt = np.sqrt(np.maximum(t, 0.0))
            cdf = ndtr((-self.c - self.gamma * t) / rt) + np.exp(
                -2.0 * self.gamma * self.c
            ) * ndtr((self.gamma * t - self.c) / rt)
        return np.where(t > 0, 1.0 - cdf, 1.0)


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
        return np.array([self.t0], dtype=float), np.array([1.0])


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
        ts, ms = zip(*(c.atoms() for _, c in self.components))
        times, inverse = np.unique(np.concatenate(ts), return_inverse=True)
        # bincount adds the masses that share a time in component order;
        # over no atoms at all it returns an integer array, hence astype
        masses = np.concatenate([w * m for (w, _), m in zip(self.components, ms)])
        return times, np.bincount(inverse, weights=masses, minlength=len(times)).astype(float)


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
        return vals, counts / len(self.samples)
