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
    """f, a scalar function on libm (math.exp, math.pow, _ndtr), point by
    point, with numpy's inf where it overflows and its NaN where it has no
    real value.

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


# The Cephes ndtr.c that scipy.special.ndtr runs: erf(x) = x T(x^2) / U(x^2) on
# [0, 1], and exp(x^2) erfc(x) = P(x) / Q(x) on [1, 8), R(x) / S(x) from 8 up.
# Coefficients run from the highest degree down; Q, S and U have a leading 1
# that _p1evl supplies.
_SQRTH = 7.07106781186547524401e-1
_MAXLOG = 7.09782712893383996843e2
_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_Q = (
    1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_S = (
    2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_U = (
    3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
_ISPI = 0.56418958354775628694807945156  # 1 / sqrt(pi)

# The Cephes ndtri.c that scipy.special.ndtri runs: for exp(-2) < y <= 1 - exp(-2),
# x = sqrt(2 pi) (c + c c^2 P0(c^2) / Q0(c^2)) with c = y - 1/2; on each tail,
# with r = sqrt(-2 log y) for the nearer end y, x = r - log(r) / r minus
# P1(1/r) / (r Q1(1/r)) below r = 8 (y > exp(-32)) and the same in P2, Q2 above.
_EXPM2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242  # sqrt(2 pi)
_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_Q0 = (
    1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_Q1 = (
    1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_Q2 = (
    6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)


def _polevl(x, coef):
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x, coef):
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erfc_ratio(x):
    """exp(x^2) erfc(x) for x >= 1 as the numerator and denominator of
    Cephes' rational fit."""
    if x < 8.0:
        return _polevl(x, _P), _p1evl(x, _Q)
    return _polevl(x, _R), _p1evl(x, _S)


def _erf(x):
    if x < 0.0:
        return -_erf(-x)
    if x > 1.0:
        return 1.0 - _erfc(x)
    z = x * x
    return x * _polevl(z, _T) / _p1evl(z, _U)


def _erfc(a):
    x = abs(a)
    if x < 1.0:
        return 1.0 - _erf(a)
    z = -a * a
    if z < -_MAXLOG:
        return 2.0 if a < 0 else 0.0
    p, q = _erfc_ratio(x)
    y = math.exp(z) * p / q
    return 2.0 - y if a < 0 else y


def _ndtr(a):
    # NaN fails every comparison and comes out of _erfc as NaN
    x = a * _SQRTH
    z = abs(x)
    if z < _SQRTH:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0 else y


def _erfcx(a):
    """exp(a^2) erfc(a), for a >= 0: above 50 Faddeeva's continued fraction,
    as scipy.special.erfcx, below it Cephes' erfc without the exp."""
    if a > 50.0:
        if a > 5e7:
            return _ISPI / a
        return _ISPI * ((a * a) * (a * a + 4.5) + 2.0) / (a * ((a * a) * (a * a + 5.0) + 3.75))
    if a >= 1.0:
        p, q = _erfc_ratio(a)
        return p / q
    return math.exp(a * a) * (1.0 - _erf(a))


def ndtr(x):
    """Standard normal CDF, bit for bit scipy.special.ndtr."""
    # no warning, as from scipy: -x^2 overflows on the way to an exact 0 or 1
    # for |x| > 1.3e154, and a NaN argument compares unordered
    with np.errstate(over="ignore", invalid="ignore"):
        return _libm(_ndtr, x)


def ndtri(y):
    """Inverse of the standard normal CDF, bit for bit scipy.special.ndtri:
    -inf at 0, inf at 1 and NaN outside [0, 1].

    numpy does the + - * / and the correctly rounded sqrt; each log is libm's,
    taken only on the tails.
    """
    y = np.asarray(y, dtype=float)
    flat = y.ravel()
    out = np.full(flat.shape, math.nan)
    out[flat == 0.0] = -math.inf
    out[flat == 1.0] = math.inf
    upper = flat > 1.0 - _EXPM2
    # the distance to the nearer end, exact above 1 - exp(-2); NaN stays NaN
    near = np.where(upper, 1.0 - flat, flat)
    mid = near > _EXPM2
    c = near[mid] - 0.5
    c2 = c * c
    out[mid] = (c + c * (c2 * _polevl(c2, _P0) / _p1evl(c2, _Q0))) * _S2PI
    tail = (near > 0.0) & (near <= _EXPM2)
    r = np.sqrt(-2.0 * _libm(math.log, near[tail]))
    z = 1.0 / r
    fit = np.where(r < 8.0, z * _polevl(z, _P1) / _p1evl(z, _Q1), z * _polevl(z, _P2) / _p1evl(z, _Q2))
    x = r - _libm(math.log, r) / r - fit
    out[tail] = np.where(upper[tail], x, -x)
    return out.reshape(y.shape)[()]


def erfcx(x):
    """exp(x^2) erfc(x) for x >= 0, within 4e-15 of scipy.special.erfcx."""
    with np.errstate(invalid="ignore"):
        return _libm(_erfcx, x)


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
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            rt = np.sqrt(np.maximum(t, 0.0))
            y = (-self.c - self.gamma * t) / rt
            x = (self.gamma * t - self.c) / rt
            # exp(-2 gamma c) overflows for gamma c < -354; for gamma < 0 (so x < 0), erfcx gives
            # exp(x^2 / 2) ndtr(x) with no cancelling huge exponents, as -2 gamma c = (x^2 - y^2) / 2
            first = ndtr(y)
            if self.gamma < 0:
                second = 0.5 * _libm(math.exp, -0.5 * y * y) * erfcx(-x / math.sqrt(2.0))
            elif self.gamma > 0:
                second = math.exp(-2.0 * self.gamma * self.c) * ndtr(x)
            else:
                second = first  # x is y and exp(-2 gamma c) is 1
            cdf = first + second
        # at t = inf, x and y are inf / inf; the limit is the never-hit mass
        never_hit = 1.0 - math.exp(-2.0 * self.gamma * self.c) if self.gamma > 0 else 0.0
        return np.where(t > 0, np.where(t < math.inf, 1.0 - cdf, never_hit), 1.0)


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
