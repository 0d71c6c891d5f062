import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import erfcx, ndtr, ndtri

from ifpt import targets
from ifpt.targets import (
    EmpiricalTarget,
    Exponential,
    InverseGaussianHitting,
    LevyHittingLaw,
    Mixture,
    PointMass,
    Weibull,
)


def phi_oracle(x):
    """Independent normal CDF for cross-checks (libm erfc, not scipy)."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


# a probe grid from 0 across many scales, and every kind with parameters
# drawn inside its accepted range; mixtures nest drawn components
PROBE = np.concatenate(([0.0], np.geomspace(1e-6, 1e6, 600)))
POSITIVE = st.floats(1e-6, 1e6)
LEAF_TARGETS = st.one_of(
    st.builds(Exponential, st.floats(0.0, 1e6)),
    st.builds(Weibull, POSITIVE, POSITIVE),
    st.builds(LevyHittingLaw, POSITIVE),
    st.builds(InverseGaussianHitting, POSITIVE, st.floats(-1e6, 1e6)),
    st.builds(PointMass, POSITIVE),
    st.lists(POSITIVE | st.just(math.inf), min_size=1, max_size=20).map(lambda xs: EmpiricalTarget(np.array(xs))),
)


def normalized_mixture(pairs):
    total = sum(w for w, _ in pairs)
    return Mixture(tuple((w / total, c) for w, c in pairs))


TARGETS = st.recursive(
    LEAF_TARGETS,
    lambda children: st.lists(st.tuples(st.floats(0.0, 1.0), children), min_size=1, max_size=4)
    .filter(lambda pairs: sum(w for w, _ in pairs) > 0)
    .map(normalized_mixture),
    max_leaves=8,
)

# any parameter at all, valid or not: (constructor, arguments)
ANY = st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])


@st.composite
def any_mixture(draw):
    """Weights of any sign; half the time the last one brings the sum to 1,
    so that only the sign check can reject them."""
    weights = draw(st.lists(ANY, max_size=3))
    if draw(st.booleans()):
        weights.append(1.0 - sum(weights))
    return Mixture, (tuple((w, draw(LEAF_TARGETS)) for w in weights),)


ANY_PARAMETERS = st.one_of(
    st.tuples(st.just(Exponential), st.tuples(ANY)),
    st.tuples(st.just(Weibull), st.tuples(ANY, ANY)),
    st.tuples(st.just(LevyHittingLaw), st.tuples(ANY)),
    st.tuples(st.just(InverseGaussianHitting), st.tuples(ANY, ANY)),
    st.tuples(st.just(PointMass), st.tuples(ANY)),
    st.tuples(st.just(EmpiricalTarget), st.lists(ANY, max_size=5).map(lambda xs: (np.array(xs),))),
    any_mixture(),
)


def assert_is_law(target):
    """S(0) = 1, S non-increasing and in [0, 1] on PROBE: the law of some xi > 0."""
    # overflow to inf is the right limit in these formulas; the CLI ignores it too
    with np.errstate(over="ignore"):
        s = np.asarray(target.survival(PROBE), dtype=float)
        s0 = float(np.asarray(target.survival(0.0)))
    assert abs(s0 - 1.0) <= 1e-12
    assert np.all(np.diff(s) <= 1e-12)
    assert np.all((s >= -1e-12) & (s <= 1 + 1e-12))


class TestSurvival:
    def test_exponential_at_zero(self):
        assert Exponential(1.0).survival(0.0) == 1.0

    @pytest.mark.parametrize("t", [0.1, 0.7, 2.0, 5.5])
    def test_exponential_and_weibull_closed_forms(self, t):
        assert float(Exponential(0.3).survival(t)) == pytest.approx(math.exp(-0.3 * t), rel=1e-14)
        assert float(Weibull(1.7, 2.0).survival(t)) == pytest.approx(math.exp(-((t / 2.0) ** 1.7)), rel=1e-14)

    def test_exp_is_libm_on_every_cpu(self):
        # np.exp's SIMD kernels differ from libm in the last bit on some
        # inputs, and S_target is written to boundary.csv bit for bit
        ts = np.linspace(1e-3, 20.0, 20_000)
        assert Exponential(0.3).survival(ts).tolist() == [math.exp(v) for v in (-0.3 * ts).tolist()]
        # the Weibull power is libm's too: np.power's kernels differ as well
        arg = [-math.pow(v, 1.7) for v in (ts / 1.5).tolist()]
        assert Weibull(1.7, 1.5).survival(ts).tolist() == [math.exp(v) for v in arg]
        # where math.exp raises, np.exp's inf
        with np.errstate(over="ignore"):
            assert Exponential(1.0).survival(-1000.0) == math.inf

    def test_levy_hitting_value(self):
        # closed form 2 Phi(-c/sqrt(t)) checked against an independent CDF
        want = 1.0 - 2.0 * phi_oracle(-1.0)
        assert LevyHittingLaw(1.0).survival(1.0) == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(0.682689, abs=1e-6)

    def test_point_mass(self):
        assert PointMass(1.0).survival(0.999) == 1.0
        assert PointMass(1.0).survival(1.0) == 0.0

    def test_ig_reduces_to_levy_at_gamma_zero(self):
        # exactly 1 - 2 ndtr(-c / sqrt(t)), the level-hitting closed form
        ts = np.linspace(0.01, 5, 50)
        for c in (0.3, 1.0, 2.5, 7.0):
            law = LevyHittingLaw(c)
            assert law == InverseGaussianHitting(c, 0.0)
            assert np.array_equal(law.survival(ts), 1.0 - 2.0 * ndtr(-c / np.sqrt(ts)))

    @pytest.mark.parametrize("c", [1e-3, 0.3, 1.0, 2.5, 7.0, 1e3])
    def test_level_hitting_is_the_two_term_formula_bit_for_bit(self, c):
        # at gamma = 0 the survival evaluates ndtr once and doubles it: x and
        # y are one array and exp(-2 gamma c) is 1, so the sum of both terms
        # holds bit for bit, for t across 16 decades
        ts = np.geomspace(1e-8, 1e8, 2001)
        rt = np.sqrt(ts)
        y = (-c - 0.0 * ts) / rt
        x = (0.0 * ts - c) / rt
        two_terms = targets.ndtr(y) + math.exp(-2.0 * 0.0 * c) * targets.ndtr(x)
        assert_bits_equal(LevyHittingLaw(c).survival(ts), 1.0 - two_terms)

    @pytest.mark.parametrize("gamma", [0.5, 0.0, -0.5])
    def test_ig_at_infinity_is_the_never_hit_mass(self, gamma):
        # inf / inf in the formula used to give NaN for every gamma
        law = InverseGaussianHitting(1.0, gamma)
        want = max(0.0, 1.0 - math.exp(-2.0 * gamma))
        assert float(law.survival(math.inf)) == want
        assert law.survival(np.array([0.0, 1e300, math.inf])).tolist() == [1.0, want, want]

    def test_defective_ig_floor(self):
        # upward drifting boundary: survival never drops below 1 - e^{-2 gamma c}
        t = InverseGaussianHitting(1.0, 0.5)
        floor = 1.0 - math.exp(-1.0)
        assert float(t.survival(1e9)) == pytest.approx(floor, abs=1e-9)

    def test_ig_matches_validated_crossing_law(self):
        # the log-space survival equals the reflection formula for the
        # linear-boundary crossing law where its weight does not overflow
        for gamma in (-0.5, 0.0, 0.5):
            t = InverseGaussianHitting(1.0, gamma)
            for s in (0.1, 0.7, 2.0, 10.0):
                rt = math.sqrt(s)
                cdf = ndtr((-1.0 - gamma * s) / rt) + math.exp(-2.0 * gamma) * ndtr((gamma * s - 1.0) / rt)
                assert 1.0 - float(t.survival(s)) == pytest.approx(cdf, abs=1e-14)

    @given(TARGETS)
    def test_non_increasing_for_every_kind(self, target):
        assert_is_law(target)

    @settings(max_examples=1000)
    @given(ANY_PARAMETERS)
    def test_every_target_that_builds_is_a_law(self, kind_args):
        # the constructors are the only check a target gets before the run
        make, args = kind_args
        try:
            target = make(*args)
        except ValueError:
            return
        assert_is_law(target)

    @settings(max_examples=500)
    @given(k=st.integers(-300, 300), j=st.integers(-300, 300), sign=st.sampled_from([1.0, -1.0]))
    def test_inverse_gaussian_at_any_scale_is_rejected_or_a_law(self, k, j, sign):
        # -2 gamma c overflowing a double used to build and give a NaN survival
        try:
            target = InverseGaussianHitting(10.0**k, sign * 10.0**j)
        except ValueError:
            return
        assert_is_law(target)

    @pytest.mark.parametrize(
        "c, gamma",
        [
            (1e100, -1e100), (1.0, -1e200), (1e200, -1.0), (1e200, 1e200),
            # c / -gamma is a probe time, where the log-space weight lost all
            # its digits to cancellation and the survival fell to -inf
            (1e12, -1e6), (1e109, -1e115),
        ],
    )
    def test_inverse_gaussian_extremes_that_are_laws_build(self, c, gamma):
        assert_is_law(InverseGaussianHitting(c, gamma))

    def test_mixture_is_weighted_sum(self):
        comps = ((0.3, Exponential(2.0)), (0.7, Weibull(1.3, 1.0)))
        mix = Mixture(comps)
        ts = np.linspace(0, 5, 64)
        direct = 0.3 * comps[0][1].survival(ts) + 0.7 * comps[1][1].survival(ts)
        assert np.allclose(mix.survival(ts), direct, atol=1e-15)


# BENCH1's arguments -c / sqrt(t_k), every branch of Cephes' ndtr on both
# sides of 0 (it switches at |a| = 1, 1.41 and 11.3, and erfc underflows past
# 37.7) and a geometric sweep down to the smallest normal double
NDTR_POINTS = np.concatenate(
    (
        -1.0 / np.sqrt(np.arange(1, 1025) / 512),
        np.linspace(-40.0, 40.0, 298_977),
        np.geomspace(2.2e-308, 40.0, 100_000),
        -np.geomspace(2.2e-308, 40.0, 100_000),
    )
)

# inverse normal CDF: uniform draws, log-uniform ones down to e^-700, values near
# 1, a dyadic grid, and both branch switches with their neighbours: the central
# fit ends at y = exp(-2) and 1 - exp(-2), and the tail fits switch at
# sqrt(-2 log y) = 8, y = exp(-32); keyed uniforms reach 2^-53 and 1 - 2^-53
NDTRI_EDGES = [math.exp(-2.0), 1.0 - math.exp(-2.0), math.exp(-32.0), 1.0 - math.exp(-32.0), 2.0**-53, 1.0 - 2.0**-53]
NDTRI_POINTS = np.concatenate(
    (
        np.random.default_rng(20260809).random(200_000),
        np.exp(-np.linspace(0.0, 700.0, 100_000)),
        1.0 - np.geomspace(2.0**-53, 0.2, 30_000),
        np.arange(1, 2**15) / 2**15,
        np.geomspace(math.exp(-32.0) / 1.01, math.exp(-32.0) * 1.01, 2_001),
        [np.nextafter(y, d) for y in NDTRI_EDGES for d in (0.0, 1.0)],
        NDTRI_EDGES,
        [0.5, 5e-324],
    )
)


def assert_bits_equal(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


class TestSpecialFunctions:
    """The in-house normal CDF, its inverse and scaled erfc, held to scipy.special."""

    def test_ndtr_is_scipy_bit_for_bit(self):
        assert NDTR_POINTS.size == 500_001
        assert_bits_equal(targets.ndtr(NDTR_POINTS), ndtr(NDTR_POINTS))

    @settings(max_examples=300)
    @given(st.lists(st.floats(allow_subnormal=True) | st.sampled_from([0.0, -0.0, math.inf, -math.inf, 5e-324]),
                    min_size=1, max_size=64))
    def test_ndtr_at_any_double(self, xs):
        # NaN in, NaN out, and no warning where scipy gives none
        assert_bits_equal(targets.ndtr(np.array(xs)), ndtr(np.array(xs)))

    def test_ndtri_is_scipy_bit_for_bit(self):
        # both tail fits run: some points lie on each side of sqrt(-2 log y) = 8
        r = np.sqrt(-2.0 * np.log(NDTRI_POINTS[NDTRI_POINTS <= math.exp(-2.0)]))
        assert np.any(r < 8.0) and np.any(r >= 8.0)
        assert_bits_equal(targets.ndtri(NDTRI_POINTS), ndtri(NDTRI_POINTS))

    @settings(max_examples=300)
    @given(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True, allow_subnormal=True),
                    min_size=1, max_size=64))
    def test_ndtri_in_the_open_unit_interval(self, ys):
        assert_bits_equal(targets.ndtri(np.array(ys)), ndtri(np.array(ys)))

    def test_ndtri_at_the_edges(self):
        # no warning: NaN and values outside [0, 1] give NaN quietly, as from scipy
        ys = np.array([0.0, -0.0, 1.0, math.nan, -5e-324, -1.0, np.nextafter(1.0, 2.0), 2.0, math.inf, -math.inf])
        want = [-math.inf, -math.inf, math.inf] + [math.nan] * 7
        assert_bits_equal(targets.ndtri(ys), want)
        assert_bits_equal(targets.ndtri(ys), ndtri(ys))
        assert targets.ndtri(0.5) == 0.0 and np.ndim(targets.ndtri(0.5)) == 0

    @settings(max_examples=300)
    @given(st.lists(st.floats(0.0, 50.0), min_size=1, max_size=64))
    def test_erfcx_close_to_scipy_up_to_50(self, xs):
        xs = np.array(xs)
        assert np.all(np.abs(targets.erfcx(xs) - erfcx(xs)) <= 4e-15 * erfcx(xs))

    def test_erfcx_close_to_scipy_on_a_sweep(self):
        xs = np.concatenate(([0.0, 1.0, 8.0, 50.0], np.linspace(0.0, 50.0, 20_001), np.geomspace(1e-300, 50.0, 20_000)))
        assert np.all(np.abs(targets.erfcx(xs) - erfcx(xs)) <= 4e-15 * erfcx(xs))

    @settings(max_examples=300)
    @given(st.lists(st.floats(50.0, 1e300, exclude_min=True) | st.sampled_from([5e7, math.nextafter(5e7, 1e8)]),
                    min_size=1, max_size=64))
    def test_erfcx_is_scipy_bit_for_bit_above_50(self, xs):
        # Faddeeva's continued fraction, the one scipy evaluates there
        assert_bits_equal(targets.erfcx(np.array(xs)), erfcx(np.array(xs)))
