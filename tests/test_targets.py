import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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

    def test_levy_hitting_value(self):
        # closed form 2 Phi(-c/sqrt(t)) checked against an independent CDF
        want = 1.0 - 2.0 * phi_oracle(-1.0)
        assert LevyHittingLaw(1.0).survival(1.0) == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(0.682689, abs=1e-6)

    def test_point_mass(self):
        assert PointMass(1.0).survival(0.999) == 1.0
        assert PointMass(1.0).survival(1.0) == 0.0

    def test_ig_reduces_to_levy_at_gamma_zero(self):
        ts = np.linspace(0.01, 5, 50)
        a = InverseGaussianHitting(1.0, 0.0).survival(ts)
        b = LevyHittingLaw(1.0).survival(ts)
        assert np.allclose(a, b, atol=1e-14)

    def test_defective_ig_floor(self):
        # upward drifting boundary: survival never drops below 1 - e^{-2 gamma c}
        t = InverseGaussianHitting(1.0, 0.5)
        floor = 1.0 - math.exp(-1.0)
        assert float(t.survival(1e9)) == pytest.approx(floor, abs=1e-9)

    def test_ig_matches_validated_crossing_law(self):
        # the target's CDF is the linear-boundary crossing law that the
        # brute-force path oracle validates
        from ifpt.verify import analytic_bm_linear_cdf

        for gamma in (-0.5, 0.0, 0.5):
            t = InverseGaussianHitting(1.0, gamma)
            for s in (0.1, 0.7, 2.0, 10.0):
                assert 1.0 - float(t.survival(s)) == pytest.approx(
                    analytic_bm_linear_cdf(1.0, gamma, s), abs=1e-14
                )

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

    def test_mixture_is_weighted_sum(self):
        comps = ((0.3, Exponential(2.0)), (0.7, Weibull(1.3, 1.0)))
        mix = Mixture(comps)
        ts = np.linspace(0, 5, 64)
        direct = 0.3 * comps[0][1].survival(ts) + 0.7 * comps[1][1].survival(ts)
        assert np.allclose(mix.survival(ts), direct, atol=1e-15)
