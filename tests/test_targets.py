import math

import numpy as np
import pytest

from ifpt.targets import (
    EmpiricalTarget,
    Exponential,
    InverseGaussianHitting,
    LevyHittingLaw,
    Mixture,
    PointMass,
    Weibull,
    sample,
    sup_support_time,
    survival,
    validate,
)


def phi_oracle(x):
    """Independent normal CDF for cross-checks (libm erfc, not scipy)."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


ANALYTIC_KINDS = [
    Exponential(1.0),
    Exponential(0.3),
    Weibull(1.7, 2.0),
    LevyHittingLaw(1.0),
    InverseGaussianHitting(1.0, -0.5),
    InverseGaussianHitting(1.0, 0.5),
]


class TestSurvival:
    def test_exponential_at_zero(self):
        assert survival(Exponential(1.0), 0.0) == 1.0

    def test_levy_hitting_value(self):
        # closed form 2 Phi(-c/sqrt(t)) checked against an independent CDF
        want = 1.0 - 2.0 * phi_oracle(-1.0)
        assert survival(LevyHittingLaw(1.0), 1.0) == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(0.682689, abs=1e-6)

    def test_point_mass(self):
        assert survival(PointMass(1.0), 0.999) == 1.0
        assert survival(PointMass(1.0), 1.0) == 0.0

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

    def test_non_increasing_for_every_kind(self):
        probe = np.linspace(0.0, 20.0, 400)
        kinds = ANALYTIC_KINDS + [
            PointMass(1.5),
            Mixture(((0.5, Exponential(1.0)), (0.5, PointMass(0.5)))),
            EmpiricalTarget(np.array([0.2, 0.7, 0.7, 3.0])),
        ]
        for target in kinds:
            s = np.asarray(target.survival(probe))
            assert np.all(np.diff(s) <= 1e-15), target
            assert float(np.asarray(target.survival(0.0))) == 1.0

    def test_mixture_is_weighted_sum(self):
        comps = ((0.3, Exponential(2.0)), (0.7, Weibull(1.3, 1.0)))
        mix = Mixture(comps)
        ts = np.linspace(0, 5, 64)
        direct = 0.3 * comps[0][1].survival(ts) + 0.7 * comps[1][1].survival(ts)
        assert np.allclose(mix.survival(ts), direct, atol=1e-15)

    def test_mixture_component_streams_do_not_overlap_across_seeds(self):
        # components of one law, so an equal value means a shared stream
        comp = Exponential(1.0)
        mix = Mixture(((0.5, comp), (0.5, comp)))
        for s in (0, 1, 12345, 2**63 + 7):
            drawn = mix.sample(2000, s)
            # seeding component i with s ^ (0x5B << i) handed component 1 the
            # stream of seed s ^ (0x5B << 1), and component 0 of seed s ^ 0xED
            for other in (comp.sample(2000, s ^ (0x5B << 1)), mix.sample(2000, s ^ 0xED)):
                assert not np.intersect1d(drawn, other).size


class TestSupSupportTime:
    def test_unbounded_kinds(self):
        assert sup_support_time(Exponential(1.0)) == math.inf
        assert sup_support_time(Weibull(2.0, 1.0)) == math.inf
        assert sup_support_time(LevyHittingLaw(1.0)) == math.inf

    def test_point_mass(self):
        assert sup_support_time(PointMass(2.5)) == 2.5

    def test_mixture_takes_sup(self):
        mix = Mixture(((0.5, Exponential(1.0)), (0.5, PointMass(0.5))))
        assert sup_support_time(mix) == math.inf
        mix2 = Mixture(((0.5, PointMass(1.0)), (0.5, PointMass(0.5))))
        assert sup_support_time(mix2) == 1.0

    def test_empirical(self):
        assert sup_support_time(EmpiricalTarget(np.array([0.5, 2.0, 1.0]))) == 2.0


class TestSample:
    def test_point_mass(self):
        assert list(sample(PointMass(1.0), 3, 0)) == [1.0, 1.0, 1.0]

    def test_deterministic_given_seed(self):
        a = sample(Exponential(1.0), 1000, 42)
        b = sample(Exponential(1.0), 1000, 42)
        c = sample(Exponential(1.0), 1000, 43)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_exponential_mean_clt(self):
        x = sample(Exponential(1.0), 10**6, 7)
        assert abs(float(x.mean()) - 1.0) < 0.005

    def test_levy_hitting_tail_probability(self):
        x = sample(LevyHittingLaw(1.0), 10**6, 8)
        p = float((x <= 1.0).mean())
        assert abs(p - 0.3173105) < 0.0015

    def test_defective_ig_censor_rate(self):
        t = InverseGaussianHitting(1.0, 0.5)
        x = sample(t, 200_000, 9)
        frac = float(np.isinf(x).mean())
        assert abs(frac - (1.0 - math.exp(-1.0))) < 0.005

    def test_one_sample_ks_against_analytic_cdf(self):
        # DKW 99% bound 1.63/sqrt(n) for each analytic kind
        n = 10**5
        for k, target in enumerate(ANALYTIC_KINDS):
            x = np.sort(sample(target, n, 100 + k))
            finite = x[np.isfinite(x)]
            emp = np.arange(1, len(finite) + 1) / n
            cdf = 1.0 - np.asarray(target.survival(finite))
            ks = float(np.max(np.abs(emp - cdf)))
            assert ks <= 1.63 / math.sqrt(n), (target, ks)

    def test_rejects_n_zero(self):
        with pytest.raises(ValueError):
            sample(Exponential(1.0), 0, 1)


class TestAtoms:
    def test_point_mass_atom(self):
        assert PointMass(1.0).atoms() == ((1.0, 1.0),)

    def test_mixture_scales_atoms(self):
        mix = Mixture(((0.5, Exponential(1.0)), (0.5, PointMass(0.5))))
        assert mix.atoms() == ((0.5, 0.5),)

    def test_empirical_atoms_with_ties(self):
        t = EmpiricalTarget(np.array([1.0, 1.0, 2.0, 4.0]))
        assert t.atoms() == ((1.0, 0.5), (2.0, 0.25), (4.0, 0.25))


class TestValidate:
    def test_ok(self):
        assert validate(Exponential(1.0)) == []
        assert validate(Mixture(((0.5, Exponential(1.0)), (0.5, PointMass(0.5))))) == []

    def test_bad_mixture_weights(self):
        bad = Mixture(((0.6, Exponential(1.0)), (0.6, Exponential(2.0))))
        assert any("weights sum 1.2" in p for p in validate(bad))

    def test_negative_empirical_sample(self):
        bad = EmpiricalTarget(np.array([-1.0, 0.5]))
        assert any("xi > 0 required" in p for p in validate(bad))

    def test_atom_consistency_checked(self):
        assert validate(PointMass(2.0)) == []
        assert validate(EmpiricalTarget(np.array([0.5, 0.5, 1.5]))) == []
