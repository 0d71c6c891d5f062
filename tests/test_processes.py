import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from ifpt.processes import (
    BesselDrift,
    BrownianDrift,
    Constant,
    FiniteAtoms,
    GammaSubordinatorMeasure,
    IntervalDiffusion,
    Levy,
    LevyMeasureSpec,
    LevyTriple,
    Linear,
    OneSidedStable,
    OU,
    Power,
    StateSpaceError,
    Uniqueness,
    classify_levy,
    Diagnostics,
    levy_char_exponent,
    scale_transform,
    small_jump_stats,
    step_increments,
    upper_incomplete_gamma,
)
from ifpt.rng import StreamKeys
from ifpt.targets import norm_cdf


def keys_for(n, seed=0, step=0, ids=None):
    return StreamKeys(seed=seed, step_index=step, ids=np.arange(n) if ids is None else ids, n_total=n)


def measure(*comps):
    return LevyMeasureSpec(tuple(comps))


class TestBrownianStep:
    def test_moments_one_step(self):
        n = 10**6
        x = step_increments(BrownianDrift(0.0, 1.0), np.zeros(n), 1.0, keys_for(n, seed=1))
        assert abs(float(x.mean())) < 0.004
        assert abs(float(x.var()) - 1.0) < 0.01

    def test_drift_and_scale(self):
        n = 200_000
        x = step_increments(BrownianDrift(2.0, 0.5), np.zeros(n), 0.25, keys_for(n, seed=2))
        assert float(x.mean()) == pytest.approx(0.5, abs=0.005)
        assert float(x.std()) == pytest.approx(0.25, abs=0.005)


class TestLevyStep:
    def test_pure_poisson_atom(self):
        n = 10**6
        model = Levy(LevyTriple(0.0, 0.0, measure(FiniteAtoms(((1.0, 3.0),)))), "discard", 0.5)
        x = step_increments(model, np.zeros(n), 1.0, keys_for(n, seed=3))
        p0 = float((x == 0.0).mean())
        assert abs(p0 - math.exp(-3.0)) < 0.002
        assert np.allclose(x, np.round(x))

    def test_drift_sign_convention(self):
        # psi carries +i theta a, so positive a drifts the path down
        n = 10_000
        model = Levy(LevyTriple(2.0, 0.0, measure()), "discard", 0.5)
        x = step_increments(model, np.zeros(n), 1.0, keys_for(n, seed=4))
        assert np.allclose(x, -2.0)

    def test_monotone_coupling_in_positions(self):
        # identical stream keys, ordered inputs: additive increments keep order
        n = 5000
        rng = np.random.default_rng(5)
        p1 = rng.normal(size=n)
        p2 = p1 + rng.exponential(1.0, size=n)
        model = Levy(
            LevyTriple(0.1, 0.3, measure(OneSidedStable("+", 0.5, 0.5, 1.0))), "gaussian", 0.01
        )
        k = keys_for(n, seed=6)
        o1 = step_increments(model, p1, 0.5, k)
        o2 = step_increments(model, p2, 0.5, k)
        assert np.all(o1 <= o2)
        kb = keys_for(n, seed=6)
        assert np.array_equal(step_increments(BrownianDrift(0, 1), p1, 0.5, kb),
                              step_increments(BrownianDrift(0, 1), p1, 0.5, kb))

    def test_per_particle_purity(self):
        # a particle's increment does not depend on which others advance
        n = 1000
        model = Levy(
            LevyTriple(0.0, 0.25, measure(OneSidedStable("+", 0.5, 0.5, 1.0))), "gaussian", 0.01
        )
        full = step_increments(model, np.zeros(n), 0.5, keys_for(n, seed=9, step=3))
        sub = np.array([5, 17, 400, 999])
        part = step_increments(model, np.zeros(4), 0.5, keys_for(n, seed=9, step=3, ids=sub))
        assert np.array_equal(part, full[sub])

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), step=st.integers(0, 4096), mask=st.lists(st.booleans(), min_size=1, max_size=400))
    def test_subset_step_equals_full_step_restricted(self, seed, step, mask):
        # jump rate about 10 and dt 0.5: many particles take several jumps
        model = Levy(
            LevyTriple(0.0, 0.25, measure(OneSidedStable("+", 0.5, 0.5, 1.0), FiniteAtoms(((1.0, 2.0),)))),
            "gaussian",
            0.01,
        )
        n = len(mask)
        sub = np.flatnonzero(mask)
        x0 = np.linspace(-1.0, 1.0, n)
        full = step_increments(model, x0, 0.5, keys_for(n, seed=seed, step=step))
        part = step_increments(model, x0[sub], 0.5, keys_for(n, seed=seed, step=step, ids=sub))
        assert np.array_equal(part, full[sub])

    def test_gaussian_surrogate_variance(self):
        # surrogate matches the truncated second moment exactly
        spec = measure(OneSidedStable("+", 0.5, 0.5, 1.0))
        eta = 0.01
        _, _, var_small = small_jump_stats(spec, eta)
        m = Levy(LevyTriple(0.0, 0.0, spec), "gaussian", eta)
        assert m.gauss_std**2 == pytest.approx(var_small, rel=1e-12)
        m2 = Levy(LevyTriple(0.0, 0.0, spec), "discard", eta)
        assert m2.gauss_std == 0.0

    def test_rejects_nonfinite_positions(self):
        model = Levy(LevyTriple(0.0, 1.0, measure()), "gaussian", 0.1)
        with pytest.raises(StateSpaceError):
            step_increments(model, np.array([0.0, math.inf]), 0.1, keys_for(2))


class TestDiffusionStep:
    def test_ou_transition_smoke(self):
        n = 20_000
        model = IntervalDiffusion(beta=OU(1.0), sigma=Constant(1.0))
        x = np.full(n, 1.0)
        for k in range(256):
            x = step_increments(model, x, 1.0 / 256, keys_for(n, seed=7, step=k))
        mean, var = math.exp(-1.0), (1 - math.exp(-2.0)) / 2
        xs = np.sort(x)
        ks = float(np.max(np.abs(np.arange(1, n + 1) / n - norm_cdf((xs - mean) / math.sqrt(var)))))
        assert ks < 0.03

    def test_reflecting_lower_boundary_half_normal(self):
        # folded Euler path of driftless unit BM reflected at 0 is |B_t|
        n = 40_000
        model = IntervalDiffusion(
            beta=Constant(0.0), sigma=Constant(1.0), L=0.0,
            lower_boundary_behavior="reflecting", dt_substeps=4,
        )
        x = np.full(n, 1e-9)
        for k in range(64):
            x = step_increments(model, x, 1.0 / 64, keys_for(n, seed=8, step=k))
        xs = np.sort(x)
        cdf = 2.0 * norm_cdf(xs) - 1.0
        ks = float(np.max(np.abs(np.arange(1, n + 1) / n - cdf)))
        assert ks < 0.02
        assert np.all(x >= 0.0)

    def test_upper_rejection_counts(self):
        model = IntervalDiffusion(beta=Constant(0.0), sigma=Constant(1.0), L=-math.inf, R=1.0)
        diag = Diagnostics()
        x = np.full(1000, 0.999)
        out = step_increments(model, x, 1.0, keys_for(1000, seed=9), diag)
        assert np.all(out < 1.0)
        assert diag.upper_rejections > 0

    def test_unattainable_lower_rejection(self):
        model = IntervalDiffusion(beta=Constant(0.0), sigma=Constant(1.0), L=0.0, R=math.inf)
        diag = Diagnostics()
        out = step_increments(model, np.full(500, 1e-4), 1.0, keys_for(500, seed=10), diag)
        assert np.all(out > 0.0)
        assert diag.lower_rejections > 0

    def test_positions_outside_interval_rejected(self):
        model = IntervalDiffusion(beta=Constant(0.0), sigma=Constant(1.0), L=0.0, R=1.0)
        with pytest.raises(StateSpaceError):
            step_increments(model, np.array([1.5]), 0.1, keys_for(1))

    def test_euler_monotone_coupling_empirical(self):
        # with mean reversion theta and substep h, the Euler map is
        # x (1 - theta h) + noise: monotone while theta h < 1, so common
        # keys preserve pointwise order (checked empirically, not asserted
        # as a general law for all coefficients)
        n = 4000
        rng = np.random.default_rng(14)
        p1 = rng.normal(size=n)
        p2 = p1 + rng.exponential(0.5, size=n)
        model = IntervalDiffusion(beta=OU(1.0), sigma=Constant(1.0), dt_substeps=4)
        k = keys_for(n, seed=15)
        o1 = step_increments(model, p1, 1 / 64, k)
        o2 = step_increments(model, p2, 1 / 64, k)
        assert np.all(o1 <= o2)

    def test_sigma_positivity_validated(self):
        with pytest.raises(ValueError):
            IntervalDiffusion(beta=Constant(0.0), sigma=Constant(-1.0))
        with pytest.raises(ValueError):
            IntervalDiffusion(beta=Constant(0.0), sigma=Linear(0.0, 1.0), L=-1.0, R=1.0)


class TestCharExponent:
    def test_pure_gaussian(self):
        t = LevyTriple(0.0, 1.0, measure())
        for th in (-2.0, 0.5, 2.0):
            assert levy_char_exponent(t, th) == pytest.approx(th**2 / 2)

    def test_single_large_atom(self):
        t = LevyTriple(0.0, 0.0, measure(FiniteAtoms(((2.0, 1.0),))))
        th = 0.7
        assert levy_char_exponent(t, th) == pytest.approx(1.0 - np.exp(2j * th))

    def test_zero_theta(self):
        specs = [
            LevyTriple(1.0, 2.0, measure(FiniteAtoms(((0.5, 1.0),)))),
            LevyTriple(0.0, 0.0, measure(OneSidedStable("+", 0.5, 0.5, 1.0))),
        ]
        for t in specs:
            assert levy_char_exponent(t, 0.0) == 0

    def test_small_atom_keeps_compensator(self):
        t = LevyTriple(0.0, 0.0, measure(FiniteAtoms(((0.5, 2.0),))))
        th = 1.3
        want = 2.0 * (1.0 - np.exp(0.5j * th) + 0.5j * th)
        assert levy_char_exponent(t, th) == pytest.approx(want)

    def test_density_component_against_quadrature(self):
        comp = OneSidedStable("-", 0.7, 0.4, 2.0)
        t = LevyTriple(0.0, 0.0, measure(comp))
        th = 1.5
        dens = lambda m: 0.4 * m**-1.7 * math.exp(-2.0 * m)
        re = quad(lambda m: (1 - math.cos(th * m)) * dens(m), 0, np.inf, limit=300)[0]
        im = quad(lambda m: (math.sin(th * m) - th * m) * dens(m), 0, 1, limit=300)[0]
        im += quad(lambda m: math.sin(th * m) * dens(m), 1, np.inf, limit=300)[0]
        got = levy_char_exponent(t, th)
        assert got.real == pytest.approx(re, rel=1e-7)
        assert got.imag == pytest.approx(im, rel=1e-7)


class TestSmallJumpStats:
    def test_atom_above_eta(self):
        got = small_jump_stats(measure(FiniteAtoms(((0.5, 2.0),))), 0.25)
        assert got == (2.0, 1.0, 0.0)

    def test_atom_below_eta(self):
        got = small_jump_stats(measure(FiniteAtoms(((0.1, 10.0),))), 0.25)
        assert got == (0.0, 0.0, pytest.approx(0.1))

    def test_partition_identity_across_eta(self):
        # the second moment below 1 does not depend on where eta cuts
        spec = measure(
            OneSidedStable("+", 0.5, 0.5, 1.0), FiniteAtoms(((-0.3, 2.0), (0.7, 1.0)))
        )

        def second_moment_below_one(eta):
            _, _, v = small_jump_stats(spec, eta)
            mid = quad(lambda m: m**2 * 0.5 * m**-1.5 * math.exp(-m), eta, 1.0)[0]
            mid += sum(x * x * r for x, r in ((-0.3, 2.0), (0.7, 1.0)) if eta <= abs(x) < 1)
            return v + mid

        a = second_moment_below_one(0.01)
        b = second_moment_below_one(0.2)
        assert a == pytest.approx(b, rel=1e-9)

    def test_closed_forms_match_quadrature(self):
        for comp in (
            OneSidedStable("+", 0.5, 0.5, 0.0),
            OneSidedStable("+", 0.5, 0.5, 1.0),
            OneSidedStable("+", 1.5, 0.2, 0.7),
            GammaSubordinatorMeasure("-", 1.3, 2.0),
        ):
            eta = 0.03

            def dens(m):
                if isinstance(comp, GammaSubordinatorMeasure):
                    return comp.shape * math.exp(-comp.rate * m) / m
                return comp.intensity * m ** (-1 - comp.alpha) * math.exp(-comp.tempering * m)

            sign = 1.0 if comp.side == "+" else -1.0
            assert comp.tail_rate(eta) == pytest.approx(
                quad(dens, eta, np.inf, limit=300)[0], rel=1e-8
            )
            assert comp.mean_trunc(eta) == pytest.approx(
                sign * quad(lambda m: m * dens(m), eta, 1.0)[0], rel=1e-8
            )
            assert comp.small_var(eta) == pytest.approx(
                quad(lambda m: m * m * dens(m), 0.0, eta, points=[eta / 2])[0], rel=1e-7
            )

    def test_doob_budget_shape(self):
        # discard-mode bias budget dt * var_below_eta / C^2 is finite and small
        spec = measure(OneSidedStable("+", 0.5, 0.5, 1.0))
        _, _, v = small_jump_stats(spec, 0.01)
        dt, c = 1 / 256, 0.1
        assert 0 < dt * v / c**2 < 1

    def test_eta_bounds(self):
        with pytest.raises(ValueError):
            small_jump_stats(measure(), 0.0)
        with pytest.raises(ValueError):
            small_jump_stats(measure(), 1.0)


class TestTailSampler:
    def test_inverse_cdf_accuracy(self):
        for comp in (
            OneSidedStable("+", 0.5, 0.5, 1.0),
            OneSidedStable("+", 1.2, 1.0, 0.0),
            GammaSubordinatorMeasure("+", 1.0, 1.0),
        ):
            eta = 0.01
            ppf = comp.tail_ppf(eta)
            u = np.linspace(1e-6, 1 - 1e-6, 4001)
            x = ppf(u)
            assert np.all(np.diff(x) >= 0)
            assert np.all(x >= eta * (1 - 1e-12))
            rate = comp.tail_rate(eta)
            back = 1.0 - np.array([comp._magnitude_tail(v) for v in x]) / rate
            assert float(np.max(np.abs(back - u))) < 2e-4

    def test_negative_side_sign(self):
        ppf = GammaSubordinatorMeasure("-", 1.0, 1.0).tail_ppf(0.05)
        assert np.all(ppf(np.linspace(0.01, 0.99, 100)) <= -0.05 * (1 - 1e-12))


class TestUpperIncompleteGamma:
    def test_matches_quadrature_for_negative_s(self):
        for s in (-0.5, -1.5, 0.3):
            for z in (0.05, 1.0, 3.0):
                want = quad(lambda t: t ** (s - 1) * math.exp(-t), z, np.inf, limit=300)[0]
                assert upper_incomplete_gamma(s, z) == pytest.approx(want, rel=1e-9)


class TestClassify:
    def test_brownian(self):
        c = classify_levy(LevyTriple(0.0, 1.0, measure()))
        assert c.existence_diffuse and c.unbounded_variation
        assert c.uniqueness is Uniqueness.FULL_INTERVAL

    def test_negative_gamma_subordinator(self):
        c = classify_levy(LevyTriple(0.0, 0.0, measure(GammaSubordinatorMeasure("-", 1.0, 1.0))))
        assert c.existence_diffuse
        assert not c.unbounded_variation
        assert c.zero_in_supp and c.neg_mass and not c.pos_mass
        assert c.uniqueness is Uniqueness.SUPPORT_ONLY
        assert "supp" in c.i_xi_description

    def test_constant_jump_poisson(self):
        c = classify_levy(LevyTriple(0.0, 0.0, measure(FiniteAtoms(((1.0, 1.0),)))))
        assert not c.existence_diffuse
        assert c.uniqueness is Uniqueness.UNKNOWN

    def test_stable_variation_split(self):
        lo = classify_levy(LevyTriple(0.0, 0.0, measure(OneSidedStable("+", 0.5, 1.0))))
        hi = classify_levy(LevyTriple(0.0, 0.0, measure(OneSidedStable("+", 1.5, 1.0))))
        assert not lo.unbounded_variation
        assert hi.unbounded_variation
        assert lo.uniqueness is Uniqueness.FULL_INTERVAL  # 0 in supp, positive mass

    def test_invariant_biconditionals(self):
        triples = [
            LevyTriple(0.0, 1.0, measure()),
            LevyTriple(0.0, 0.0, measure(GammaSubordinatorMeasure("-", 1.0, 1.0))),
            LevyTriple(0.0, 0.0, measure(FiniteAtoms(((1.0, 1.0),)))),
            LevyTriple(0.0, 0.0, measure(OneSidedStable("-", 0.5, 1.0))),
            LevyTriple(0.0, 0.0, measure(OneSidedStable("+", 1.7, 1.0))),
        ]
        for t in triples:
            c = classify_levy(t)
            full = c.unbounded_variation or (c.zero_in_supp and c.pos_mass)
            support = (not full) and (c.zero_in_supp and c.neg_mass)
            assert (c.uniqueness is Uniqueness.FULL_INTERVAL) == full
            assert (c.uniqueness is Uniqueness.SUPPORT_ONLY) == support


class TestScaleTransform:
    def test_identity_sigma(self):
        m = IntervalDiffusion(beta=Constant(0.0), sigma=Constant(1.0))
        assert scale_transform(m, 2.0, 0.0) == pytest.approx(2.0)

    def test_log_scale(self):
        m = IntervalDiffusion(beta=Constant(0.0), sigma=Power(1.0, 1.0), L=0.0, R=math.inf)
        assert scale_transform(m, math.e, 1.0) == pytest.approx(1.0, abs=1e-10)

    def test_empty_integral(self):
        m = IntervalDiffusion(beta=Constant(0.0), sigma=Constant(1.0))
        assert scale_transform(m, 0.5, 0.5) == 0.0

    def test_strictly_increasing(self):
        m = IntervalDiffusion(beta=Constant(0.0), sigma=Power(0.5, 1.3), L=0.0, R=math.inf)
        rng = np.random.default_rng(12)
        for _ in range(50):
            x1, x2 = np.sort(rng.uniform(0.05, 8.0, 2))
            if x1 == x2:
                continue
            assert scale_transform(m, x1, 1.0) < scale_transform(m, x2, 1.0)

    def test_domain_errors(self):
        m = IntervalDiffusion(beta=Constant(0.0), sigma=Constant(1.0), L=0.0, R=1.0)
        with pytest.raises(ValueError):
            scale_transform(m, 1.5, 0.5)
        with pytest.raises(ValueError):
            scale_transform(m, 0.5, -0.5)

    def test_derivative_matches_reciprocal_sigma(self):
        cases = [
            (Constant(2.0), (-3.0, 3.0)),
            (Linear(1.0, 0.5), (0.0, 3.0)),
            (Power(0.7, 1.3), (0.1, 5.0)),
            (BesselDrift(3.0), (0.1, 5.0)),
            (OU(-2.0), (0.1, 5.0)),
        ]
        rng = np.random.default_rng(13)
        for sigma, (lo, hi) in cases:
            m = IntervalDiffusion(beta=Constant(0.0), sigma=sigma, L=lo - 1e-9, R=hi + 1e-9)
            c = 0.5 * (lo + hi)
            for x in rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 20):
                h = 1e-5 * max(1.0, abs(x))
                num = (scale_transform(m, x + h, c) - scale_transform(m, x - h, c)) / (2 * h)
                want = 1.0 / float(sigma(x))
                assert num == pytest.approx(want, rel=1e-6)
