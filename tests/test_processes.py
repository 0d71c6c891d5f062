import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import exp1, gamma, gammainc, gammaincc, ndtr

from ifpt.processes import (
    BesselDrift,
    BrownianDrift,
    Constant,
    FiniteAtoms,
    GammaSubordinatorMeasure,
    IntervalDiffusion,
    Levy,
    Linear,
    OneSidedStable,
    OU,
    Power,
    StateSpaceError,
    Uniqueness,
    classify_levy,
    Diagnostics,
    step_increments,
    upper_incomplete_gamma,
    _exp1,
    _gamma_tails,
)
from ifpt.rng import StreamKeys
from oracles import levy_char_exponent, scale_transform


def keys_for(n, seed=0, step=0, ids=None):
    return StreamKeys(seed=seed, step_index=step, ids=np.arange(n) if ids is None else ids, n_total=n)


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
        model = Levy(0.0, 0.0, (FiniteAtoms(((1.0, 3.0),)),), "discard", 0.5)
        x = step_increments(model, np.zeros(n), 1.0, keys_for(n, seed=3))
        p0 = float((x == 0.0).mean())
        assert abs(p0 - math.exp(-3.0)) < 0.002
        assert np.allclose(x, np.round(x))

    def test_drift_sign_convention(self):
        # psi carries +i theta a, so positive a drifts the path down
        n = 10_000
        model = Levy(2.0, 0.0, (), "discard", 0.5)
        x = step_increments(model, np.zeros(n), 1.0, keys_for(n, seed=4))
        assert np.allclose(x, -2.0)

    def test_monotone_coupling_in_positions(self):
        # identical stream keys, ordered inputs: additive increments keep order
        n = 5000
        rng = np.random.default_rng(5)
        p1 = rng.normal(size=n)
        p2 = p1 + rng.exponential(1.0, size=n)
        model = Levy(0.1, 0.3, (OneSidedStable("+", 0.5, 0.5, 1.0),), "gaussian", 0.01)
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
        model = Levy(0.0, 0.25, (OneSidedStable("+", 0.5, 0.5, 1.0),), "gaussian", 0.01)
        full = step_increments(model, np.zeros(n), 0.5, keys_for(n, seed=9, step=3))
        sub = np.array([5, 17, 400, 999])
        part = step_increments(model, np.zeros(4), 0.5, keys_for(n, seed=9, step=3, ids=sub))
        assert np.array_equal(part, full[sub])

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**64 - 1), step=st.integers(0, 4096), mask=st.lists(st.booleans(), min_size=1, max_size=400))
    def test_subset_step_equals_full_step_restricted(self, seed, step, mask):
        # jump rate about 10 and dt 0.5: many particles take several jumps
        model = Levy(0.0, 0.25, (OneSidedStable("+", 0.5, 0.5, 1.0), FiniteAtoms(((1.0, 2.0),))), "gaussian", 0.01)
        n = len(mask)
        sub = np.flatnonzero(mask)
        x0 = np.linspace(-1.0, 1.0, n)
        full = step_increments(model, x0, 0.5, keys_for(n, seed=seed, step=step))
        part = step_increments(model, x0[sub], 0.5, keys_for(n, seed=seed, step=step, ids=sub))
        assert np.array_equal(part, full[sub])

    def test_gaussian_surrogate_variance(self):
        # surrogate matches the truncated second moment exactly
        spec = (OneSidedStable("+", 0.5, 0.5, 1.0),)
        eta = 0.01
        m = Levy(0.0, 0.0, spec, "gaussian", eta)
        assert m.gauss_std**2 == pytest.approx(spec[0].small_var(eta), rel=1e-12)
        m2 = Levy(0.0, 0.0, spec, "discard", eta)
        assert m2.gauss_std == 0.0

    def test_rejects_nonfinite_positions(self):
        model = Levy(0.0, 1.0, (), "gaussian", 0.1)
        with pytest.raises(StateSpaceError):
            step_increments(model, np.array([0.0, math.inf]), 0.1, keys_for(2))


# the widths at which evolve's id type widens, and past a chunk of the hash
@pytest.mark.parametrize("n", [255, 256, 65_536, 65_537])
def test_steps_with_narrow_ids_are_the_int64_steps(n):
    # BENCH3's Lévy step (normals, Poisson uniforms, jump rows) and
    # diffusion-ou's OU step (a normal block over four substeps)
    levy = Levy(0.0, 0.25, (OneSidedStable("+", 0.5, 0.5, 1.0),), "gaussian", 0.01)
    ou = IntervalDiffusion(OU(1.0), Constant(1.0), L=0.0, lower_boundary_behavior="reflecting", dt_substeps=4)
    narrow = keys_for(n, seed=20261022, step=5, ids=np.arange(n, dtype=np.min_scalar_type(n - 1)))
    wide = keys_for(n, seed=20261022, step=5)
    x = np.linspace(0.1, 2.0, n)
    for model, dt in ((levy, 1 / 4), (ou, 1 / 32)):
        assert model.step(x, dt, narrow, None).tobytes() == model.step(x, dt, wide, None).tobytes()


class TestDiffusionStep:
    def test_ou_transition_smoke(self):
        n = 20_000
        model = IntervalDiffusion(beta=OU(1.0), sigma=Constant(1.0))
        x = np.full(n, 1.0)
        for k in range(256):
            x = step_increments(model, x, 1.0 / 256, keys_for(n, seed=7, step=k))
        mean, var = math.exp(-1.0), (1 - math.exp(-2.0)) / 2
        xs = np.sort(x)
        ks = float(np.max(np.abs(np.arange(1, n + 1) / n - ndtr((xs - mean) / math.sqrt(var)))))
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
        cdf = 2.0 * ndtr(xs) - 1.0
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

    def test_overflow_with_infinite_r_is_not_an_upper_rejection(self):
        # with R infinite there is no >= R test: a substep that overflows to
        # +inf stays, is not counted, and the next step refuses the position
        model = IntervalDiffusion(beta=Constant(0.0), sigma=Power(150.0, 1.0), L=0.0, R=math.inf, dt_substeps=2)
        diag = Diagnostics()
        with np.errstate(over="ignore", invalid="ignore"):
            out = step_increments(model, np.full(200, 9.0), 1 / 16, keys_for(200, seed=12), diag)
        assert np.any(out == math.inf)
        assert diag.upper_rejections == 0
        with pytest.raises(StateSpaceError, match="positions must be finite"):
            step_increments(model, out, 1 / 16, keys_for(200, seed=12, step=1), diag)

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

    @pytest.mark.parametrize(
        "model, x0",
        [
            # reflection at L != 0, OU drift, constant sigma
            (IntervalDiffusion(beta=OU(1.0), sigma=Constant(1.3), L=0.3,
                               lower_boundary_behavior="reflecting", dt_substeps=3), (0.3, 1.0)),
            # lower and finite-R rejection, constant beta, linear sigma
            (IntervalDiffusion(beta=Constant(0.2), sigma=Linear(0.5, 0.25), L=-1.0, R=1.0,
                               dt_substeps=4), (-1.0, 1.0)),
            # power sigma and Bessel drift, reflecting below, rejecting above
            (IntervalDiffusion(beta=BesselDrift(3.0), sigma=Power(0.5, 1.0), L=0.5, R=2.0,
                               lower_boundary_behavior="reflecting", dt_substeps=2), (0.5, 2.0)),
            # the OU diffusion of the benchmark: reflection at L == 0, R infinite
            (IntervalDiffusion(beta=OU(1.0), sigma=Constant(1.0), L=0.0,
                               lower_boundary_behavior="reflecting", dt_substeps=4), (0.0, 1.0)),
            # constant coefficients over several substeps, rejecting at both ends: the
            # last substep's sum goes to an array of its own
            (IntervalDiffusion(beta=Constant(0.2), sigma=Constant(1.0), L=-1.0, R=1.0,
                               dt_substeps=4), (-1.0, 1.0)),
            # no drift, reflecting at L != 0
            (IntervalDiffusion(beta=Constant(0.0), sigma=Constant(0.6), L=0.5,
                               lower_boundary_behavior="reflecting", dt_substeps=3), (0.5, 2.0)),
            # a scalar drift added into an array noise
            (IntervalDiffusion(beta=Constant(0.7), sigma=Power(0.5, 1.0), L=0.5, R=2.0,
                               dt_substeps=2), (0.5, 2.0)),
        ],
    )
    def test_step_is_the_euler_expression_bit_for_bit(self, model, x0):
        def reference(x, dt, keys, diag):
            # one Euler expression per substep, each coefficient a full array
            m = model.dt_substeps
            h = dt / m
            z = keys.normal_block(m, slot=0)
            full = lambda v: np.broadcast_to(np.asarray(v, dtype=float), x.shape)  # noqa: E731
            for j in range(m):
                prop = x + full(model.beta(x)) * h
                prop += full(model.sigma(x)) * math.sqrt(h) * z[j]
                if math.isfinite(model.L):
                    if model.lower_boundary_behavior == "reflecting":
                        prop = model.L + np.abs(prop - model.L)
                    else:
                        low = prop <= model.L
                        prop[low] = x[low]
                        diag.lower_rejections += int(low.sum())
                high = prop >= model.R
                prop[high] = x[high]
                diag.upper_rejections += int(high.sum())
                x = prop
            return x

        lo, hi = x0
        # 5,000 paths fit in one of the RNG's chunks and 70,000 span three, over
        # which the step evaluates the coefficients chunk by chunk
        for n in (5000, 70_000):
            # open interior, with a tenth of the particles next to each end
            x = np.linspace(lo, hi, n + 2)[1:-1]
            x[: n // 10] = lo + (hi - lo) * 1e-3
            x[-n // 10 :] = hi - (hi - lo) * 1e-3
            x_in = x.copy()
            got_diag, want_diag = Diagnostics(), Diagnostics()
            got, want = x, x.copy()
            for k in range(8):
                keys = keys_for(n, seed=21, step=k, ids=np.arange(3, 3 * n + 3, 3))
                got = model.step(got, 1 / 16, keys, got_diag)
                want = reference(want, 1 / 16, keys, want_diag)
                assert got.tobytes() == want.tobytes()
            assert got_diag == want_diag
            # the step writes into its own arrays, never into its input
            assert x.tobytes() == x_in.tobytes()
            if math.isfinite(model.R):
                assert got_diag.upper_rejections > 0
            if model.lower_boundary_behavior == "unattainable":
                assert got_diag.lower_rejections > 0

    @pytest.mark.parametrize("mu", [0.0, 0.3, -2.5])
    @pytest.mark.parametrize("vol, dt", [(1.0, 1 / 16), (0.37, 0.1), (2.9, 1 / 3)])
    def test_brownian_step_is_the_former_brownian_step_bit_for_bit(self, mu, vol, dt):
        # the constant-coefficient diffusion's one substep against the
        # Brownian step it replaced: z * (vol * sqrt(dt)) + (x + mu * dt), and
        # z * (vol * sqrt(dt)) + x when mu is 0
        n = 5000
        model = BrownianDrift(mu, vol)
        got = want = np.linspace(-3.0, 3.0, n)
        for k in range(4):
            keys = keys_for(n, seed=23, step=k, ids=np.arange(5, 7 * n + 5, 7))
            z = keys.normals(slot=0)
            want = z * (vol * math.sqrt(dt)) + (want + mu * dt if mu else want)
            got = model.step(got, dt, keys, Diagnostics())
            assert got.tobytes() == want.tobytes()

    def test_sigma_positivity_validated(self):
        with pytest.raises(ValueError):
            IntervalDiffusion(beta=Constant(0.0), sigma=Constant(-1.0))
        with pytest.raises(ValueError):
            IntervalDiffusion(beta=Constant(0.0), sigma=Linear(0.0, 1.0), L=-1.0, R=1.0)


class TestCharExponent:
    def test_pure_gaussian(self):
        model = Levy(0.0, 1.0, ())
        for th in (-2.0, 0.5, 2.0):
            assert levy_char_exponent(model, th) == pytest.approx(th**2 / 2)

    def test_single_large_atom(self):
        model = Levy(0.0, 0.0, (FiniteAtoms(((2.0, 1.0),)),))
        th = 0.7
        assert levy_char_exponent(model, th) == pytest.approx(1.0 - np.exp(2j * th))

    def test_zero_theta(self):
        models = [
            Levy(1.0, 2.0, (FiniteAtoms(((0.5, 1.0),)),)),
            Levy(0.0, 0.0, (OneSidedStable("+", 0.5, 0.5, 1.0),)),
        ]
        for model in models:
            assert levy_char_exponent(model, 0.0) == 0

    def test_small_atom_keeps_compensator(self):
        model = Levy(0.0, 0.0, (FiniteAtoms(((0.5, 2.0),)),))
        th = 1.3
        want = 2.0 * (1.0 - np.exp(0.5j * th) + 0.5j * th)
        assert levy_char_exponent(model, th) == pytest.approx(want)

    def test_density_component_against_quadrature(self):
        comp = OneSidedStable("-", 0.7, 0.4, 2.0)
        model = Levy(0.0, 0.0, (comp,))
        th = 1.5
        dens = lambda m: 0.4 * m**-1.7 * math.exp(-2.0 * m)
        re = quad(lambda m: (1 - math.cos(th * m)) * dens(m), 0, np.inf, limit=300)[0]
        im = quad(lambda m: (math.sin(th * m) - th * m) * dens(m), 0, 1, limit=300)[0]
        im += quad(lambda m: math.sin(th * m) * dens(m), 1, np.inf, limit=300)[0]
        got = levy_char_exponent(model, th)
        assert got.real == pytest.approx(re, rel=1e-7)
        assert got.imag == pytest.approx(im, rel=1e-7)

    def test_tempered_stable_closed_form(self):
        # psi = -c Gamma(-alpha) ((lam - i theta)^alpha - lam^alpha), plus the
        # compensator i theta c int_0^1 x^-alpha e^(-lam x) dx
        alpha, c, lam, th = 0.5, 0.5, 1.0, 0.7
        model = Levy(0.0, 0.0, (OneSidedStable("+", alpha, c, lam),))
        want = -c * gamma(-alpha) * ((lam - 1j * th) ** alpha - lam**alpha)
        want += 1j * th * c * lam ** (alpha - 1) * gamma(1 - alpha) * gammainc(1 - alpha, lam)
        assert abs(levy_char_exponent(model, th) - want) <= 1e-9 * abs(want)


def step_constants(model):
    return model.jump_rate, model.drift, model.small_jump_variance


# one component of each kind: atoms, tempered stable and Gamma
_atoms = st.builds(
    FiniteAtoms,
    st.lists(
        st.tuples(
            st.floats(1e-4, 5.0) | st.floats(-5.0, -1e-4),
            st.floats(1e-3, 10.0),
        ),
        min_size=1,
        max_size=4,
    ),
)
_stable = st.builds(
    OneSidedStable, st.sampled_from("+-"), st.floats(0.05, 1.95), st.floats(1e-2, 5.0), st.floats(0.1, 5.0)
)
_gamma = st.builds(GammaSubordinatorMeasure, st.sampled_from("+-"), st.floats(0.1, 5.0), st.floats(0.1, 5.0))


class TestSmallJumpStats:
    """The model's jump rate, drift and small-jump variance at eta."""

    def test_atom_above_eta(self):
        # rate 2 above eta, and a' = 0.5 * 2 realized as drift -1
        model = Levy(0.0, 0.0, (FiniteAtoms(((0.5, 2.0),)),), eta=0.25)
        assert step_constants(model) == (2.0, -1.0, 0.0)

    def test_atom_below_eta(self):
        model = Levy(0.0, 0.0, (FiniteAtoms(((0.1, 10.0),)),), eta=0.25)
        assert step_constants(model) == (0.0, 0.0, pytest.approx(0.1))

    @settings(max_examples=60)
    @given(
        a=st.floats(-2.0, 2.0),
        comps=st.lists(st.one_of(_atoms, _stable, _gamma), min_size=3, max_size=6),
        eta=st.floats(1e-3, 0.99),
    )
    def test_constants_are_the_in_order_sums_of_the_components(self, a, comps, eta):
        # the built-in sum over the components in order, bit for bit; with
        # three or more terms math.fsum or another order rounds differently
        model = Levy(a, 0.5, comps, eta=eta)
        assert model.jump_rate == float(sum(c.tail_rate(eta) for c in comps))
        assert model.drift == -(a + float(sum(c.mean_trunc(eta) for c in comps)))
        assert model.small_jump_variance == float(sum(c.small_var(eta) for c in comps))

    def test_partition_identity_across_eta(self):
        # the second moment below 1 does not depend on where eta cuts
        spec = (OneSidedStable("+", 0.5, 0.5, 1.0), FiniteAtoms(((-0.3, 2.0), (0.7, 1.0))))

        def second_moment_below_one(eta):
            v = Levy(0.0, 0.0, spec, eta=eta).small_jump_variance
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
        v = Levy(0.0, 0.0, (OneSidedStable("+", 0.5, 0.5, 1.0),), eta=0.01).small_jump_variance
        dt, c = 1 / 256, 0.1
        assert 0 < dt * v / c**2 < 1

    @pytest.mark.parametrize("eta", [0.0, 1.0, math.nan])
    def test_eta_bounds(self, eta):
        with pytest.raises(ValueError, match=r"eta must be in \(0, 1\)"):
            Levy(0.0, 0.0, (), eta=eta)

    def test_sigma2_is_not_negative(self):
        with pytest.raises(ValueError, match="sigma2 must be >= 0"):
            Levy(0.0, -0.25, ())


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
            back = 1.0 - np.array([comp.tail_rate(v) for v in x]) / rate
            assert float(np.max(np.abs(back - u))) < 2e-4

    def test_negative_side_sign(self):
        ppf = GammaSubordinatorMeasure("-", 1.0, 1.0).tail_ppf(0.05)
        assert np.all(ppf(np.linspace(0.01, 0.99, 100)) <= -0.05 * (1 - 1e-12))

    def test_atoms_table_takes_the_largest_uniform(self):
        # np.cumsum's last entry and np.sum's pairwise total round apart: with
        # these 284 rates the table divided by the sum ended at 1 - 1.1e-15,
        # below the largest uniform and below the 1 - 1e-15 the Levy sampler
        # clips to, and inversion indexed past the sizes
        rates = np.random.default_rng(0).random(284)
        comp = FiniteAtoms(tuple(zip(np.arange(1.0, 285.0), rates)))
        u = np.array([1.0 - 2.0**-53])
        assert comp.tail_ppf(0.5)(u).tolist() == [284.0]
        assert Levy(0.0, 0.0, (comp,))._tail_ppf(u).tolist() == [284.0]


class TestGammaMeasure:
    """The Gamma measure is the tempered stable density at alpha = 0."""

    SHAPE, RATE = 1.3, 2.0

    def test_is_the_stable_component_at_alpha_zero(self):
        assert GammaSubordinatorMeasure("-", self.SHAPE, self.RATE) == OneSidedStable("-", 0.0, self.SHAPE, self.RATE)

    def test_tail_rate_is_shape_times_e1(self):
        y = np.geomspace(1e-6, 40.0, 500)
        got = GammaSubordinatorMeasure("+", self.SHAPE, self.RATE).tail_rate(y)
        assert got.tobytes() == (self.SHAPE * upper_incomplete_gamma(0.0, self.RATE * y)).tobytes()

    def test_mean_trunc_matches_closed_form(self):
        comp = GammaSubordinatorMeasure("-", self.SHAPE, self.RATE)
        for eta in np.geomspace(1e-6, 0.99, 200):
            hi, lo = math.exp(-self.RATE * eta), math.exp(-self.RATE)
            want = -self.SHAPE * (hi - lo) / self.RATE
            # e^(-r eta) - e^(-r) cancels as eta nears 1, in either form
            assert comp.mean_trunc(eta) == pytest.approx(want, rel=1e-14 * hi / (hi - lo), abs=0.0)

    @pytest.mark.parametrize("rate", [1.0, 20.0])
    def test_small_var_matches_scipy(self, rate):
        # g (1 - (1 + r eta) e^(-r eta)) / r^2 cancelled: 9e-5 off at r eta = 1e-6
        comp = GammaSubordinatorMeasure("+", self.SHAPE, rate)
        for x in np.geomspace(1e-6, 10.0, 200):
            want = self.SHAPE / rate**2 * gammainc(2.0, x)
            assert comp.small_var(x / rate) == pytest.approx(want, rel=1e-14, abs=0.0)


class TestUpperIncompleteGamma:
    def test_matches_quadrature_for_negative_s(self):
        for s in (-0.5, -1.5, 0.3):
            for z in (0.05, 1.0, 3.0):
                want = quad(lambda t: t ** (s - 1) * math.exp(-t), z, np.inf, limit=300)[0]
                assert upper_incomplete_gamma(s, z) == pytest.approx(want, rel=1e-9)


class TestNearOneAgainstMpmath:
    """Where 1 - P(s, z) and a difference of upper gammas cancelled."""

    @pytest.mark.parametrize("s", [-0.9, -0.99, -0.999, 0.001, 0.01])
    def test_upper_incomplete_gamma_for_s_just_above_minus_one_and_zero(self, s):
        # 1 - P(0.001, z) put 5e-12 on s = -0.999
        z = np.geomspace(1e-4, 60.0, 300)
        with mpmath.workdps(30):
            want = np.array([float(mpmath.gammainc(s, v)) for v in z.tolist()])
        np.testing.assert_allclose(upper_incomplete_gamma(s, z), want, rtol=5e-13, atol=0)

    @pytest.mark.parametrize(
        "comp", [GammaSubordinatorMeasure("-", 1.3, 2.0), OneSidedStable("+", 1.5, 0.2, 0.7)], ids=["gamma", "stable"]
    )
    @pytest.mark.parametrize("eta", [0.9, 0.99, 0.999])
    def test_mean_trunc(self, comp, eta):
        # the difference of upper gammas was 4e-14 off for the Gamma measure at 0.99
        c, a, lam = comp.intensity, comp.alpha, comp.tempering
        with mpmath.workdps(30):
            want = comp.sign * c * mpmath.quad(lambda x: x ** (-a) * mpmath.exp(-lam * x), [eta, 1])
        assert comp.mean_trunc(eta) == pytest.approx(float(want), rel=1e-14, abs=0)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.2, 1.5, 1.9])
    def test_untempered_mean_trunc(self, alpha):
        # c (1 - eta^(1 - a)) / (1 - a) was 8.6e-14 off at a = 0.5, eta = 0.999
        # and 1.8e-12 at a = 1.5, eta = 0.9999
        comp = OneSidedStable("+", alpha, 0.7)
        for eta in (1e-8, 1e-4, 0.01, 0.5, 0.9, 0.999, 0.9999):
            with mpmath.workdps(40):
                want = 0.7 * mpmath.quad(lambda x: x ** (-alpha), [eta, 1])
            assert comp.mean_trunc(eta) == pytest.approx(float(want), rel=2e-15, abs=0), eta


class TestGammaFunctionsAgainstScipy:
    """The in-house incomplete gamma functions, held to scipy.special."""

    Z = np.geomspace(1e-6, 1e3, 400)

    @pytest.mark.parametrize("s", [0.1, 0.5, 1.0, 1.5, 1.9, 17.0])
    def test_regularized_tails(self, s):
        p, q = _gamma_tails(s, self.Z)
        # below 1e-300 a tail is near underflow and keeps fewer digits
        np.testing.assert_allclose(p, gammainc(s, self.Z), rtol=1e-12, atol=1e-300)
        np.testing.assert_allclose(q, gammaincc(s, self.Z), rtol=1e-12, atol=1e-300)

    def test_exp1(self):
        np.testing.assert_allclose(_exp1(self.Z), exp1(self.Z), rtol=1e-13, atol=1e-300)

    @pytest.mark.parametrize("s", [-0.25, -0.5, -0.75, -1.25, -1.5, -1.75])
    def test_negative_s(self, s):
        z = np.geomspace(1e-6, 50.0, 300)

        def want(s):
            # the same upward recurrence, on scipy's functions
            if s > 0:
                return gamma(s) * gammaincc(s, z)
            return (want(s + 1.0) - z**s * np.exp(-z)) / s

        got = upper_incomplete_gamma(s, z)
        np.testing.assert_allclose(got, want(s), rtol=1e-11)
        # a float argument gives the array's value
        assert all(upper_incomplete_gamma(s, float(v)) == g for v, g in zip(z[::30], got[::30]))


class TestClassify:
    def test_brownian(self):
        c = classify_levy(Levy(0.0, 1.0, ()))
        assert c.existence_diffuse and c.unbounded_variation
        assert c.uniqueness is Uniqueness.FULL_INTERVAL

    def test_negative_gamma_subordinator(self):
        c = classify_levy(Levy(0.0, 0.0, (GammaSubordinatorMeasure("-", 1.0, 1.0),)))
        assert c.existence_diffuse
        assert not c.unbounded_variation
        assert c.zero_in_supp and c.neg_mass and not c.pos_mass
        assert c.uniqueness is Uniqueness.SUPPORT_ONLY
        assert "supp" in c.i_xi_description

    def test_constant_jump_poisson(self):
        c = classify_levy(Levy(0.0, 0.0, (FiniteAtoms(((1.0, 1.0),)),)))
        assert not c.existence_diffuse
        assert c.uniqueness is Uniqueness.UNKNOWN

    def test_stable_variation_split(self):
        lo = classify_levy(Levy(0.0, 0.0, (OneSidedStable("+", 0.5, 1.0),)))
        hi = classify_levy(Levy(0.0, 0.0, (OneSidedStable("+", 1.5, 1.0),)))
        # tempering changes neither side of the split (BENCH3's jump measure)
        tempered_lo = classify_levy(Levy(0.0, 0.0, (OneSidedStable("+", 0.5, 0.5, 1.0),)))
        tempered_hi = classify_levy(Levy(0.0, 0.0, (OneSidedStable("+", 1.5, 0.5, 1.0),)))
        assert not lo.unbounded_variation and not tempered_lo.unbounded_variation
        assert hi.unbounded_variation and tempered_hi.unbounded_variation
        for c in (lo, tempered_lo):
            assert c.existence_diffuse
            assert c.uniqueness is Uniqueness.FULL_INTERVAL  # 0 in supp, positive mass

    def test_accumulation_is_decided_per_component(self):
        # the Gamma measure accumulates at 0 from below; the atom at 1 adds
        # positive mass but no accumulation at 0
        c = classify_levy(
            Levy(0.0, 0.0, (GammaSubordinatorMeasure("-", 1.0, 1.0), FiniteAtoms(((1.0, 1.0),))))
        )
        assert c.zero_in_supp and c.pos_mass and c.neg_mass
        assert c.uniqueness is Uniqueness.SUPPORT_ONLY

    def test_invariant_biconditionals(self):
        models = [
            Levy(0.0, 1.0, ()),
            Levy(0.0, 0.0, (GammaSubordinatorMeasure("-", 1.0, 1.0),)),
            Levy(0.0, 0.0, (FiniteAtoms(((1.0, 1.0),)),)),
            Levy(0.0, 0.0, (OneSidedStable("-", 0.5, 1.0),)),
            Levy(0.0, 0.0, (OneSidedStable("+", 1.7, 1.0),)),
            # pooled, this has 0 in the support and positive mass, but no
            # component accumulates positive jumps at 0
            Levy(0.0, 0.0, (GammaSubordinatorMeasure("-", 1.0, 1.0), FiniteAtoms(((1.0, 1.0),)))),
        ]
        for model in models:
            c = classify_levy(model)
            comps = model.measure
            full = c.unbounded_variation or any(m.touches_zero and m.has_pos for m in comps)
            support = (not full) and any(m.touches_zero and m.has_neg for m in comps)
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
