import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ifpt.boundary import TimeGrid
from ifpt.calibrate import (
    CalibrationError,
    CalibrationOptions,
    EmpiricalInitial,
    Ensemble,
    NormalInitial,
    PointInitial,
    UniformInitial,
    _select_level,
    calibrate,
    refine_and_diagnose,
    round_half_up,
)
from ifpt.processes import (
    BrownianDrift,
    Constant,
    FiniteAtoms,
    IntervalDiffusion,
    Levy,
    LevyMeasureSpec,
    LevyTriple,
    StateSpaceError,
)
from ifpt.rng import generator, INIT_LABEL
from ifpt.targets import Exponential, PointMass, TargetDistribution, Weibull
from ifpt.verify import compare_boundaries

INF = math.inf


def select(positions, target_count):
    return _select_level(np.asarray(positions, dtype=float), target_count)


class TestCalibrationStep:
    def test_order_statistics_by_hand(self):
        level, kill = select([0.1, 0.9, 0.4], 2)
        assert level == 0.9
        assert list(kill) == [False, True, False]

    def test_no_kill_when_target_reached(self):
        level, kill = select([0.1, 0.9, 0.4], 3)
        assert level == INF
        assert not kill.any()

    def test_target_zero_kills_all(self):
        level, kill = select([0.1, 0.9, 0.4], 0)
        assert level == -INF
        assert kill.all()

    def test_only_alive_particles_count(self):
        ens = Ensemble(ids=np.arange(4), x=np.array([0.1, 0.9, 0.4, 0.2]))
        ens.kill(np.array([False, False, False, True]))
        level, kill = _select_level(ens.x, 2)
        assert level == 0.9
        ens.kill(kill)
        # the survivors keep their ids and positions
        assert list(ens.ids) == [0, 2]
        assert list(ens.x) == [0.1, 0.4]

    def test_tie_block_killed_together(self):
        level, kill = select([1.0, 1.0, 1.0, 0.5], 2)
        assert level == 1.0
        assert int((~kill).sum()) == 1  # shortfall: the tied block dies together

    def test_range_validation(self):
        # target counts come from round(N * S): S above 1 would ask for
        # more survivors than particles
        class AboveOne(TargetDistribution):
            def survival(self, t):
                return np.full(np.shape(t), 1.5)

        with pytest.raises(CalibrationError):
            calibrate(
                BrownianDrift(0, 1),
                PointInitial(0.0),
                AboveOne(),
                CalibrationOptions(particles=10, grid=small_grid(), seed=0),
            )


class TestRoundHalfUp:
    def test_half_goes_up(self):
        assert round_half_up(2.5) == 3
        assert round_half_up(2.4999999) == 2
        assert list(round_half_up(np.array([0.5, 1.5, 2.5]))) == [1, 2, 3]


def small_grid():
    return TimeGrid.arithmetic(1 / 16, 1 / 16, 32)


class TestCalibrate:
    def test_point_mass_gives_step_boundary(self):
        grid = TimeGrid(np.array([0.5, 1.0]))
        est = calibrate(
            BrownianDrift(0, 1),
            PointInitial(0.0),
            PointMass(1.0),
            CalibrationOptions(particles=100, grid=grid, seed=1),
        )
        assert est.curve.values[0] == INF
        assert est.curve.values[1] == -INF
        assert est.survival_achieved[0] == 1.0
        assert est.survival_achieved[1] == 0.0

    def test_exact_survival_tracking(self):
        n = 20_000
        est = calibrate(
            BrownianDrift(0, 1),
            PointInitial(0.0),
            Exponential(1.0),
            CalibrationOptions(particles=n, grid=small_grid(), seed=2),
        )
        m = round_half_up(n * est.survival_target)
        assert np.array_equal(np.rint(est.survival_achieved * n).astype(int), m)
        assert np.max(np.abs(est.survival_achieved - est.survival_target)) <= 1.0 / n

    def test_boundary_sentinels_match_counts(self):
        # -inf exactly where the rounded target count is zero, +inf exactly
        # where no kill occurred
        n = 500
        grid = TimeGrid.arithmetic(1 / 4, 1 / 4, 12)
        est = calibrate(
            BrownianDrift(0, 1),
            PointInitial(0.0),
            PointMass(2.0),
            CalibrationOptions(particles=n, grid=grid, seed=3),
        )
        m = round_half_up(n * est.survival_target)
        assert np.array_equal(est.curve.values == -INF, m == 0)
        assert np.array_equal(est.curve.values == INF, (m > 0))

    def test_deterministic_bit_for_bit(self):
        opts = CalibrationOptions(particles=5000, grid=small_grid(), seed=11)
        a = calibrate(BrownianDrift(0, 1), PointInitial(0.0), Exponential(1.0), opts)
        b = calibrate(BrownianDrift(0, 1), PointInitial(0.0), Exponential(1.0), opts)
        assert np.array_equal(a.curve.values, b.curve.values)
        assert np.array_equal(a.survival_achieved, b.survival_achieved)

    def test_initial_sampler_state_space_checked(self):
        model = IntervalDiffusion(beta=Constant(0.0), sigma=Constant(1.0), L=0.0, R=1.0)
        with pytest.raises(StateSpaceError):
            calibrate(
                model,
                PointInitial(2.0),
                Exponential(1.0),
                CalibrationOptions(particles=100, grid=small_grid(), seed=4),
            )

    def test_increasing_survival_rejected(self):
        class Broken(TargetDistribution):
            def survival(self, t):
                return np.minimum(1.0, 0.5 + 0.1 * np.asarray(t, dtype=float))

        with pytest.raises(CalibrationError):
            calibrate(
                BrownianDrift(0, 1),
                PointInitial(0.0),
                Broken(),
                CalibrationOptions(particles=100, grid=small_grid(), seed=5),
            )

    def test_atomic_jump_tie_shortfall_reported(self):
        # constant-jump Poisson from a point start produces heavy ties
        model = Levy(
            LevyTriple(0.0, 0.0, LevyMeasureSpec((FiniteAtoms(((1.0, 2.0),)),))), "discard", 0.5
        )
        n = 2000
        est = calibrate(
            model,
            PointInitial(0.0),
            Exponential(1.0),
            CalibrationOptions(particles=n, grid=small_grid(), seed=6),
        )
        m = round_half_up(n * est.survival_target)
        achieved = np.rint(est.survival_achieved * n).astype(int)
        assert np.all(achieved <= m)
        assert est.diagnostics["tie_shortfall"] >= int(np.sum(m - achieved) > 0)

    def test_defective_target_keeps_residual_alive(self):
        class Defective(TargetDistribution):
            def survival(self, t):
                return 0.4 + 0.6 * np.exp(-np.asarray(t, dtype=float))

        n = 4000
        est = calibrate(
            BrownianDrift(0, 1),
            PointInitial(0.0),
            Defective(),
            CalibrationOptions(particles=n, grid=small_grid(), seed=7),
        )
        assert est.survival_achieved[-1] >= 0.4

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        n=st.integers(2, 3000),
        dt_exp=st.integers(3, 8),
        first=st.integers(1, 4),
        steps=st.integers(1, 48),
        target=st.one_of(
            st.builds(Exponential, st.floats(0.05, 20.0)),
            st.builds(Weibull, st.floats(0.3, 4.0), st.floats(0.1, 5.0)),
        ),
    )
    def test_survival_within_one_particle(self, seed, n, dt_exp, first, steps, target):
        # Brownian positions are a.s. distinct, so no tied block is killed
        dt = 2.0**-dt_exp
        grid = TimeGrid.arithmetic(first * dt, dt, steps)
        est = calibrate(
            BrownianDrift(0, 1), PointInitial(0.0), target, CalibrationOptions(particles=n, grid=grid, seed=seed)
        )
        assert est.diagnostics["tie_events"] == 0
        assert np.max(np.abs(est.survival_achieved - est.survival_target)) <= 1.0 / n


class TestInitialDistributions:
    def test_inverse_cdf_coupling_orders_samples(self):
        # same seed, stochastically ordered laws: pathwise ordered samples
        n = 10_000
        u = generator(9, INIT_LABEL).random(n)
        cases = [
            (PointInitial(0.0), PointInitial(0.5)),
            (UniformInitial(0.0, 1.0), UniformInitial(0.2, 1.2)),
            (NormalInitial(0.0, 1.0), NormalInitial(0.3, 1.0)),
        ]
        for lo, hi in cases:
            assert np.all(lo.ppf(u) <= hi.ppf(u))

    def test_empirical_initial_quantiles(self):
        e = EmpiricalInitial(np.array([3.0, 1.0, 2.0]))
        assert list(e.ppf(np.array([0.0, 0.4, 0.99]))) == [1.0, 2.0, 3.0]

    def test_point_initial_sample(self):
        assert np.all(PointInitial(1.5).sample(10, 0) == 1.5)


class TestComparisonCoupling:
    def test_ordered_boundaries_small_scale(self):
        # hazard-ordered targets, st-ordered starts, common random numbers
        grid = TimeGrid.arithmetic(1 / 64, 1 / 64, 128)
        for seed in (21, 22, 23, 24, 25):
            opts = CalibrationOptions(particles=2000, grid=grid, seed=seed)
            b1 = calibrate(BrownianDrift(0, 1), PointInitial(0.0), Exponential(2.0), opts)
            b2 = calibrate(BrownianDrift(0, 1), PointInitial(0.5), Exponential(1.0), opts)
            rep = compare_boundaries(b1, b2, 0.0)
            assert rep.holds, (seed, rep)


class TestRefineAndDiagnose:
    def test_single_level_empty_diagnostics(self):
        grid = TimeGrid.arithmetic(1 / 8, 1 / 8, 8)
        opts = CalibrationOptions(particles=500, grid=grid, seed=31)
        ests, dists = refine_and_diagnose(
            BrownianDrift(0, 1), PointInitial(0.0), Exponential(1.0), grid, 1, opts
        )
        assert len(ests) == 1 and dists == []

    def test_refinement_halves_dt(self):
        grid = TimeGrid.arithmetic(1 / 8, 1 / 8, 8)
        opts = CalibrationOptions(particles=500, grid=grid, seed=32)
        ests, dists = refine_and_diagnose(
            BrownianDrift(0, 1), PointInitial(0.0), Exponential(1.0), grid, 3, opts
        )
        assert [len(e.curve.grid) for e in ests] == [8, 16, 32]
        assert ests[1].curve.grid.dt == pytest.approx(1 / 16)
        assert len(dists) == 2
        assert all(d >= 0 for d in dists)

    def test_deterministic(self):
        grid = TimeGrid.arithmetic(1 / 8, 1 / 8, 8)
        opts = CalibrationOptions(particles=400, grid=grid, seed=33)
        a = refine_and_diagnose(BrownianDrift(0, 1), PointInitial(0.0), Exponential(1.0), grid, 2, opts)
        b = refine_and_diagnose(BrownianDrift(0, 1), PointInitial(0.0), Exponential(1.0), grid, 2, opts)
        assert np.array_equal(a[0][1].curve.values, b[0][1].curve.values)
        assert a[1] == b[1]

    def test_needs_dyadic_grid(self):
        grid = TimeGrid.arithmetic(0.5, 0.25, 4)
        opts = CalibrationOptions(particles=100, grid=grid, seed=34)
        with pytest.raises(CalibrationError):
            refine_and_diagnose(BrownianDrift(0, 1), PointInitial(0.0), Exponential(1.0), grid, 2, opts)

    def test_diagnostic_stays_small_on_benchmark(self):
        # regression guard: refining a stable problem moves the epigraph
        # distance on the compactified square by far less than 0.2
        from ifpt.targets import LevyHittingLaw

        grid = TimeGrid.arithmetic(1 / 128, 1 / 128, 256)
        opts = CalibrationOptions(particles=30_000, grid=grid, seed=35)
        _, dists = refine_and_diagnose(
            BrownianDrift(0, 1), PointInitial(0.0), LevyHittingLaw(1.0), grid, 3, opts
        )
        assert len(dists) == 2
        assert all(d <= 0.2 for d in dists), dists


class TestDiagnostics:
    def test_levy_small_jump_budget_reported(self):
        model = Levy(
            LevyTriple(0.0, 0.0, LevyMeasureSpec((FiniteAtoms(((0.5, 1.0), (0.005, 3.0))),))),
            "discard",
            0.01,
        )
        est = calibrate(
            model,
            PointInitial(0.0),
            Exponential(1.0),
            CalibrationOptions(particles=200, grid=small_grid(), seed=40),
        )
        d = est.diagnostics
        assert d["small_jump_mode"] == "discard"
        assert d["small_jump_variance"] == pytest.approx(3.0 * 0.005**2)
        assert d["doob_step_budget_times_C2"] == pytest.approx((1 / 16) * 3.0 * 0.005**2)
