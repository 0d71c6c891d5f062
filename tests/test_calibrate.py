import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epigraph import refine
from ifpt.boundary import TimeGrid
from ifpt.calibrate import (
    CalibrationError,
    EmpiricalInitial,
    Ensemble,
    NormalInitial,
    PointInitial,
    UniformInitial,
    _select_kills,
    calibrate,
    round_half_up,
)
from ifpt.processes import (
    BrownianDrift,
    Constant,
    FiniteAtoms,
    IntervalDiffusion,
    Levy,
    OneSidedStable,
    StateSpaceError,
)
from ifpt.targets import Exponential, PointMass, TargetDistribution, Weibull
from ifpt.verify import compare_boundaries, forward_fpt

INF = math.inf

# models with additive increments: a particle's step does not depend on its
# position, so common random numbers preserve the order of two ensembles
ADDITIVE_MODELS = [
    BrownianDrift(0.3, 1.0),
    Levy(0.2, 0.5, (OneSidedStable("+", 0.7, 0.5, 1.0),), "gaussian", 0.05),
]


def select(positions, target_count):
    return _select_kills(np.asarray(positions, dtype=float), target_count)


class TestCalibrationStep:
    def test_order_statistics_by_hand(self):
        level, kill = select([0.1, 0.9, 0.4], 2)
        assert level == 0.9
        assert list(kill) == [1]

    def test_no_kill_when_target_reached(self):
        level, kill = select([0.1, 0.9, 0.4], 3)
        assert level == INF
        assert len(kill) == 0

    def test_target_zero_kills_all(self):
        # the level is the smallest position; calibrate reports the lower
        # end of the state space there instead
        level, kill = select([0.1, 0.9, 0.4], 0)
        assert level == 0.1
        assert list(kill) == [0, 1, 2]

    def test_only_alive_particles_count(self):
        ens = Ensemble(ids=np.arange(4), x=np.array([0.1, 0.9, 0.4, 0.2]))
        ens.remove(np.array([3]))
        level, kill = _select_kills(ens.x, 2)
        assert level == 0.9
        ens.remove(kill)
        # the survivors keep their ids and positions, in no particular order
        assert sorted(zip(ens.ids, ens.x)) == [(0, 0.1), (2, 0.4)]

    def test_tie_block_killed_together(self):
        level, kill = select([1.0, 1.0, 1.0, 0.5], 2)
        assert level == 1.0
        assert len(kill) == 3  # shortfall: the tied block dies together

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
                small_grid(),
                10,
                0,
            )


class TestSelectAndRemove:
    @settings(max_examples=200)
    @given(seed=st.integers(0, 2**32 - 1), a=st.integers(1, 5000), distinct=st.integers(1, 10**6), data=st.data())
    def test_selection_matches_partition(self, seed, a, distinct, data):
        # few distinct values give heavy ties; r kills from 1 to a
        x = np.random.default_rng(seed).integers(0, distinct, a).astype(float)
        m = a - data.draw(st.integers(1, a), label="r")
        level, kill = _select_kills(x, m)
        ref = np.partition(x, m)[m]
        assert level == ref
        assert np.array_equal(kill, np.flatnonzero(x >= ref))

    @settings(max_examples=100)
    @given(seed=st.integers(0, 2**32 - 1), a=st.integers(0, 300), kill_frac=st.floats(0.0, 1.0))
    def test_remove_keeps_surviving_pairs(self, seed, a, kill_frac):
        rng = np.random.default_rng(seed)
        ids = rng.permutation(a)
        x = rng.integers(0, 5, a).astype(float)
        idx = np.flatnonzero(rng.random(a) < kill_frac)
        survivors = np.setdiff1d(np.arange(a), idx)
        expected = sorted(zip(ids[survivors].tolist(), x[survivors].tolist()))
        ens = Ensemble(ids=ids.copy(), x=x.copy())
        ens.remove(idx)
        assert sorted(zip(ens.ids.tolist(), ens.x.tolist())) == expected


class TestRoundHalfUp:
    def test_half_goes_up(self):
        assert round_half_up(2.5) == 3
        assert round_half_up(2.4999999) == 2
        assert list(round_half_up(np.array([0.5, 1.5, 2.5]))) == [1, 2, 3]


def small_grid():
    return TimeGrid(1 / 16, 1 / 16, 32)


class TestCalibrate:
    def test_point_mass_gives_step_boundary(self):
        grid = TimeGrid(0.5, 0.5, 2)
        est = calibrate(
            BrownianDrift(0, 1),
            PointInitial(0.0),
            PointMass(1.0),
            grid,
            100,
            1,
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
            small_grid(),
            n,
            2,
        )
        m = round_half_up(n * est.survival_target)
        assert np.array_equal(np.rint(est.survival_achieved * n).astype(int), m)
        assert np.max(np.abs(est.survival_achieved - est.survival_target)) <= 1.0 / n

    def test_boundary_sentinels_match_counts(self):
        # -inf exactly where the rounded target count is zero, +inf exactly
        # where no kill occurred
        n = 500
        grid = TimeGrid(1 / 4, 1 / 4, 12)
        est = calibrate(
            BrownianDrift(0, 1),
            PointInitial(0.0),
            PointMass(2.0),
            grid,
            n,
            3,
        )
        m = round_half_up(n * est.survival_target)
        assert np.array_equal(est.curve.values == -INF, m == 0)
        assert np.array_equal(est.curve.values == INF, (m > 0))

    @pytest.mark.parametrize("n", [1, 0, -5])
    def test_needs_two_particles(self, n):
        with pytest.raises(ValueError, match="at least 2 particles"):
            calibrate(BrownianDrift(0, 1), PointInitial(0.0), Exponential(1.0), small_grid(), n, 0)

    def test_deterministic_bit_for_bit(self):
        a = calibrate(BrownianDrift(0, 1), PointInitial(0.0), Exponential(1.0), small_grid(), 5000, 11)
        b = calibrate(BrownianDrift(0, 1), PointInitial(0.0), Exponential(1.0), small_grid(), 5000, 11)
        assert np.array_equal(a.curve.values, b.curve.values)
        assert np.array_equal(a.survival_achieved, b.survival_achieved)

    def test_initial_sampler_state_space_checked(self):
        model = IntervalDiffusion(beta=Constant(0.0), sigma=Constant(1.0), L=0.0, R=1.0)
        with pytest.raises(StateSpaceError):
            calibrate(
                model,
                PointInitial(2.0),
                Exponential(1.0),
                small_grid(),
                100,
                4,
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
                small_grid(),
                100,
                5,
            )

    def test_atomic_jump_tie_shortfall_reported(self):
        # constant-jump Poisson from a point start produces heavy ties
        model = Levy(0.0, 0.0, (FiniteAtoms(((1.0, 2.0),)),), "discard", 0.5)
        n = 2000
        est = calibrate(
            model,
            PointInitial(0.0),
            Exponential(1.0),
            small_grid(),
            n,
            6,
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
            small_grid(),
            n,
            7,
        )
        assert est.survival_achieved[-1] >= 0.4

    @settings(max_examples=30)
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
        grid = TimeGrid(first * dt, dt, steps)
        est = calibrate(
            BrownianDrift(0, 1), PointInitial(0.0), target, grid, n, seed
        )
        assert est.diagnostics["tie_events"] == 0
        assert np.max(np.abs(est.survival_achieved - est.survival_target)) <= 1.0 / n


class TestInitialDistributions:
    def test_inverse_cdf_coupling_orders_samples(self):
        # same seed, stochastically ordered laws: pathwise ordered samples
        n = 10_000
        cases = [
            (PointInitial(0.0), PointInitial(0.5)),
            (UniformInitial(0.0, 1.0), UniformInitial(0.2, 1.2)),
            (NormalInitial(0.0, 1.0), NormalInitial(0.3, 1.0)),
            (EmpiricalInitial(np.array([0.0, 1.0, 2.0])), EmpiricalInitial(np.array([0.5, 1.0, 3.0]))),
        ]
        for lo, hi in cases:
            assert np.all(lo.sample(n, 9) <= hi.sample(n, 9))

    def test_normal_ppf_is_finite_on_the_keyed_range(self):
        # keyed uniforms lie in [2**-53, 1 - 2**-53], so ndtri never sees 0 or 1
        x = NormalInitial(0.0, 1.0).ppf(np.array([2.0**-53, 1.0 - 2.0**-53]))
        assert np.all(np.isfinite(x)) and x[0] == -x[1]

    def test_empirical_initial_quantiles(self):
        e = EmpiricalInitial(np.array([3.0, 1.0, 2.0]))
        assert list(e.ppf(np.array([0.0, 0.4, 0.99]))) == [1.0, 2.0, 3.0]

    def test_point_initial_sample(self):
        assert np.all(PointInitial(1.5).sample(10, 0) == 1.5)


class TestComparisonCoupling:
    def test_ordered_boundaries_small_scale(self):
        # hazard-ordered targets, st-ordered starts, common random numbers
        grid = TimeGrid(1 / 64, 1 / 64, 128)
        for seed in (21, 22, 23, 24, 25):
            b1 = calibrate(BrownianDrift(0, 1), PointInitial(0.0), Exponential(2.0), grid, 2000, seed)
            b2 = calibrate(BrownianDrift(0, 1), PointInitial(0.5), Exponential(1.0), grid, 2000, seed)
            rep = compare_boundaries(b1, b2, 0.0)
            assert rep.holds, (seed, rep)

    @settings(max_examples=40)
    @given(
        model=st.sampled_from(ADDITIVE_MODELS),
        x=st.floats(-1.0, 1.0),
        delta=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**64 - 1),
        n=st.integers(2, 300),
        steps=st.integers(1, 16),
        rate=st.floats(0.1, 10.0),
    )
    def test_ordered_starts_give_ordered_boundaries(self, model, x, delta, seed, n, steps, rate):
        # one target and one seed: every path from x + delta stays at or
        # above its coupled path from x, so the kill levels are ordered
        grid = TimeGrid(1 / 8, 1 / 8, steps)
        lower = calibrate(model, PointInitial(x), Exponential(rate), grid, n, seed)
        upper = calibrate(model, PointInitial(x + delta), Exponential(rate), grid, n, seed)
        rep = compare_boundaries(lower, upper, 0.0)
        assert rep.holds, rep


class TestReruns:
    @settings(max_examples=25)
    @given(
        model=st.sampled_from(
            ADDITIVE_MODELS + [IntervalDiffusion(beta=Constant(-0.5), sigma=Constant(1.0), L=-1.0, dt_substeps=2)]
        ),
        seed=st.integers(0, 2**64 - 1),
        n=st.integers(2, 300),
        dt_exp=st.integers(2, 6),
        steps=st.integers(1, 16),
    )
    def test_calibrate_and_forward_fpt_rerun_byte_identical(self, model, seed, n, dt_exp, steps):
        dt = 2.0**-dt_exp
        grid = TimeGrid(dt, dt, steps)
        runs = [calibrate(model, PointInitial(0.0), Exponential(1.0), grid, n, seed) for _ in range(2)]
        for field in ("survival_target", "survival_achieved"):
            assert getattr(runs[0], field).tobytes() == getattr(runs[1], field).tobytes()
        assert runs[0].curve.values.tobytes() == runs[1].curve.values.tobytes()
        assert runs[0].diagnostics == runs[1].diagnostics
        fpts = [forward_fpt(model, PointInitial(0.0), runs[0].curve, n, seed ^ 1) for _ in range(2)]
        assert fpts[0].times.tobytes() == fpts[1].times.tobytes()


class TestRefineAndDiagnose:
    def test_single_level_empty_diagnostics(self):
        ests, dists = refine(BrownianDrift(0, 1), PointInitial(0.0), Exponential(1.0), 1 / 8, 8, 1, 500, 31)
        assert len(ests) == 1 and dists == []

    def test_refinement_halves_dt(self):
        ests, dists = refine(BrownianDrift(0, 1), PointInitial(0.0), Exponential(1.0), 1 / 8, 8, 3, 500, 32)
        assert [len(e.curve.grid) for e in ests] == [8, 16, 32]
        assert ests[1].curve.grid.dt == pytest.approx(1 / 16)
        assert len(dists) == 2
        assert all(d >= 0 for d in dists)

    def test_deterministic(self):
        a = refine(BrownianDrift(0, 1), PointInitial(0.0), Exponential(1.0), 1 / 8, 8, 2, 400, 33)
        b = refine(BrownianDrift(0, 1), PointInitial(0.0), Exponential(1.0), 1 / 8, 8, 2, 400, 33)
        assert np.array_equal(a[0][1].curve.values, b[0][1].curve.values)
        assert a[1] == b[1]

    def test_diagnostic_stays_small_on_benchmark(self):
        # regression guard: refining a stable problem moves the epigraph
        # distance on the compactified square by far less than 0.2
        from ifpt.targets import LevyHittingLaw

        _, dists = refine(BrownianDrift(0, 1), PointInitial(0.0), LevyHittingLaw(1.0), 1 / 128, 256, 3, 30_000, 35)
        assert len(dists) == 2
        assert all(d <= 0.2 for d in dists), dists


class TestDiagnostics:
    def test_levy_small_jump_budget_reported(self):
        model = Levy(0.0, 0.0, (FiniteAtoms(((0.5, 1.0), (0.005, 3.0))),), "discard", 0.01)
        est = calibrate(
            model,
            PointInitial(0.0),
            Exponential(1.0),
            small_grid(),
            200,
            40,
        )
        d = est.diagnostics
        assert d["small_jump_mode"] == "discard"
        assert d["small_jump_variance"] == pytest.approx(3.0 * 0.005**2)
        assert d["doob_step_budget_times_C2"] == pytest.approx((1 / 16) * 3.0 * 0.005**2)
