import math

import numpy as np
import pytest
from scipy.special import ndtr

from ifpt.boundary import BoundaryCurve, TimeGrid
from ifpt.calibrate import CalibrationOptions, PointInitial, calibrate
from ifpt.processes import BrownianDrift
from ifpt.rng import generator
from ifpt.targets import Exponential, PointMass
from ifpt.verify import (
    FptSample,
    GridMismatchError,
    analytic_bm_level_cdf,
    analytic_bm_linear_cdf,
    bm_linear_crossing_mc,
    compare_boundaries,
    forward_fpt,
    ks_statistic,
)

INF = math.inf

# brute-force path oracle at spec scale (1e6 paths, dt=1e-4), recorded by
# scripts/run_linear_oracle.py; the analytic closed form must sit within
# 0.005 of every entry before it is trusted
LINEAR_ORACLE_MC = {
    (1.0, 1.0, 1.0): 0.088997,
    (1.0, 0.5, 0.25): 0.026156,
    (1.0, 0.5, 0.5): 0.090103,
    (1.0, 0.5, 1.0): 0.178249,
    (1.0, 0.5, 1.5): 0.228409,
    (1.0, 0.5, 2.0): 0.260044,
}


def flat_curve(level, grid):
    return BoundaryCurve(grid, np.full(len(grid), level))


class TestForwardFpt:
    def test_minus_inf_first_point_absorbs_everything(self):
        grid = TimeGrid(np.array([0.25, 0.5]))
        curve = BoundaryCurve(grid, [-INF, 0.0])
        s = forward_fpt(BrownianDrift(0, 1), PointInitial(0.0), curve, 50, 1)
        assert np.all(s.times == 0.25)

    def test_plus_inf_never_crosses(self):
        grid = TimeGrid(np.array([0.25, 0.5]))
        s = forward_fpt(BrownianDrift(0, 1), PointInitial(0.0), flat_curve(INF, grid), 50, 2)
        assert np.all(np.isinf(s.times))
        assert s.censored_fraction == 1.0

    def test_level_boundary_with_bias_corrected_oracle(self):
        # discrete monitoring at step dt underestimates the continuum
        # crossing law; the continuity correction shifts the level by
        # 0.5826 sqrt(dt) (the stated +-0.006 budget around the raw
        # continuum value is unattainable at dt = 1/512, where the
        # monitoring bias alone is about 0.014)
        grid = TimeGrid.arithmetic(1 / 512, 1 / 512, 1024)
        s = forward_fpt(BrownianDrift(0, 1), PointInitial(0.0), flat_curve(1.0, grid), 100_000, 3)
        p_hat = float((s.times <= 1.0).mean())
        corrected = 2.0 * ndtr(-(1.0 + 0.5826 * math.sqrt(1 / 512)))
        assert p_hat == pytest.approx(corrected, abs=0.006)
        assert p_hat < analytic_bm_level_cdf(1.0, 1.0)

    def test_times_are_grid_points_or_inf(self):
        grid = TimeGrid.arithmetic(1 / 8, 1 / 8, 16)
        s = forward_fpt(BrownianDrift(0, 1), PointInitial(0.0), flat_curve(0.5, grid), 500, 4)
        finite = s.times[np.isfinite(s.times)]
        assert np.all(np.isin(finite, grid.points))


class TestInternalConsistency:
    def test_forward_with_calibration_seed_reproduces_survival(self):
        grid = TimeGrid.arithmetic(1 / 32, 1 / 32, 64)
        opts = CalibrationOptions(particles=4000, grid=grid, seed=99)
        est = calibrate(BrownianDrift(0, 1), PointInitial(0.0), Exponential(1.0), opts)
        s = forward_fpt(BrownianDrift(0, 1), PointInitial(0.0), est.curve, 4000, 99)
        alive_frac = np.array([(s.times > t).mean() for t in grid.points])
        assert np.array_equal(alive_frac, est.survival_achieved)


class TestKsStatistic:
    def test_all_censored_vs_point_mass(self):
        grid = TimeGrid.arithmetic(1.0, 1.0, 2)
        s = FptSample(times=np.full(100, INF), grid=grid, n=100)
        assert ks_statistic(s, PointMass(1.0))[0] == 1.0

    def test_snapped_target_sample_within_dkw(self):
        # draws from the target snapped up to the grid: DKW plus one cell
        n = 100_000
        grid = TimeGrid.arithmetic(1 / 128, 1 / 128, 512)
        target = Exponential(1.0)
        draws = -np.log1p(-generator(5, 0x33).random(n))
        idx = np.searchsorted(grid.points, draws, side="left")
        snapped = np.where(idx < len(grid), grid.points[np.minimum(idx, len(grid) - 1)], INF)
        s = FptSample(times=snapped, grid=grid, n=n)
        cell = float(np.max(np.abs(np.diff(target.survival(grid.points)))))
        assert ks_statistic(s, target)[0] <= 1.63 / math.sqrt(n) + cell

    def test_witness_is_first_time_attaining_the_sup(self):
        # half the paths cross at t = 2, against a point mass at 3: the gap
        # is 0, 1/2, 1/2 at t = 1, 2, 3
        grid = TimeGrid.arithmetic(1.0, 1.0, 3)
        s = FptSample(times=np.repeat([2.0, INF], 50), grid=grid, n=100)
        assert ks_statistic(s, PointMass(3.0)) == (0.5, 2.0)

    def test_empty_sample_rejected(self):
        grid = TimeGrid(np.array([1.0]))
        s = FptSample(times=np.array([]), grid=grid, n=0)
        with pytest.raises(ValueError):
            ks_statistic(s, Exponential(1.0))


def estimate_from_values(values, grid, n=10, seed=0):
    from ifpt.boundary import BoundaryEstimate

    k = len(grid)
    return BoundaryEstimate(
        BoundaryCurve(grid, values), np.linspace(1, 0.5, k), np.linspace(1, 0.5, k), n, seed
    )


class TestCompareBoundaries:
    def test_equal_holds_with_zero_slack(self):
        grid = TimeGrid(np.array([0.5, 1.0]))
        a = estimate_from_values([0.1, 0.2], grid)
        assert compare_boundaries(a, a, 0.0).holds

    def test_minus_inf_right_fails_everywhere(self):
        grid = TimeGrid(np.array([0.5, 1.0]))
        a = estimate_from_values([0.0, 0.0], grid)
        b = estimate_from_values([-INF, -INF], grid)
        rep = compare_boundaries(a, b, 0.0)
        assert not rep.holds
        assert rep.worst_violation == INF

    def test_slack_allows_small_excess(self):
        grid = TimeGrid(np.array([0.5, 1.0]))
        a = estimate_from_values([0.3, 0.3], grid)
        b = estimate_from_values([0.25, 0.25], grid)
        assert not compare_boundaries(a, b, 0.0).holds
        assert compare_boundaries(a, b, 0.1).holds

    def test_nan_or_negative_slack_rejected(self):
        # a NaN slack makes every margin NaN, which used to read as "holds"
        grid = TimeGrid(np.array([0.5, 1.0]))
        a = estimate_from_values([0.3, 0.3], grid)
        b = estimate_from_values([0.25, 0.25], grid)
        for slack in (math.nan, -0.1):
            with pytest.raises(ValueError, match="slack"):
                compare_boundaries(a, b, slack)

    def test_infinite_pairs_compare_equal(self):
        grid = TimeGrid(np.array([0.5, 1.0]))
        a = estimate_from_values([INF, -INF], grid)
        assert compare_boundaries(a, a, 0.0).holds

    def test_grid_mismatch_raises(self):
        a = estimate_from_values([0.0], TimeGrid(np.array([0.5])))
        b = estimate_from_values([0.0], TimeGrid(np.array([0.6])))
        with pytest.raises(GridMismatchError):
            compare_boundaries(a, b, 0.0)


class TestAnalyticOracles:
    def test_level_cdf_values(self):
        assert analytic_bm_level_cdf(1.0, 1.0) == pytest.approx(0.3173105, abs=1e-7)
        assert analytic_bm_level_cdf(1.0, 1e-6) < 1e-12
        assert analytic_bm_level_cdf(1.0, 1e6) == pytest.approx(
            2 * ndtr(-0.001), abs=1e-12
        )

    def test_linear_reduces_to_level_at_gamma_zero(self):
        for t in (0.3, 1.0, 5.0):
            assert analytic_bm_linear_cdf(1.0, 0.0, t) == pytest.approx(
                analytic_bm_level_cdf(1.0, t), abs=1e-14
            )

    def test_linear_vanishes_at_zero_time(self):
        assert analytic_bm_linear_cdf(1.0, 1.0, 1e-8) < 1e-12

    def test_linear_formula_against_frozen_path_oracle(self):
        for (c, g, t), mc in LINEAR_ORACLE_MC.items():
            assert abs(analytic_bm_linear_cdf(c, g, t) - mc) <= 0.005, (c, g, t)

    def test_mc_oracle_consistent_at_small_scale(self):
        got = bm_linear_crossing_mc(1.0, 0.5, [0.5, 1.0], n_paths=50_000, dt=1e-3, seed=17)
        for g, (cc, gg, tt) in zip(got, [(1.0, 0.5, 0.5), (1.0, 0.5, 1.0)]):
            assert abs(g - LINEAR_ORACLE_MC[(cc, gg, tt)]) < 0.02


@pytest.mark.slow
def test_linear_oracle_full_scale_regeneration():
    """Re-derives the frozen oracle values at spec scale (minutes)."""
    ts = [0.25, 0.5, 1.0, 1.5, 2.0]
    mc = bm_linear_crossing_mc(1.0, 0.5, ts, n_paths=1_000_000, dt=1e-4, seed=20260809)
    for t, m in zip(ts, mc):
        assert abs(m - LINEAR_ORACLE_MC[(1.0, 0.5, t)]) < 2e-3
        assert abs(analytic_bm_linear_cdf(1.0, 0.5, t) - m) <= 0.005
