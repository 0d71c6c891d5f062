import math
import warnings

import numpy as np
import pytest

from epigraph import epigraph_hausdorff, raster_rows
from ifpt.boundary import BoundaryCurve, BoundaryEstimate, GridError, TimeGrid
from ifpt.config import ConfigError, parse_config

INF = math.inf


def curve(t_start, dt, values):
    return BoundaryCurve(TimeGrid(t_start, dt, len(values)), values)


# (t_start, dt, steps) that no grid may take: dt <= 0, no step, 0 inside the
# first cell, a step below the spacing of doubles, an overflowing last point
# or step count
BAD_GRIDS = {
    "dt-zero": (1.0, 0.0, 4),
    "dt-negative": (1.0, -1.0, 4),
    "no-steps": (1.0, 1.0, 0),
    "t_start-below-dt": (0.001, 0.01, 4),
    "repeated-point": (1e17, 1.0, 4),
    "last-point-overflows": (1e308, 1e308, 3),
    "steps-past-float-range": (1.0, 1.0, 10**400),
}


class TestTimeGrid:
    def test_points(self):
        g = TimeGrid(0.5, 0.25, 3)
        assert list(g.points) == [0.5, 0.75, 1.0]
        assert len(g) == 3
        # the first step, from 0 to t_start, is the longest here
        assert g.max_step == 0.5
        assert TimeGrid(0.25, 0.25, 3).max_step == 0.25

    def test_rejects_zero_and_negative(self):
        with pytest.raises(GridError, match="dt"):
            TimeGrid(1.0, 0.0, 4)
        with pytest.raises(GridError, match="dt"):
            TimeGrid(1.0, -1.0, 4)

    def test_rejects_non_increasing(self):
        # 1e17 + 1 rounds back to 1e17
        with pytest.raises(GridError, match="increasing"):
            TimeGrid(1e17, 1.0, 4)

    def test_arithmetic_requires_t_start_at_least_dt(self):
        with pytest.raises(GridError, match="t_start"):
            TimeGrid(0.001, 0.01, 4)

    @pytest.mark.parametrize("spec", BAD_GRIDS.values(), ids=BAD_GRIDS.keys())
    def test_bad_grid_fails_without_a_warning(self, spec):
        cfg = {"grid": dict(zip(("t_start", "dt", "steps"), spec))}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GridError):
                TimeGrid(*spec)
            with pytest.raises(ConfigError) as exc:
                parse_config(cfg)
        assert exc.value.path.split(".")[0] == "grid"

    def test_matches_within_rtol(self):
        g = TimeGrid(1 / 512, 1 / 512, 1024)
        assert g.matches(g.points * (1 + 1e-14))
        assert not g.matches(g.points + 0.4 / 512)
        assert not g.matches(g.points[:-1])
        for bad in (math.nan, math.inf):
            ts = g.points.copy()
            ts[777] = bad
            assert not g.matches(ts)


class TestEvaluate:
    def test_off_grid_is_fill(self):
        assert curve(1.0, 1.0, [0.5]).off_grid_value == INF

    def test_degenerate_all_minus_inf(self):
        c = curve(0.5, 0.5, [-INF, -INF])
        assert list(c.values) == [-INF, -INF]
        assert c.off_grid_value == INF


def random_grid_curve(rng, values):
    dt = rng.uniform(0.05, 1.25)
    return curve(rng.uniform(dt, 5.0), dt, values)


def brute_force_hausdorff(a, b, res):
    """Oracle: enumerate every lattice point of both epigraphs, all pairs."""

    def points(c):
        rows = raster_rows(c, res)
        h = 1.0 / (res - 1)
        return np.array([(i * h, j * h) for i in range(res) for j in range(rows[i], res)])

    pa, pb = points(a), points(b)

    def directed(p, q):
        d = np.sqrt(((p[:, None, :] - q[None, :, :]) ** 2).sum(-1))
        return d.min(axis=1).max()

    return max(directed(pa, pb), directed(pb, pa))


class TestEpigraphHausdorff:
    def test_identical_curves(self):
        c = curve(0.5, 0.5, [0.2, 0.4])
        assert epigraph_hausdorff(c, c, 32) == 0.0

    def test_equal_zero_curves(self):
        a = curve(0.5, 0.5, [0.0, 0.0])
        b = curve(0.5, 0.5, [0.0, 0.0])
        assert epigraph_hausdorff(a, b, 32) == 0.0

    def test_zero_vs_top_edge(self):
        # value derived from the brute-force lattice oracle: the gap between
        # the half-plane above phi(0) in the t=1 column and the top edge
        a = curve(1.0, 1.0, [0.0])
        b = curve(1.0, 1.0, [INF])
        d = epigraph_hausdorff(a, b, 64)
        assert d == pytest.approx(31.0 / 63.0)
        assert d == pytest.approx(brute_force_hausdorff(a, b, 64))

    def test_matches_brute_force_on_random_curves(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            vals = rng.uniform(-3, 3, n)
            vals[rng.random(n) < 0.2] = INF
            vals[rng.random(n) < 0.2] = -INF
            a = random_grid_curve(rng, vals)
            b = random_grid_curve(rng, rng.uniform(-3, 3, int(rng.integers(1, 6))))
            assert epigraph_hausdorff(a, b, 16) == pytest.approx(
                brute_force_hausdorff(a, b, 16), abs=1e-12
            )

    def test_metric_axioms(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            cs = []
            for _ in range(3):
                cs.append(random_grid_curve(rng, rng.uniform(-2, 2, int(rng.integers(1, 5)))))
            dab = epigraph_hausdorff(cs[0], cs[1], 24)
            dba = epigraph_hausdorff(cs[1], cs[0], 24)
            dbc = epigraph_hausdorff(cs[1], cs[2], 24)
            dac = epigraph_hausdorff(cs[0], cs[2], 24)
            assert dab == dba
            assert epigraph_hausdorff(cs[0], cs[0], 24) == 0.0
            assert dac <= dab + dbc + 1e-12


class TestBoundaryCurveInvariants:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            BoundaryCurve(TimeGrid(1.0, 1.0, 2), [0.0])

    def test_values_must_lie_in_domain(self):
        g = TimeGrid(1.0, 1.0, 1)
        for bad in (2.0, -0.5, math.nan):
            with pytest.raises(ValueError):
                BoundaryCurve(g, [bad], domain_bounds=(0.0, 1.0))
        assert BoundaryCurve(g, [0.5], domain_bounds=(0.0, 1.0)).off_grid_value == 1.0

    def test_eval_off_grid_dominates_neighbors(self):
        # lower semicontinuity: the fill is the domain maximum
        c = curve(0.5, 0.5, [0.2, 0.4])
        assert c.off_grid_value >= max(c.values)


class TestBoundaryEstimateInvariants:
    def test_target_must_be_non_increasing(self):
        g = TimeGrid(1.0, 1.0, 2)
        c = BoundaryCurve(g, [0.0, 0.0])
        with pytest.raises(ValueError):
            BoundaryEstimate(c, [0.5, 0.7], [0.5, 0.7], particles=10, seed=0)

    def test_alignment(self):
        g = TimeGrid(1.0, 1.0, 2)
        c = BoundaryCurve(g, [0.0, 0.0])
        with pytest.raises(ValueError):
            BoundaryEstimate(c, [1.0], [1.0], particles=10, seed=0)
