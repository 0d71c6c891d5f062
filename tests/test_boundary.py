import math

import numpy as np
import pytest

from ifpt.boundary import (
    BoundaryCurve,
    BoundaryEstimate,
    GridError,
    TimeGrid,
    _raster_rows,
    epigraph_hausdorff,
)

INF = math.inf


def curve(points, values):
    return BoundaryCurve(TimeGrid(np.asarray(points, dtype=float)), values)


class TestTimeGrid:
    def test_rejects_zero_and_negative(self):
        with pytest.raises(GridError):
            TimeGrid(np.array([0.0, 1.0]))
        with pytest.raises(GridError):
            TimeGrid(np.array([-1.0, 1.0]))

    def test_rejects_non_increasing(self):
        with pytest.raises(GridError):
            TimeGrid(np.array([1.0, 1.0]))
        with pytest.raises(GridError):
            TimeGrid(np.array([2.0, 1.0]))

    def test_arithmetic_lookup_snaps(self):
        g = TimeGrid.arithmetic(1 / 512, 1 / 512, 1024)
        t = g.points[777]
        assert g.lookup(t) == 777
        assert g.lookup(t + t * 1e-14) == 777
        assert g.lookup(t + 0.4 / 512) is None
        assert g.lookup(0.0) is None
        assert g.lookup(5.0) is None

    def test_explicit_lookup(self):
        g = TimeGrid(np.array([0.5, 1.3, 2.0]))
        assert g.lookup(1.3) == 1
        assert g.lookup(1.3 * (1 + 1e-13)) == 1
        assert g.lookup(1.0) is None

    def test_arithmetic_requires_t_start_at_least_dt(self):
        with pytest.raises(GridError):
            TimeGrid.arithmetic(0.001, 0.01, 4)


class TestEvaluate:
    def test_lookup_on_grid(self):
        c = curve([1.0], [0.5])
        assert c(1.0) == 0.5

    def test_off_grid_is_fill(self):
        c = curve([1.0], [0.5])
        assert c(0.7) == INF

    def test_degenerate_all_minus_inf(self):
        c = curve([0.5, 1.0], [-INF, -INF])
        assert c(0.5) == -INF
        assert c(1.0) == -INF

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            curve([1.0], [0.0])(-0.1)


def brute_force_hausdorff(a, b, res):
    """Oracle: enumerate every lattice point of both epigraphs, all pairs."""

    def points(c):
        rows = _raster_rows(c, res)
        h = 1.0 / (res - 1)
        return np.array([(i * h, j * h) for i in range(res) for j in range(rows[i], res)])

    pa, pb = points(a), points(b)

    def directed(p, q):
        d = np.sqrt(((p[:, None, :] - q[None, :, :]) ** 2).sum(-1))
        return d.min(axis=1).max()

    return max(directed(pa, pb), directed(pb, pa))


class TestEpigraphHausdorff:
    def test_identical_curves(self):
        c = curve([0.5, 1.0], [0.2, 0.4])
        assert epigraph_hausdorff(c, c, 32) == 0.0

    def test_equal_zero_curves(self):
        a = curve([0.5, 1.0], [0.0, 0.0])
        b = curve([0.5, 1.0], [0.0, 0.0])
        assert epigraph_hausdorff(a, b, 32) == 0.0

    def test_zero_vs_top_edge(self):
        # value derived from the brute-force lattice oracle: the gap between
        # the half-plane above phi(0) in the t=1 column and the top edge
        a = curve([1.0], [0.0])
        b = curve([1.0], [INF])
        d = epigraph_hausdorff(a, b, 64)
        assert d == pytest.approx(31.0 / 63.0)
        assert d == pytest.approx(brute_force_hausdorff(a, b, 64))

    def test_matches_brute_force_on_random_curves(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            pts = np.sort(rng.uniform(0.05, 5.0, n)) + np.arange(n) * 1e-3
            vals = rng.uniform(-3, 3, n)
            vals[rng.random(n) < 0.2] = INF
            vals[rng.random(n) < 0.2] = -INF
            a = curve(pts, vals)
            m = int(rng.integers(1, 6))
            pts2 = np.sort(rng.uniform(0.05, 5.0, m)) + np.arange(m) * 1e-3
            b = curve(pts2, rng.uniform(-3, 3, m))
            assert epigraph_hausdorff(a, b, 16) == pytest.approx(
                brute_force_hausdorff(a, b, 16), abs=1e-12
            )

    def test_metric_axioms(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            cs = []
            for _ in range(3):
                n = int(rng.integers(1, 5))
                pts = np.sort(rng.uniform(0.05, 4.0, n)) + np.arange(n) * 1e-3
                cs.append(curve(pts, rng.uniform(-2, 2, n)))
            dab = epigraph_hausdorff(cs[0], cs[1], 24)
            dba = epigraph_hausdorff(cs[1], cs[0], 24)
            dbc = epigraph_hausdorff(cs[1], cs[2], 24)
            dac = epigraph_hausdorff(cs[0], cs[2], 24)
            assert dab == dba
            assert epigraph_hausdorff(cs[0], cs[0], 24) == 0.0
            assert dac <= dab + dbc + 1e-12

    def test_resolution_floor(self):
        c = curve([1.0], [0.0])
        with pytest.raises(ValueError):
            epigraph_hausdorff(c, c, 1)


class TestBoundaryCurveInvariants:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            BoundaryCurve(TimeGrid(np.array([1.0, 2.0])), [0.0])

    def test_values_must_lie_in_domain(self):
        g = TimeGrid(np.array([1.0]))
        with pytest.raises(ValueError):
            BoundaryCurve(g, [2.0], domain_bounds=(0.0, 1.0))
        assert BoundaryCurve(g, [0.5], domain_bounds=(0.0, 1.0))(0.5) == 1.0

    def test_eval_off_grid_dominates_neighbors(self):
        # lower semicontinuity: the fill is the domain maximum
        c = curve([0.5, 1.0], [0.2, 0.4])
        mid = c(0.75)
        assert mid >= max(c.values)


class TestBoundaryEstimateInvariants:
    def test_target_must_be_non_increasing(self):
        g = TimeGrid(np.array([1.0, 2.0]))
        c = BoundaryCurve(g, [0.0, 0.0])
        with pytest.raises(ValueError):
            BoundaryEstimate(c, [0.5, 0.7], [0.5, 0.7], particles=10, seed=0)

    def test_alignment(self):
        g = TimeGrid(np.array([1.0, 2.0]))
        c = BoundaryCurve(g, [0.0, 0.0])
        with pytest.raises(ValueError):
            BoundaryEstimate(c, [1.0], [1.0], particles=10, seed=0)
