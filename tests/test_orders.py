import math

import numpy as np
import pytest

from ifpt.boundary import TimeGrid
from ifpt.calibrate import _select_kills
from ifpt.orders import check_hazard_order
from ifpt.targets import Exponential, PointMass


def kept(x, count):
    """The entries of x, sorted, that the solver's kill keeps when it keeps ``count``."""
    _, killed = _select_kills(x, count)
    return np.sort(np.delete(x, killed))


def lower_tail(x, alpha):
    return kept(x, math.ceil(alpha * len(x)))


def brute_cdf_dominates(a, b):
    """Oracle: direct counting on the merged support, no library calls."""
    for c in sorted(set(a) | set(b)):
        fa = sum(1 for x in a if x <= c) / len(a)
        fb = sum(1 for x in b if x <= c) / len(b)
        if fa < fb - 1e-12:
            return False
    return True


class TestTruncate:
    """The solver's kill, read as truncation of a sample to its lower alpha-tail."""

    def test_lower_half(self):
        assert list(lower_tail(np.array([3.0, 1.0, 4.0, 2.0]), 0.5)) == [1.0, 2.0]

    def test_alpha_one_identity(self):
        x = np.array([3.0, 1.0, 4.0, 1.5, 5.0])
        assert np.array_equal(lower_tail(x, 1.0), np.sort(x))

    def test_truncation_dominates_original(self):
        # conditioning on a lower tail makes the law stochastically smaller
        rng = np.random.default_rng(1)
        for _ in range(100):
            x = rng.normal(size=int(rng.integers(1, 30)))
            assert brute_cdf_dominates(lower_tail(x, float(rng.uniform(0.05, 1.0))), x)


class TestHazardOrder:
    def test_exp_rates(self):
        g = TimeGrid(0.1, 0.1, 30)
        assert check_hazard_order(Exponential(2.0), Exponential(1.0), g).holds
        assert check_hazard_order(Exponential(1.0), Exponential(1.0), g).holds
        r = check_hazard_order(Exponential(1.0), Exponential(2.0), g)
        assert not r.holds
        assert r.worst_violation > 0

    def test_vanishing_survival_errors(self):
        g = TimeGrid(0.5, 0.5, 4)
        with pytest.raises(ValueError):
            check_hazard_order(Exponential(1.0), PointMass(1.0), g)


def random_dominating_pair(rng):
    """Tie-free pair of samples with a stochastically smaller than b."""
    n = int(rng.integers(2, 40))
    b = rng.normal(size=n) * rng.uniform(0.5, 2.0) + rng.uniform(-1, 1)
    a = b - rng.exponential(0.7, size=n)
    return a, b


class TestTruncationPreservesOrder:
    def test_order_preserved_randomized(self):
        # the quantile-truncation order lemma, applied by the solver's kill
        rng = np.random.default_rng(3)
        for _ in range(300):
            a, b = random_dominating_pair(rng)
            a1 = float(rng.uniform(0.02, 1.0))
            a2 = float(rng.uniform(a1, 1.0))
            assert brute_cdf_dominates(lower_tail(a, a1), lower_tail(b, a2))

    def test_unequal_sizes_with_attained_alpha(self):
        # when alpha1 is exactly attained the conclusion holds across sizes
        rng = np.random.default_rng(4)
        for _ in range(100):
            n1 = int(rng.integers(2, 25))
            b = rng.normal(size=int(rng.integers(2, 25))) + 1.0
            # quantile coupling: a sits below b's quantile function
            u = (np.arange(1, n1 + 1)) / n1
            a = np.quantile(b, u, method="inverted_cdf") - rng.exponential(0.5, n1)
            if not brute_cdf_dominates(a, b):
                continue
            k1 = int(rng.integers(1, n1 + 1))
            a2 = float(rng.uniform(k1 / n1, 1.0))
            assert brute_cdf_dominates(kept(a, k1), lower_tail(b, a2))
