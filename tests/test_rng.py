"""Properties of the id-keyed step streams and the Poisson inversion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from ifpt.processes import _poisson_cdf, poisson_jumps
from ifpt.rng import StreamKeys, keyed_uniforms

seeds = st.integers(0, 2**64 - 1)


def poisson_counts(lam, u):
    """Full-width reference: Poisson(lam) counts by inverse CDF of uniforms u in (0, 1)."""
    return np.searchsorted(_poisson_cdf(lam), u)


@st.composite
def id_subsets(draw):
    """(n, ascending subset of range(n))."""
    n = draw(st.integers(1, 300))
    mask = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return n, np.flatnonzero(mask)


class TestKeyedDraws:
    @settings(max_examples=60)
    @given(
        seed=seeds,
        step=st.integers(0, 2**20),
        slot=st.integers(0, 3),
        row=st.integers(0, 7),
        sub=id_subsets(),
    )
    def test_subset_draw_equals_full_draw_at_subset(self, seed, step, slot, row, sub):
        n, ids = sub
        full = StreamKeys(seed=seed, step_index=step, ids=np.arange(n), n_total=n)
        part = StreamKeys(seed=seed, step_index=step, ids=ids, n_total=n)
        assert np.array_equal(part.uniforms(slot, row), full.uniforms(slot, row)[ids])
        assert np.array_equal(part.normals(slot, row), full.normals(slot, row)[ids])

    def test_normal_block_rows_are_keyed_rows(self):
        keys = StreamKeys(seed=5, step_index=9, ids=np.array([0, 3, 7, 40]), n_total=41)
        block = keys.normal_block(3, slot=1)
        for j in range(3):
            assert np.array_equal(block[j], keys.normals(slot=1, row=j))

    def test_keys_separate_streams(self):
        ids = np.arange(1000)
        base = StreamKeys(seed=1, step_index=2, ids=ids, n_total=1000).uniforms(slot=0, row=0)
        for keys, slot, row in [
            (StreamKeys(seed=2, step_index=2, ids=ids, n_total=1000), 0, 0),
            (StreamKeys(seed=1, step_index=3, ids=ids, n_total=1000), 0, 0),
            (StreamKeys(seed=1, step_index=2, ids=ids, n_total=1000), 1, 0),
            (StreamKeys(seed=1, step_index=2, ids=ids, n_total=1000), 0, 1),
        ]:
            assert not np.any(keys.uniforms(slot, row) == base)

    def test_uniforms_pass_ks(self):
        n = 10**6
        u = StreamKeys(seed=20261017, step_index=3, ids=np.arange(n), n_total=n).uniforms(slot=1)
        assert 0.0 < u.min() and u.max() < 1.0
        assert stats.kstest(u, "uniform").pvalue > 1e-3

    def test_normals_pass_ks(self):
        n = 10**6
        z = StreamKeys(seed=20261018, step_index=0, ids=np.arange(n), n_total=n).normals()
        assert np.all(np.isfinite(z))
        assert stats.kstest(z, "norm").pvalue > 1e-3


class TestPoissonCounts:
    @pytest.mark.parametrize("lam", [0.03, 1.0, 30.0])
    def test_mean_and_variance(self, lam):
        n = 10**6
        counts = poisson_counts(lam, keyed_uniforms(0xC0FFEE, np.arange(n)))
        # five standard errors of the sample mean and variance
        assert abs(counts.mean() - lam) <= 5 * math.sqrt(lam / n)
        assert abs(counts.var() - lam) <= 5 * math.sqrt((lam + 2 * lam**2) / n)

    @pytest.mark.parametrize("lam", [0.03, 1.0, 30.0, 400.0])
    def test_no_uniform_indexes_past_the_table(self, lam):
        table = _poisson_cdf(lam)
        assert table[-1] == 1.0
        u = np.array([np.nextafter(0.0, 1.0), 2.0**-53, 0.5, 1.0 - 2.0**-53, np.nextafter(1.0, 0.0)])
        assert np.all(poisson_counts(lam, u) < len(table))

    def test_inversion_by_hand(self):
        # P(N = 0) = e^-1 for lam = 1: uniforms on either side of it
        p0 = math.exp(-1.0)
        assert list(poisson_counts(1.0, np.array([p0 * 0.999, p0 * 1.001]))) == [0, 1]

    @settings(max_examples=100)
    @given(lam=st.floats(1e-4, 50.0), key=seeds, n=st.integers(0, 2000))
    def test_jump_only_counts_match_the_full_inversion(self, lam, key, n):
        cdf = _poisson_cdf(lam)
        # the keyed uniforms, plus both sides of the zero-count edge
        u = np.concatenate([keyed_uniforms(key, np.arange(n)), [cdf[0], np.nextafter(cdf[0], 1.0)]])
        jumping, counts = poisson_jumps(lam, u)
        full = poisson_counts(lam, u)
        assert np.array_equal(jumping, np.flatnonzero(full))
        assert np.array_equal(counts, full[jumping])
        assert full[-2] == 0 and full[-1] == 1
