"""Properties of the id-keyed step streams and the Poisson inversion."""

import hashlib
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from scipy.special import ndtr, ndtri, pdtr

from ifpt.processes import _poisson_cdf, _poisson_table_end, poisson_jumps
from ifpt.rng import (
    _CHUNK,
    _F_LOW,
    _F_RISE,
    _RATIO,
    _X,
    MAX_SIZE,
    ZIGGURAT_R,
    ZIGGURAT_V,
    StreamKeys,
    _mix,
    _ziggurat,
    keyed_normals,
    keyed_uniforms,
)

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


class TestPoissonTable:
    """The in-house Poisson table, held to scipy.special.pdtr."""

    @pytest.mark.parametrize("lam", [1e-4, 0.03, 0.1875, 1.0, 30.0, 400.0, 5000.0])
    def test_table_matches_scipy(self, lam):
        table = _poisson_cdf(lam)
        assert table[-1] == 1.0
        assert np.all(np.diff(table) >= 0)
        np.testing.assert_allclose(table, pdtr(np.arange(len(table)), lam), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("lam", [2.0**20, 2.0**40, 2.0**47 - 1])
    def test_table_end_takes_constant_time(self, lam):
        start = time.perf_counter()
        try:
            end = _poisson_table_end(lam)
        except ValueError as exc:
            assert "would pass" in str(exc)
        else:
            assert pdtr(end, lam) == 1.0
        assert time.perf_counter() - start < 1.0


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
        # the block resolves the slow draws of all its rows in one round per
        # attempt; at a permuted width across three chunks, every row takes
        # the wedge, the redraw and the tail
        n = 2 * _CHUNK + 4321
        ids = np.random.default_rng(12).permutation(10**6)[:n]
        keys = StreamKeys(seed=20261018, step_index=3, ids=ids, n_total=10**6)
        block = keys.normal_block(4, slot=0)
        for j in range(4):
            row = keys.normals(slot=0, row=j)
            assert row.tobytes() == block[j].tobytes()
            layer, x, reject = first_pass(keys._key(0, j), ids)
            kept = row == x
            assert np.any(reject & (layer > 0) & kept)
            assert np.any(reject & (layer > 0) & ~kept)
            assert np.any(reject & (layer == 0))

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


class TestNarrowIds:
    """Ids of any unsigned type hash to the words of the same int64 ids."""

    # where evolve's id type widens, and past a chunk of the hash
    @pytest.mark.parametrize("n", [255, 256, 65_536, 65_537])
    def test_draws_are_the_int64_ids_bit_for_bit(self, n):
        wide = np.arange(n)
        for dtype in (np.min_scalar_type(n - 1), np.uint64):
            narrow = StreamKeys(seed=20261022, step_index=7, ids=wide.astype(dtype), n_total=n)
            keys = StreamKeys(seed=20261022, step_index=7, ids=wide, n_total=n)
            assert narrow.uniforms(slot=1, row=2).tobytes() == keys.uniforms(slot=1, row=2).tobytes()
            assert narrow.normals().tobytes() == keys.normals().tobytes()
            assert narrow.normal_block(3, slot=1).tobytes() == keys.normal_block(3, slot=1).tobytes()

    def test_a_permuted_subset_across_a_chunk_boundary(self):
        # 2^15 + 700 uint16 ids in no order, with their slow-path draws
        ids = np.random.default_rng(3).permutation(65_536)[: _CHUNK + 700]
        for key in (0x51DE, 0xA11CE):
            assert keyed_normals(key, ids.astype(np.uint16)).tobytes() == keyed_normals(key, ids).tobytes()
            assert keyed_uniforms(key, ids.astype(np.uint16)).tobytes() == keyed_uniforms(key, ids).tobytes()

    @settings(max_examples=60)
    @given(seed=seeds, step=st.integers(0, 2**20), sub=id_subsets())
    def test_subsets(self, seed, step, sub):
        n, ids = sub
        narrow = StreamKeys(seed=seed, step_index=step, ids=ids.astype(np.min_scalar_type(n - 1)), n_total=n)
        keys = StreamKeys(seed=seed, step_index=step, ids=ids, n_total=n)
        assert narrow.uniforms(slot=3).tobytes() == keys.uniforms(slot=3).tobytes()
        assert narrow.normal_block(2).tobytes() == keys.normal_block(2).tobytes()


PINNED_NORMALS = [
    "-0x1.10a60003eef29p+1", "0x1.1b5dde72a34bbp+1", "0x1.f7faf0529f8aep-1", "-0x1.ce7097e9d741ep+0",
    "-0x1.3e75bf67dba56p-3", "-0x1.1348f0f84e1cap+1", "0x1.b57105834c916p+0", "-0x1.4c670aaba3fb1p-5",
    "-0x1.eb0ce9f4881fep-1", "0x1.7be75587ae11ep+0", "-0x1.fbb63082f3336p-1", "-0x1.8add92a501638p-2",
    "0x1.3c5162d1b63f1p-1", "-0x1.fdd19ce68f6f2p+1", "0x1.e308d9da70fe9p+0", "0x1.ee90e8cab073fp-5",
]


def first_pass(key, ids):
    """(layer, x, reject) of each id's first ziggurat draw, from its word at
    Weyl position id + 1 of the stream started at key."""
    z = (ids + 1).astype(np.uint64)
    z *= 0x9E3779B97F4A7C15
    z += key
    _mix(z, np.empty_like(z))
    layer, reject = np.empty(len(ids), dtype=np.intp), np.empty(len(ids), dtype=bool)
    x = _ziggurat(z, layer, np.empty(len(ids)), np.empty(len(ids)), reject)
    return layer, x, reject


class TestZiggurat:
    def test_layers_have_equal_area(self):
        f = lambda x: np.exp(-0.5 * x * x)  # noqa: E731
        edges = np.append(_X, 0.0)
        areas = edges[1:-1] * (f(edges[2:]) - f(edges[1:-1]))
        # the base strip: the rectangle under f(R) plus the tail beyond R
        base = ZIGGURAT_R * f(ZIGGURAT_R) + math.sqrt(2 * math.pi) * ndtr(-ZIGGURAT_R)
        assert np.allclose(np.append(areas, base), ZIGGURAT_V, rtol=1e-8, atol=0)
        assert _X[0] * f(ZIGGURAT_R) == pytest.approx(ZIGGURAT_V, rel=1e-15)

    def test_tail_frequency_and_law(self):
        # 10^7 draws in slices of 10^6 ids; 2 Phi(-R) is about 2.6e-4
        n, tail = 10**7, []
        for a in range(0, n, 10**6):
            z = keyed_normals(0x7A11, np.arange(a, a + 10**6))
            tail.append(z[np.abs(z) > ZIGGURAT_R])
        tail = np.concatenate(tail)
        p = 2 * ndtr(-ZIGGURAT_R)
        assert abs(len(tail) / n - p) <= 5 * math.sqrt(p * (1 - p) / n)
        # beyond R, |z| has the normal law conditioned on the tail
        law = lambda x: 1 - ndtr(-x) / ndtr(-ZIGGURAT_R)  # noqa: E731
        assert stats.kstest(np.abs(tail), law).pvalue > 1e-3

    def test_chi_square_over_64_equiprobable_bins(self):
        n = 10**6
        z = keyed_normals(0xB145, np.arange(n))
        counts = np.bincount(np.searchsorted(ndtri(np.arange(1, 64) / 64), z), minlength=64)
        assert stats.chisquare(counts).pvalue > 1e-3

    def test_slow_path_ids_draw_alone_and_across_the_chunk_boundary(self):
        key = 0x51DE
        ids = np.arange(3 * _CHUNK)
        full = keyed_normals(key, ids)
        layer, x, reject = first_pass(key, ids)
        tail = ids[reject & (layer == 0)]
        redrawn = ids[reject & (layer > 0) & (full != x)]
        assert np.all(np.abs(full[tail]) > ZIGGURAT_R)
        # a first draw is redrawn with probability 1 - sqrt(pi / 2) / (256 V)
        p = 1 - math.sqrt(math.pi / 2) / (256 * ZIGGURAT_V)
        assert len(tail) and abs(len(redrawn) / len(ids) - p) <= 5 * math.sqrt(p * (1 - p) / len(ids))
        slow = np.sort(np.concatenate([tail, redrawn]))
        assert np.array_equal(keyed_normals(key, slow), full[slow])
        for i in slow[:: max(1, len(slow) // 20)]:
            assert keyed_normals(key, ids[i : i + 1])[0] == full[i]
        # a window across the chunk boundary, with the slow ids behind it
        window = np.concatenate([ids[_CHUNK - 300 : _CHUNK + 300], slow])
        assert np.array_equal(keyed_normals(key, window), full[window])

    def test_first_normals_are_pinned(self):
        # the exact bits of the first 16 normals of a key whose ids 5, 9 and
        # 13 pass the wedge test, are redrawn and take the tail
        z = keyed_normals(6471, np.arange(16))
        assert [v.hex() for v in z.tolist()] == PINNED_NORMALS
        # the layer tables come from math.exp/log/sqrt at import: if the
        # pin above fails, this one tells whether the libm is the cause
        h = hashlib.sha256()
        for table in (_X, _RATIO, _F_LOW, _F_RISE):
            h.update(table.tobytes())
        assert h.hexdigest() == "d390b82269da6faa15692f61c945c74bbd19846dc56af7a846565d48a2f0d16b"


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

    @pytest.mark.parametrize("lam", [1.5e14, float(MAX_SIZE), 1e300, math.inf])
    def test_a_table_past_max_size_is_refused_before_allocating(self, lam):
        with pytest.raises(ValueError, match="would pass"):
            _poisson_table_end(lam)

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
