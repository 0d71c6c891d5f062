"""A run's memory is its particles: what a step or a forward run holds per path.

Each bound is on how a traced peak grows with the number of paths, from
the peaks at n and 2n, so the chunk-sized scratch of the RNG, which does
not grow with n, drops out.
"""

import math
import tracemalloc
import weakref

import numpy as np
import pytest

from ifpt.boundary import BoundaryCurve, TimeGrid
from ifpt.calibrate import InitialDistribution, PointInitial, evolve
from ifpt.processes import (
    BrownianDrift,
    Constant,
    IntervalDiffusion,
    Levy,
    LevyMeasureSpec,
    LevyTriple,
    OneSidedStable,
    OU,
)
from ifpt.rng import StreamKeys
from ifpt.verify import forward_fpt

# BENCH3's process: a Gaussian part and about 3 % of the particles jumping per step
BENCH3 = Levy(LevyTriple(0.0, 0.25, LevyMeasureSpec((OneSidedStable("+", 0.5, 0.5, 1.0),))), "gaussian", 0.01)


def keys_for(n, seed=1, step=0):
    return StreamKeys(seed=seed, step_index=step, ids=np.arange(n), n_total=n)


def traced_peak(fn) -> int:
    """Bytes allocated at the peak of fn(), above what was allocated before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def bytes_per_path(peak_at, n) -> float:
    """Growth of the traced peak peak_at(n) per path, between n and 2n paths."""
    return (peak_at(2 * n) - peak_at(n)) / n


def step_peak(model, dt):
    """The traced peak of one model.step from 0 as a function of the path count."""

    def peak_at(n):
        x, keys = np.zeros(n), keys_for(n)
        return traced_peak(lambda: model.step(x, dt, keys, None))

    return peak_at


class Recorded(InitialDistribution):
    """Starts every path at 0 and keeps a weak reference to the array."""

    def sample(self, n, seed):
        x = np.zeros(n)
        self.ref = weakref.ref(x)
        return x


def test_start_positions_are_freed_once_stepped():
    initial = Recorded()
    run = evolve(BrownianDrift(0.0, 1.0), initial, TimeGrid(0.125, 0.125, 4), 1000, 3, None)
    next(run)
    next(run)
    assert initial.ref() is None


def test_levy_step_holds_its_result_and_the_poisson_uniforms():
    # the result is built in the normals' buffer, so x + drift * dt, the
    # normals and the uniforms are not three arrays at once
    BENCH3.step(np.zeros(10), 1 / 256, keys_for(10), None)  # builds the cached tables
    assert 2 * 8 <= bytes_per_path(step_peak(BENCH3, 1 / 256), 1 << 17) < 2.5 * 8


def test_levy_step_is_the_former_sum_bit_for_bit():
    # the former order, (x + drift * dt) + z, against the step's z + (x + drift * dt)
    # over more than one of the RNG's chunks
    n = 70_000
    x = np.linspace(-2.0, 2.0, n)
    no_jumps = Levy(LevyTriple(0.3, 0.25, LevyMeasureSpec(())), "gaussian", 0.01)
    keys = keys_for(n, seed=5, step=2)
    z = keys.normals(slot=0)
    z *= no_jumps.gauss_std * math.sqrt(1 / 256)
    want = x + no_jumps.drift / 256
    want += z
    assert no_jumps.step(x, 1 / 256, keys, None).tobytes() == want.tobytes()


@pytest.mark.parametrize("mu", [0.1, 0.0])
def test_constant_coefficient_substeps_return_an_array_of_their_own(mu):
    n = 1000
    model = IntervalDiffusion(Constant(mu), Constant(1.0), dt_substeps=4)
    y = model.step(np.zeros(n), 1 / 16, keys_for(n), None)
    # row 3 of the (4, n) normal block as the result would hold all four rows
    assert y.base is None


@pytest.mark.parametrize("mu", [0.0, 0.3])
def test_brownian_step_allocates_only_its_normals(mu):
    # one substep: the normals become the result, with no second array for
    # x + mu * h (below 2^17 paths the ziggurat's chunk scratch, not the block,
    # sets the peak)
    assert bytes_per_path(step_peak(BrownianDrift(mu, 1.0), 1 / 16), 1 << 17) < 1.5 * 8


def test_ou_step_holds_its_normal_block_and_one_result():
    # diffusion-ou's step: the (4, N) block, each substep written into its row
    # with chunk-sized coefficients, and the last substep's own array; a
    # full-size drift array per substep would take it to 6
    model = IntervalDiffusion(OU(1.0), Constant(1.0), L=0.0, lower_boundary_behavior="reflecting", dt_substeps=4)
    assert 4 * 8 <= bytes_per_path(step_peak(model, 1 / 32), 1 << 17) < 5.5 * 8


def reference_fpt(model, initial, boundary, n, seed):
    """forward_fpt as it was: a float64 record that takes each crossing's t."""
    times = np.full(n, math.inf)
    for k, t, ens in evolve(model, initial, boundary.grid, n, seed, None):
        crossed = np.flatnonzero(ens.x >= boundary.values[k])
        times[ens.ids[crossed]] = t
        ens.remove(crossed)
        if not len(ens.ids):
            break
    return times


# 255 points record the step in a uint8, 256 in a uint16
@pytest.mark.parametrize("steps", [1, 255, 256, 1024])
def test_fpt_times_are_the_reference_loops_bit_for_bit(steps):
    grid = TimeGrid(1 / 64, 1 / 64, steps)
    # an unreachable stretch, a stretch everything crosses and a level some paths never reach
    values = np.full(steps, 0.4)
    values[: steps // 4] = math.inf
    if steps < 1024:
        values[steps // 2] = -1.0
    curve = BoundaryCurve(grid, values)
    model, initial = BrownianDrift(0.0, 1.0), PointInitial(0.0)
    got = forward_fpt(model, initial, curve, 3000, 11).times
    want = reference_fpt(model, initial, curve, 3000, 11)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    if steps == 1024:
        assert np.isinf(got).any() and np.isfinite(got).any()


def test_fpt_peak_is_ids_positions_normals_and_a_narrow_crossing_index():
    # 3 * 8 bytes of arrays, a 2-byte crossing step and a 1-byte mask per
    # path; a float64 record of the times would add 6 more
    curve = BoundaryCurve(TimeGrid(1 / 64, 1 / 64, 1024), np.full(1024, 1.0))

    def peak_at(n):
        return traced_peak(lambda: forward_fpt(BrownianDrift(0.0, 1.0), PointInitial(0.0), curve, n, 3))

    assert bytes_per_path(peak_at, 1 << 16) < 3 * 8 + 6
