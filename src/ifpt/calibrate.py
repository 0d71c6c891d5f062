"""The inverse solver: particle evolution with rank-based killing.

At each grid time the ensemble is advanced, the target alive count
m_k = round(N * S(t_k)) is computed from the cumulative survival (which
keeps the achieved-vs-target gap within one particle globally, instead of
letting per-step ratios drift), and the boundary value is set to the
(m_k + 1)-th smallest alive position; everything at or above it is killed.
Grid points before the first kill carry the upper fill value, and points
where the target survival has reached zero carry the lower end of the
state space.

Ties (possible only for purely atomic jump models) kill the whole tied
block, so the achieved count can fall short of the target; the shortfall
is counted and reported.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import ndtri

from .boundary import BoundaryCurve, BoundaryEstimate, TimeGrid, epigraph_hausdorff
from .processes import Diagnostics, Levy, check_positions, step_increments
from .rng import INIT_LABEL, StreamKeys, derive_seed, generator
from .targets import TargetDistribution


# lattice size of the refinement diagnostic's rasterized epigraphs
HAUSDORFF_RESOLUTION = 128


class CalibrationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Initial distributions (mu), sampled by inverse CDF from a dedicated
# uniform stream so that runs with a shared seed are coupled monotonically.


class InitialDistribution:
    def ppf(self, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def sample(self, n: int, seed: int) -> np.ndarray:
        u = generator(seed, INIT_LABEL).random(n)
        return self.ppf(u)


@dataclass(frozen=True)
class PointInitial(InitialDistribution):
    x: float

    def ppf(self, u):
        return np.full_like(np.asarray(u, dtype=float), self.x)


@dataclass(frozen=True)
class UniformInitial(InitialDistribution):
    a: float
    b: float

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError("a must be < b")

    def ppf(self, u):
        return self.a + (self.b - self.a) * np.asarray(u, dtype=float)


@dataclass(frozen=True)
class NormalInitial(InitialDistribution):
    mean: float
    std: float

    def __post_init__(self):
        if not self.std > 0:
            raise ValueError("std must be > 0")

    def ppf(self, u):
        return self.mean + self.std * ndtri(np.asarray(u, dtype=float))


@dataclass(frozen=True, eq=False)
class EmpiricalInitial(InitialDistribution):
    samples: np.ndarray

    def __post_init__(self):
        s = np.sort(np.asarray(self.samples, dtype=float))
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)

    def ppf(self, u):
        idx = np.minimum((np.asarray(u) * len(self.samples)).astype(int), len(self.samples) - 1)
        return self.samples[idx]


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CalibrationOptions:
    particles: int
    grid: TimeGrid
    seed: int

    def __post_init__(self):
        if self.particles < 2:
            raise ValueError("need at least 2 particles")


def round_half_up(x) -> np.ndarray:
    return np.floor(np.asarray(x, dtype=float) + 0.5).astype(np.int64)


def _select_kills(x: np.ndarray, target_count: int) -> tuple[float, np.ndarray]:
    """Kill level and the ascending positions of the entries at or above it.

    The level is the (target_count + 1)-th smallest entry of x, the same
    value as ``np.partition(x, target_count)[target_count]``; with
    target_count >= len(x) nothing is killed and the level is +inf.  For r
    kills, the r-th largest maximum tau over about 4r blocks bounds the
    level from below (r blocks, so at least r entries, are >= tau), so only
    the entries >= tau -- about r of them when x is in no particular
    order -- are partitioned.  Ties are exact: the whole block at the level
    is returned.
    """
    a = len(x)
    r = a - target_count
    if r <= 0:
        return math.inf, np.empty(0, dtype=np.intp)
    # 4 blocks per kill keeps the candidate set near r entries while the
    # block maxima stay a short array; r > a / 4 gives blocks of one entry
    s = max(1, a // (4 * r))
    block_max = np.maximum.reduceat(x, np.arange(0, a, s))
    tau = np.partition(block_max, len(block_max) - r)[len(block_max) - r]
    pos = np.flatnonzero(x >= tau)
    cand = x[pos]
    level = np.partition(cand, len(cand) - r)[len(cand) - r]
    return float(level), pos[cand >= level]


@dataclass(eq=False)
class Ensemble:
    """The alive particles of a run: their ids, in no order, and positions.

    Killed particles leave both arrays, so stepping and selection cost
    O(alive) and removal moves only O(killed) entries.  Nothing depends on
    the order of ``ids``: step draws are keyed per id and the kill level is
    an order statistic.
    """

    ids: np.ndarray
    x: np.ndarray

    def remove(self, idx: np.ndarray) -> None:
        """Drop the entries at the ascending positions idx, in place.

        Each hole below the new length is filled from a kept entry above
        it, then both arrays are truncated.
        """
        keep = len(self.ids) - len(idx)
        holes = int(np.searchsorted(idx, keep))
        kept_above = np.ones(len(idx), dtype=bool)
        kept_above[idx[holes:] - keep] = False
        src = keep + np.flatnonzero(kept_above)
        dst = idx[:holes]
        self.ids[dst] = self.ids[src]
        self.x[dst] = self.x[src]
        self.ids, self.x = self.ids[:keep], self.x[:keep]


def evolve(model, initial: InitialDistribution, grid: TimeGrid, n: int, seed: int, diag: Diagnostics | None):
    """Advance n keyed paths along the grid, one step per grid time.

    Yields ``(k, t, ensemble)`` after step k; the caller kills through
    ``ensemble.remove`` before the next step is drawn.
    """
    x = np.asarray(initial.sample(n, seed), dtype=float)
    check_positions(model, x, "initial sampler")
    ens = Ensemble(ids=np.arange(n), x=x)
    prev_t = 0.0
    for k, t in enumerate(grid.points):
        if len(ens.ids):
            keys = StreamKeys(seed=seed, step_index=k, ids=ens.ids, n_total=n)
            ens.x = step_increments(model, ens.x, float(t - prev_t), keys, diag)
            # a NaN would compare false against every level and pass silently
            check_positions(model, ens.x, f"step {k} (t = {t:g})")
        yield k, t, ens
        prev_t = float(t)


def calibrate(
    model,
    initial: InitialDistribution,
    target: TargetDistribution,
    opts: CalibrationOptions,
) -> BoundaryEstimate:
    """Solve the inverse problem by quantile killing along the grid."""
    grid = opts.grid
    n = opts.particles
    lo, hi = model.state_bounds

    s_target = np.asarray(target.survival(grid.points), dtype=float)
    if np.any(np.diff(s_target) > 1e-15):
        raise CalibrationError("target survival increases along the grid")
    m = round_half_up(n * s_target)
    # the comparison with 0 also rejects NaN
    if not np.all((s_target >= 0.0) & (m <= n)):
        raise CalibrationError("target survival outside [0, 1] on the grid")

    values = np.empty(len(grid))
    achieved = np.empty(len(grid))
    diag = Diagnostics()
    for k, _, ens in evolve(model, initial, grid, n, opts.seed, diag):
        alive_count = len(ens.ids)
        level, idx = _select_kills(ens.x, int(m[k]))
        ens.remove(idx)
        if m[k] == 0:
            level = lo
        elif m[k] >= alive_count:
            level = hi
        elif len(ens.ids) < m[k]:
            diag.tie_events += 1
            diag.tie_shortfall += int(m[k]) - len(ens.ids)
        values[k] = level
        achieved[k] = len(ens.ids) / n

    curve = BoundaryCurve(grid, values, domain_bounds=model.state_bounds)
    diagnostics = asdict(diag)
    if isinstance(model, Levy):
        # small-jump budget: in discard mode the per-step martingale error
        # exceeds C with probability at most max_dt * variance / C^2
        max_dt = float(np.max(np.diff(np.concatenate([[0.0], grid.points]))))
        diagnostics["small_jump_mode"] = model.small_jump_mode
        diagnostics["eta"] = model.eta
        diagnostics["small_jump_variance"] = model._stats[2]
        diagnostics["doob_step_budget_times_C2"] = max_dt * model._stats[2]
    return BoundaryEstimate(
        curve=curve,
        survival_target=s_target,
        survival_achieved=achieved,
        particles=n,
        seed=opts.seed,
        diagnostics=diagnostics,
    )


def refine_and_diagnose(
    model,
    initial: InitialDistribution,
    target: TargetDistribution,
    base_grid: TimeGrid,
    levels: int,
    opts: CalibrationOptions,
) -> tuple[list[BoundaryEstimate], list[float]]:
    """Calibrate on dyadic refinements of the grid with independent sub-seeds.

    Returns the estimates and the epigraph Hausdorff distance between each
    consecutive pair, the convergence diagnostic; a single level yields an
    empty diagnostic list.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    if not base_grid.is_arithmetic or base_grid.t_start != base_grid.dt:
        raise CalibrationError("refinement needs a dyadic grid: t_start == dt")
    estimates = []
    distances = []
    for j in range(levels):
        dt = base_grid.dt / 2**j
        grid = TimeGrid.arithmetic(dt, dt, len(base_grid) * 2**j)
        level_opts = CalibrationOptions(
            particles=opts.particles,
            grid=grid,
            seed=derive_seed(opts.seed, 0x7E, j),
        )
        estimates.append(calibrate(model, initial, target, level_opts))
        if j:
            distances.append(
                epigraph_hausdorff(estimates[-2].curve, estimates[-1].curve, HAUSDORFF_RESOLUTION)
            )
    return estimates, distances
