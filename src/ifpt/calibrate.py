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
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .boundary import BoundaryCurve, BoundaryEstimate, TimeGrid, epigraph_hausdorff
from .processes import Diagnostics, Levy, check_positions, step_increments
from .rng import INIT_LABEL, StreamKeys, derive_seed, generator
from .targets import TargetDistribution


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

    def ppf(self, u):
        return self.a + (self.b - self.a) * np.asarray(u, dtype=float)


@dataclass(frozen=True)
class NormalInitial(InitialDistribution):
    mean: float
    std: float

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
    record_diagnostics: bool = True

    def __post_init__(self):
        if self.particles < 2:
            raise ValueError("need at least 2 particles")


def round_half_up(x) -> np.ndarray:
    return np.floor(np.asarray(x, dtype=float) + 0.5).astype(np.int64)


def _select_level(alive_positions: np.ndarray, target_count: int) -> tuple[float, np.ndarray]:
    """Kill level and kill mask for one step; pure partial-selection.

    The level is the (target_count + 1)-th smallest alive position and
    every particle at or above it is killed.
    """
    a = len(alive_positions)
    if target_count >= a:
        return math.inf, np.zeros(a, dtype=bool)
    if target_count == 0:
        return -math.inf, np.ones(a, dtype=bool)
    level = float(np.partition(alive_positions, target_count)[target_count])
    return level, alive_positions >= level


@dataclass(eq=False)
class Ensemble:
    """The alive particles of a run: ascending ids and their positions.

    Killed particles leave both arrays, so stepping, selection and killing
    cost O(alive), not O(N).
    """

    ids: np.ndarray
    x: np.ndarray

    def kill(self, mask: np.ndarray) -> None:
        keep = ~mask
        self.ids, self.x = self.ids[keep], self.x[keep]


def evolve(model, initial: InitialDistribution, grid: TimeGrid, n: int, seed: int, diag: Diagnostics | None):
    """Advance n keyed paths along the grid, one step per grid time.

    Yields ``(k, t, ensemble)`` after step k; the caller kills through
    ``ensemble.kill`` before the next step is drawn.
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
        if m[k] == 0:
            level = lo
            ens.kill(np.ones(alive_count, dtype=bool))
        elif m[k] >= alive_count:
            level = hi
        else:
            level, kill = _select_level(ens.x, int(m[k]))
            ens.kill(kill)
            if len(ens.ids) < m[k]:
                diag.tie_events += 1
                diag.tie_shortfall += int(m[k]) - len(ens.ids)
        values[k] = level
        achieved[k] = len(ens.ids) / n

    curve = BoundaryCurve(grid, values, off_grid_value=hi, domain_bounds=(lo, hi))
    diagnostics = diag.as_dict() if opts.record_diagnostics else {}
    if opts.record_diagnostics and isinstance(model, Levy):
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
    resolution: int = 128,
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
            record_diagnostics=opts.record_diagnostics,
        )
        estimates.append(calibrate(model, initial, target, level_opts))
        if j:
            distances.append(
                epigraph_hausdorff(estimates[-2].curve, estimates[-1].curve, resolution)
            )
    return estimates, distances
