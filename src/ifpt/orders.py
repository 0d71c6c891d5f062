"""Stochastic-order check between two target laws.

The hazard-rate order is a comparison-principle hypothesis: if S_a / S_b is
non-increasing, the calibrated boundaries are ordered (b_a <= b_b).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ORDER_TOL = 1e-12


@dataclass(frozen=True)
class OrderReport:
    holds: bool
    worst_violation: float
    witness: float | None


def check_hazard_order(a, b, grid) -> OrderReport:
    """Is the survival ratio S_a / S_b non-increasing along the grid?

    ``a`` and ``b`` are target distributions; the check starts from the
    exact ratio 1 at t = 0 and errors out if S_b vanishes on the grid.
    """
    ts = grid.points
    sa = np.asarray(a.survival(ts), dtype=float)
    sb = np.asarray(b.survival(ts), dtype=float)
    if np.any(sb <= 0.0):
        bad = float(ts[np.argmax(sb <= 0.0)])
        raise ValueError(f"survival of the larger target vanishes at t={bad!r}")
    ratio = np.concatenate([[1.0], sa / sb])
    rise = np.diff(ratio)
    i = int(np.argmax(rise))
    worst = float(rise[i])
    witness = float(ts[i]) if len(ts) else None
    return OrderReport(holds=worst <= ORDER_TOL, worst_violation=worst, witness=witness)
