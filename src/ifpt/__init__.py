"""Monte-Carlo solver and verification harness for the inverse
first-passage time problem: calibrate a boundary whose first-passage law
matches a target distribution, verify it by forward simulation, and check
the order-theoretic and classification conditions of the underlying
process."""

from .boundary import BoundaryCurve, BoundaryEstimate, TimeGrid, epigraph_hausdorff
from .calibrate import (
    CalibrationOptions,
    EmpiricalInitial,
    NormalInitial,
    PointInitial,
    UniformInitial,
    calibrate,
    refine_and_diagnose,
)
from .orders import OrderReport, check_hazard_order
from .processes import (
    BrownianDrift,
    FiniteAtoms,
    GammaSubordinatorMeasure,
    IntervalDiffusion,
    Levy,
    LevyMeasureSpec,
    LevyTriple,
    OneSidedStable,
    Uniqueness,
    classify_levy,
    levy_char_exponent,
    scale_transform,
    small_jump_stats,
    step_increments,
)
from .targets import (
    EmpiricalTarget,
    Exponential,
    InverseGaussianHitting,
    LevyHittingLaw,
    Mixture,
    PointMass,
    Weibull,
)
from .verify import (
    FptSample,
    analytic_bm_level_cdf,
    analytic_bm_linear_cdf,
    compare_boundaries,
    dkw_critical_value,
    forward_fpt,
    ks_statistic,
)

__version__ = "0.1.0"
