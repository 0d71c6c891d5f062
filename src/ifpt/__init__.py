"""Monte-Carlo solver and verification harness for the inverse
first-passage time problem: calibrate a boundary whose first-passage law
matches a target distribution, verify it by forward simulation, and check
the order-theoretic and classification conditions of the underlying
process."""

from .boundary import (
    BoundaryCurve,
    BoundaryEstimate,
    TimeGrid,
    epigraph_hausdorff,
    evaluate,
    restrict_after,
    shift_up,
)
from .calibrate import (
    CalibrationOptions,
    EmpiricalInitial,
    NormalInitial,
    PointInitial,
    UniformInitial,
    calibrate,
    refine_and_diagnose,
)
from .orders import (
    EmpiricalDistribution,
    OrderReport,
    check_hazard_order,
    check_usual_order,
    quantile,
    truncate_T_alpha,
)
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
    sample,
    sup_support_time,
    survival,
    validate,
)
from .verify import (
    FptSample,
    analytic_bm_level_cdf,
    analytic_bm_linear_cdf,
    compare_boundaries,
    forward_fpt,
    ks_statistic,
)

__version__ = "0.1.0"
