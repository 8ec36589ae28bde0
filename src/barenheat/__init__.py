"""Semi-implicit solver for a coupled random heat / stochastic Barenblatt
system with zero-flux boundaries, plus a Monte Carlo verification harness."""

__version__ = "0.1.0"

from .errors import (
    ConfigValidationError,
    ContractionConditionError,
    ExpressionError,
    FieldShapeError,
    InvalidConfigError,
    NonConvergenceError,
    NonFiniteError,
    NumericalError,
)
from .expressions import Expression, evaluate_on_mesh, parse_expression
from .grids import (
    SpatialOperators,
    TimeGrid,
    build_operators,
    build_time_grid,
    h1_seminorm,
    l2_inner,
    l2_norm,
)
from .multiplicative import (
    MultiplicativeMap,
    PicardConfig,
    PicardReport,
    affine_map,
    damped_map,
    evaluate_H,
    lipschitz_audit,
    picard_solve,
    weighted_norm,
)
from .noise import (
    AdditiveIntegrand,
    BrownianPath,
    NoisePartialSums,
    aggregate_path,
    discretize_integrand,
    partial_sums,
    sample_path,
)
from .nonlinearity import (
    ConformanceReport,
    Nonlinearity,
    check_properties,
    linear,
    make_nonlinearity,
    ramp,
    saturating,
)
from .stepper import (
    StepReport,
    SystemState,
    Trajectory,
    contraction_factor_bound,
    run_additive,
    solve_chi,
    solve_theta,
    step,
)
from .theory import StabilityConstants, compute_stability_constant

# The Monte Carlo harness in ``diagnostics`` loads on first use of one of its
# names, so that importing the solver does not import it.
_DIAGNOSTICS_NAMES = (
    "AdditiveSetup",
    "ConvergenceStudy",
    "EnergyReport",
    "RateReport",
    "StabilityReport",
    "energy_estimate_check",
    "energy_statistic",
    "grid_difference_rates",
    "mc_expectation",
    "self_convergence",
    "simulate",
    "stability_check",
    "weak_identity_defects",
)


def __getattr__(name):
    if name in _DIAGNOSTICS_NAMES:
        from . import diagnostics

        return getattr(diagnostics, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
