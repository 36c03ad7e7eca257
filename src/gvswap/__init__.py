"""Pricing engine for multi-asset generalized variance swaps.

Three assets follow exponential dynamics whose instantaneous variances are
Ornstein-Uhlenbeck processes driven by correlated Levy subordinators.  The
package computes the expected return-covariance matrix by two truncations
of one square-root series (the delta expansion is its order-2 case), prices
swaps on its trace and on the constrained maximum of the portfolio variance
quadratic form, and ships a seeded Monte Carlo oracle that independently
validates every analytic formula.
"""

__version__ = "0.1.0"

from .covariance import (
    ExpectedCovMatrix,
    expected_cov_approx,
    expected_cov_matrix,
    expected_cov_series,
    expected_var_leg,
)
from .errors import (
    ConstraintDegeneracyError,
    DegenerateLawError,
    DomainError,
    EstimationError,
    GvswapError,
    InfeasibleTargetError,
    NumericalError,
    ParameterError,
)
from .market import DescriptiveStats, ReturnSeries, descriptive_stats, estimate_params, load_prices
from .mc import PathBundle, SimulationConfig, mc_expected_cov, simulate
from .params import PAIR_ORDER, AssetParams, ModelParams
from .pricing import PricingResult, SwapContract, SwapKind, price_eigenvalue, price_trace
from .subordinators import CorrelatedTriple, Family, SubordinatorSpec
from .weights import (
    ConstraintBasis,
    FeasibleWeights,
    attainable_target_interval,
    feasible_weights,
    qr_constraint_basis,
)

__all__ = [
    "AssetParams",
    "ConstraintBasis",
    "ConstraintDegeneracyError",
    "CorrelatedTriple",
    "DegenerateLawError",
    "DescriptiveStats",
    "DomainError",
    "EstimationError",
    "ExpectedCovMatrix",
    "Family",
    "FeasibleWeights",
    "GvswapError",
    "InfeasibleTargetError",
    "ModelParams",
    "NumericalError",
    "PAIR_ORDER",
    "ParameterError",
    "PathBundle",
    "PricingResult",
    "ReturnSeries",
    "SimulationConfig",
    "SubordinatorSpec",
    "SwapContract",
    "SwapKind",
    "attainable_target_interval",
    "descriptive_stats",
    "estimate_params",
    "expected_cov_approx",
    "expected_cov_matrix",
    "expected_cov_series",
    "expected_var_leg",
    "feasible_weights",
    "load_prices",
    "mc_expected_cov",
    "price_eigenvalue",
    "price_trace",
    "qr_constraint_basis",
    "simulate",
]
