"""Numerics for a meromorphic operator class on the punctured unit disk.

The package covers the kernel series and its coefficients, truncated
Laurent-series arithmetic, the coefficient-bound sequence in recursive and
closed form, class-membership and convolution tests, a Schwarz-function
generator for members, and solvers for radii of starlikeness and convexity.
"""

from .bounds import (
    BoundCheckRecord,
    BoundCheckReport,
    BoundSequence,
    ClassParams,
    IdentityResiduals,
    bound_sequence_closed,
    bound_sequence_recursive,
    coefficient_bound_check,
    extraction_residuals,
    operator_weights,
    series_identity_oracle,
)
from .errors import (
    CoefficientFileError,
    ConsistencyError,
    ConvergenceError,
    EvalDomainError,
    ParameterError,
    PoleError,
    SeriesDivisionError,
    TruncationWarning,
)
from .laurent import (
    GridSpec,
    LaurentSeries,
    TaylorSeries,
    apply_operator,
    evaluate,
    hadamard,
    lambda_mix,
    polar_grid,
    read_coefficient_csv,
    wright_kernel,
    write_coefficient_csv,
    z_derivative,
)
from .membership import (
    ConvolutionScanReport,
    EtaScan,
    MembershipReport,
    SchwarzFunction,
    SufficiencyReport,
    a_of_t,
    caratheodory_series,
    convolution_kernel,
    convolution_scan,
    membership_check,
    schwarz_generate,
    sufficiency_predicate,
    tau_transform,
)
from .radii import (
    PredicateReport,
    RadiusQuery,
    RadiusResult,
    constraint_sum,
    convex_predicate,
    extremal_curve,
    single_weight_query,
    solve_radius,
    starlike_predicate,
)
from .special import (
    WrightEval,
    WrightParams,
    gamma,
    phi,
    phi_values,
    signed_lgamma,
    wright_eval,
)

__version__ = "0.1.0"
