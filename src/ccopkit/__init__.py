"""Certification and census toolkit for cardinality-constrained optimization.

Certifies M-stationarity on the sparse side and T-stationarity on the
regularized continuous reformulation, constructs the lift/project
correspondence between the two, and validates the counting and
index-preservation identities against brute-force censuses.
"""

from .bridge import (
    BridgeError,
    CountCheck,
    CountReport,
    LiftSet,
    NotStationaryError,
    lift,
    project,
    verify_counts,
)
from .ccop import (
    CcopActivity,
    MCertificate,
    PointEval,
    Problem,
    certify_m,
    certify_m_many,
    check_cc_licq,
    check_feasible,
    evaluate,
)
from .exprcore import (
    Expr,
    ExprDomainError,
    ExprSyntaxError,
    Jet2,
    eval2,
    eval2_many,
    parse,
    polynomial_degree,
    to_source,
)
from .numkern import Tolerances, rank_and_nullbasis, restricted_inertia, solve_multipliers
from .oracle import (
    CensusReport,
    GridSpec,
    census_newton,
    census_quadratic,
    census_t_quadratic,
    instance_id,
    is_quadratic_affine,
    merge_censuses,
)
from .regmpoc import (
    AssumptionError,
    MpocActivity,
    RegularizedProblem,
    TCertificate,
    certify_t,
    certify_t_pairs,
    check_feasible_r,
    check_mpoc_licq,
    check_y_structure,
    make_regularized,
)

__version__ = "0.1.0"
