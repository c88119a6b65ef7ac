"""Left-definite discrete Sturm-Liouville toolkit.

Difference calculus, the recurrence solver and Wronskian for
-D(p Du)(n-1) + q(n) u(n) = lambda w(n) u(n), the left-definite inner-product
space with its explicit bound constants, and finite-section eigensolvers for
the (L, W) pencil with an indefinite weight.
"""

from .calculus import (
    forward_difference,
    greens_identity_residual,
    product_rule_residual,
    summation_by_parts_residual,
)
from .coeffs import (
    CoefficientSet,
    Sequence,
    load_coefficients,
    make_preset,
    serialize_coefficients,
)
from .errors import (
    DisagreementError,
    InertiaError,
    LeftDefError,
    NonCauchyError,
    SolverOverflowError,
    ValidationError,
    WindowError,
)
from .operators import (
    InitKind,
    Solution,
    apply_L,
    recurrence,
    solve_recurrence,
    wronskian,
    wronskian_constancy_report,
    wronskian_sequence,
)
from .space import (
    BoundConstants,
    BoundReport,
    CauchyDiagnostics,
    bound_constants,
    cauchy_diagnostics,
    check_lemma1,
    check_lemma2,
    check_pointwise_bound,
    h1_inner,
    h1_norm,
    l2_norm,
)
from .spectrum import (
    FiniteSection,
    SpectralResult,
    eigen_pencil,
    eigen_shooting,
    finite_section,
    shooting_range,
)

__version__ = "0.1.0"
