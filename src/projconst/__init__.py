"""Exact minimal-projection machinery for subspaces of finite ell_inf spaces.

The package computes relative projection constants by exact rational linear
programming, certifies the zero-sum amplification law lambda(Sigma_N(E)) =
(2 - 2/N) lambda(E), plans amplification schedules toward a rational target,
and carries the optimised two-parameter decomposition bound together with an
exact sequence-space model realising it.

Every record, `linalg.Subspace` included, is a `typing.NamedTuple`:
immutable, with a repr, `==` and `hash` by value, and about a tenth of a
frozen, slotted dataclass's cost to create when its module is imported, a
cost every CLI call pays.  A record that checks its fields does so in
`__new__` on a `__slots__ = ()` subclass of its fields' named tuple, whose
`_make` calls the class, so `_replace` checks too.  A record stores only
what it cannot derive: a value that follows from its other fields, such as
a zero-sum space's basis from its base and block count, or every
coefficient of a parameter set from a, is a property, so no record can
disagree with itself; and a record keeps no field that only tests read.
The one measured exception is `zerosum.SymmetrizationDecomposition`'s two
norms, stored so that each is taken once
(`tests/test_acceptance.py::test_symmetrization_takes_each_norm_once`).
`linalg.Mat` is the one plain class, slotted and immutable, so that tuple
`+`, `*`, `<`, `len` and iteration never reach a matrix.
"""

from .banach_mazur import (
    BMParameterSet,
    NonExactParameterError,
    SeqOperator,
    bm_params,
    bound_g,
    build_model,
    compare_with_prior_bound,
    operator_norm_window,
    optimize_closed_form,
    optimize_numeric,
    verify_inverse,
)
from .linalg import (
    Mat,
    RankDeficientError,
    Subspace,
    format_rational,
    inf_op_norm,
    parse_rational,
)
from .minproj import (
    BudgetExceededError,
    LPBudget,
    OracleConfig,
    OracleInconclusive,
    ProjectionConstantResult,
    SolverIntegrityError,
    float_oracle,
    projection_constant,
)
from .planner import (
    AmplificationPlan,
    BaseConstantMismatch,
    PlanRangeError,
    ad_hoc_plan,
    demonstrate_schedule,
    plan_parameters,
)
from .zerosum import (
    ZeroSumSpace,
    amplification_factor,
    centring_projection,
    coordinate_sum_kernel,
    extract_r,
    sigma_steps,
    sigma_subspace,
    symmetrize,
    verify_multiplication_law,
)

__version__ = "0.1.0"

__all__ = [
    "AmplificationPlan",
    "BMParameterSet",
    "BaseConstantMismatch",
    "BudgetExceededError",
    "LPBudget",
    "Mat",
    "NonExactParameterError",
    "OracleConfig",
    "OracleInconclusive",
    "PlanRangeError",
    "ProjectionConstantResult",
    "RankDeficientError",
    "SeqOperator",
    "SolverIntegrityError",
    "Subspace",
    "ZeroSumSpace",
    "ad_hoc_plan",
    "amplification_factor",
    "bm_params",
    "bound_g",
    "build_model",
    "centring_projection",
    "compare_with_prior_bound",
    "coordinate_sum_kernel",
    "demonstrate_schedule",
    "extract_r",
    "float_oracle",
    "format_rational",
    "inf_op_norm",
    "operator_norm_window",
    "optimize_closed_form",
    "optimize_numeric",
    "parse_rational",
    "plan_parameters",
    "projection_constant",
    "sigma_steps",
    "sigma_subspace",
    "symmetrize",
    "verify_inverse",
    "verify_multiplication_law",
]
