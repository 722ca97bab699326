"""Exact relative projection constants lambda(E, ell_inf^n).

A projection of ell_inf^n onto a k-dimensional subspace E with basis matrix
B (k rows) is exactly a matrix P = B^T C where the coefficient matrix C
satisfies C B^T = I_k; the correspondence P <-> C is a bijection.  Minimising
the inf->inf norm of P is therefore a linear program once absolute values
are lifted with per-entry majorant variables:

    minimize t
    subject to  C B^T = I_k
                M[i,j] >= +(B^T C)[i,j]
                M[i,j] >= -(B^T C)[i,j]
                sum_j M[i,j] <= t        for every row i.

At any optimum t equals the exact norm of P = B^T C, so the solved program
certifies lambda(E, ell_inf^n) together with an optimal projection and a
sign-vector witness attaining its norm.  Everything on this path is rational
arithmetic; floating point appears only in `float_oracle`, a structurally
independent first-order check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random

from .linalg import (
    Mat,
    Subspace,
    format_rational,
    inf_op_norm,
    invert_square,
    kernel_basis,
    projection_defect,
)
from .simplex import (
    InfeasibleProgram,
    LinearProgram,
    UnboundedProgram,
    solve_linear_program,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


class SolverIntegrityError(RuntimeError):
    """The exact LP path produced something mathematically impossible."""


class OracleInconclusive(RuntimeError):
    """The floating-point oracle did not converge within its budget."""


class BudgetExceededError(RuntimeError):
    """An LP instance exceeds the configured size budget."""


@dataclass(frozen=True)
class LPBudget:
    """Size gate for exact LP solves; generous enough for every shipped check."""

    max_ambient: int = 12
    max_dim: int = 6

    def require(self, space: Subspace):
        self.require_shape(space.ambient_dim, space.dim)

    def require_shape(self, ambient_dim: int, dim: int):
        """`require` for a subspace known only by its shape, before it is built."""
        if ambient_dim > self.max_ambient or dim > self.max_dim:
            raise BudgetExceededError(
                f"subspace of dimension {dim} in ell_inf^{ambient_dim} "
                f"exceeds LP budget (ambient <= {self.max_ambient}, dim <= {self.max_dim})"
            )


DEFAULT_BUDGET = LPBudget()


@dataclass(frozen=True)
class ProjectionLP:
    """The minimal-projection program for one subspace.

    Variables, in fixed order: k*n coefficient entries C[p,q] (sign-free),
    n*n majorants M[i,j] (nonnegative), and the bound t.  Constraints:
    k^2 equalities C B^T = I, 2n^2 majorant inequalities, n row-sum rows.
    """

    space: Subspace
    program: LinearProgram

    @property
    def num_coeff_vars(self) -> int:
        return self.space.dim * self.space.ambient_dim

    @property
    def num_majorant_vars(self) -> int:
        return self.space.ambient_dim ** 2

    @property
    def num_vars(self) -> int:
        return self.num_coeff_vars + self.num_majorant_vars + 1

    @property
    def num_equalities(self) -> int:
        return self.space.dim ** 2

    @property
    def num_inequalities(self) -> int:
        n = self.space.ambient_dim
        return 2 * n * n + n


def build_projection_lp(space: Subspace) -> ProjectionLP:
    """Assemble the LP; pure construction, no solving."""
    n, k = space.ambient_dim, space.dim
    basis = space.basis
    nv = k * n + n * n + 1
    c_var = lambda p, q: p * n + q
    m_var = lambda i, j: k * n + i * n + j
    t_var = nv - 1

    objective = [_ZERO] * nv
    objective[t_var] = _ONE
    free = [True] * (k * n) + [False] * (n * n) + [False]

    eq_rows, eq_rhs = [], []
    for p in range(k):
        for q in range(k):
            row = [_ZERO] * nv
            for j in range(n):
                x = basis.at(q, j)
                if x:
                    row[c_var(p, j)] = x
            eq_rows.append(row)
            eq_rhs.append(_ONE if p == q else _ZERO)

    ub_rows, ub_rhs = [], []
    for i in range(n):
        for j in range(n):
            # (B^T C)[i,j] = sum_p B[p,i] C[p,j]
            plus = [_ZERO] * nv
            minus = [_ZERO] * nv
            for p in range(k):
                x = basis.at(p, i)
                if x:
                    plus[c_var(p, j)] = x
                    minus[c_var(p, j)] = -x
            plus[m_var(i, j)] = -_ONE
            minus[m_var(i, j)] = -_ONE
            ub_rows.append(plus)
            ub_rhs.append(_ZERO)
            ub_rows.append(minus)
            ub_rhs.append(_ZERO)
    for i in range(n):
        row = [_ZERO] * nv
        for j in range(n):
            row[m_var(i, j)] = _ONE
        row[t_var] = -_ONE
        ub_rows.append(row)
        ub_rhs.append(_ZERO)

    program = LinearProgram(objective, eq_rows, eq_rhs, ub_rows, ub_rhs, free)
    return ProjectionLP(space, program)


@dataclass(frozen=True)
class ProjectionConstantResult:
    """Certified value of lambda(E, ell_inf^n) with the optimal projection.

    Invariants verified at construction time: the projection is idempotent,
    fixes every basis row, maps into E, and its exact norm equals `value`,
    attained on `witness`.  The minimum is always attained here (finite
    dimensions), hence `attained` is always True.
    """

    value: Fraction
    minimizer_c: Mat
    projection: Mat
    witness: tuple[int, ...]
    attained: bool = True

    def to_json_dict(self) -> dict:
        return {
            "lambda": format_rational(self.value),
            "projection": [
                [format_rational(x) for x in self.projection.row(i)]
                for i in range(self.projection.rows)
            ],
            "witness": list(self.witness),
            "attained": self.attained,
        }


def _shared_entries(*mats: Mat) -> list[Mat]:
    """The matrices again, with one Fraction object per distinct entry value.

    An optimal projection repeats few values (two for ker_n), so a kept
    result costs one object per value instead of one per entry.
    """
    shared: dict[Fraction, Fraction] = {}
    return [Mat(m.rows, m.cols, tuple(shared.setdefault(x, x) for x in m.entries))
            for m in mats]


def _certify(space: Subspace, value: Fraction, coeffs: Mat) -> ProjectionConstantResult:
    projection = space.basis.transpose() @ coeffs
    norm = inf_op_norm(projection)
    if norm.value != value:
        raise SolverIntegrityError(
            f"LP optimum {value} disagrees with exact norm {norm.value}"
        )
    if value < 1:
        raise SolverIntegrityError(f"projection constant below 1: {value}")
    defect = projection_defect(projection, space)
    if defect:
        raise SolverIntegrityError(f"optimal projection {defect}")
    image = projection.apply(norm.witness)
    if max((abs(x) for x in image), default=_ZERO) != value:
        raise SolverIntegrityError("norm witness does not attain the optimum")
    return ProjectionConstantResult(value, *_shared_entries(coeffs, projection),
                                    norm.witness)


def projection_constant(space: Subspace) -> ProjectionConstantResult:
    """Exact lambda(E, ell_inf^n) for E given by `space`.

    The degenerate full-dimensional case k = n short-circuits to the
    identity; everything else goes through the exact LP.  That program is
    feasible and bounded by construction, so infeasibility or unboundedness
    out of the simplex is a solver-integrity failure.  Running out of pivots
    proves nothing about the program, so `PivotLimitExceeded` propagates
    unchanged.
    """
    if space.dim == space.ambient_dim:
        coeffs = invert_square(space.basis.transpose())
        return _certify(space, _ONE, coeffs)
    lp = build_projection_lp(space)
    try:
        value, x = solve_linear_program(lp.program)
    except (InfeasibleProgram, UnboundedProgram) as exc:
        raise SolverIntegrityError(f"minimal-projection LP rejected: {exc}") from exc
    coeffs = Mat(space.dim, space.ambient_dim, tuple(x[: lp.num_coeff_vars]))
    return _certify(space, value, coeffs)


def feasible_perturbation(space: Subspace, coeffs: Mat, rng: Random,
                          spread: int = 3) -> Mat:
    """A random coefficient matrix that still satisfies C B^T = I.

    Adds kernel-of-B combinations to each row of `coeffs`, which walks the
    feasible set of the minimal-projection program without leaving it.
    """
    kernel = kernel_basis(space.basis.row_lists())
    if not kernel:
        return coeffs
    rows = []
    for p in range(coeffs.rows):
        row = list(coeffs.row(p))
        for vec in kernel:
            weight = Fraction(rng.randint(-spread, spread), rng.randint(1, spread))
            if weight:
                row = [a + weight * b for a, b in zip(row, vec)]
        rows.append(row)
    return Mat.from_rows(rows)


# ---------------------------------------------------------------------------
# floating-point oracle


@dataclass(frozen=True)
class OracleConfig:
    restarts: int = 8
    iterations: int = 4000
    seed: int = 0
    final_step: float = 1e-10


def float_oracle(space: Subspace, tol: float = 1e-6,
                 config: OracleConfig = OracleConfig()) -> float:
    """Estimate lambda(E, ell_inf^n) by a first-order method, independently
    of the exact LP path.

    Parametrises the feasible coefficient matrices as C0 + Theta K^T with K a
    kernel basis of B, and runs subgradient descent with geometrically
    decaying steps on the piecewise-linear objective max-row-abs-sum,
    restarting from random points.  Raises OracleInconclusive when the
    restarts fail to agree to within tol/4; that signals an exhausted budget,
    not a refutation of the exact value.
    """
    import numpy as np

    basis = np.array([[float(x) for x in space.basis.row(i)]
                      for i in range(space.dim)])
    k, n = basis.shape
    bt = basis.T
    # Base point: C0 = (B B^T)^{-1} B satisfies C0 B^T = I.
    c0 = np.linalg.solve(basis @ basis.T, basis)
    p0 = bt @ c0

    _, s, vh = np.linalg.svd(basis)
    tol_rank = max(n, k) * (s[0] if len(s) else 1.0) * np.finfo(float).eps
    null = vh[(s > tol_rank).sum():].T  # n x (n-k), orthonormal columns
    n_free = null.shape[1]

    def objective_and_grad(theta):
        p = p0 + bt @ theta @ null.T
        sums = np.abs(p).sum(axis=1)
        i_star = int(np.argmax(sums))
        signs = np.sign(p[i_star])
        signs[signs == 0.0] = 1.0
        grad = np.outer(bt[i_star], signs @ null)
        return float(sums[i_star]), grad

    if n_free == 0:
        value, _ = objective_and_grad(np.zeros((k, 0)))
        return value

    rng = np.random.default_rng(config.seed)
    initial_step = max(1.0, float(np.abs(p0).sum(axis=1).max()))
    decay = (config.final_step / initial_step) ** (1.0 / config.iterations)

    results = []
    for restart in range(config.restarts):
        if restart == 0:
            theta = np.zeros((k, n_free))
        else:
            theta = rng.normal(scale=initial_step, size=(k, n_free))
        step = initial_step
        best = math.inf
        for _ in range(config.iterations):
            value, grad = objective_and_grad(theta)
            if value < best:
                best = value
            gnorm = np.linalg.norm(grad)
            if gnorm == 0.0:
                break
            theta = theta - (step / gnorm) * grad
            step *= decay
        results.append(best)

    results.sort()
    if len(results) >= 2 and results[1] - results[0] > tol / 4:
        raise OracleInconclusive(
            f"restart agreement {results[1] - results[0]:.3e} exceeds {tol / 4:.3e}"
        )
    return results[0]
