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

Every value leaves this module proved minimal.  One solve gives a
`ProjectionCertificate` (C, W, w, Lambda): the primal C with a dual read off
the final simplex tableau, and `check_certificate` proves lambda(E) = value
from it with products and comparisons only (weak duality).  A certificate
has one format from the tableau through every Kronecker product: C, W, w
and Lambda are integers over one positive int denominator each, the form
that the one checker proves.  `projection_certificate` returns the
certificate it checked; `projection_constant` keeps C alone, as a `Mat`
over the same denominator, and checks a sign-vector witness attaining the
norm of B^T C.
Certificates compose under the Kronecker product, which is how `zerosum`
certifies its zero-sum spaces without solving their programs.

Everything on this path is rational arithmetic; floating point appears only
in `float_oracle`, a structurally independent first-order check.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from random import Random
from typing import NamedTuple

from .linalg import (
    IntegerRows,
    Mat,
    Subspace,
    format_rational,
    inf_op_norm,
    integer_kron,
    integer_product,
    invert_square,
    kernel_basis,
    row_sum_norm,
)
from .simplex import (
    InfeasibleProgram,
    LinearProgram,
    UnboundedProgram,
    solve_linear_program,
)


class SolverIntegrityError(RuntimeError):
    """The exact LP path produced something mathematically impossible."""


class OracleInconclusive(RuntimeError):
    """The floating-point oracle did not converge within its budget."""


class BudgetExceededError(RuntimeError):
    """An LP instance exceeds the configured size budget."""


class LPBudget(NamedTuple):
    """Size gate for exact LP solves; the simplex's pivot limit bounds their work."""

    max_ambient: int = 16

    def require(self, space: Subspace):
        if space.ambient_dim > self.max_ambient:
            raise BudgetExceededError(f"subspace of dimension {space.dim} in ell_inf^"
                                      f"{space.ambient_dim} exceeds LP budget "
                                      f"(ambient <= {self.max_ambient})")


DEFAULT_BUDGET = LPBudget()


def build_projection_lp(space: Subspace) -> LinearProgram:
    """The minimal-projection program for one subspace; pure construction, no solving.

    Variables, in fixed order: k*n coefficient entries C[p,q] (sign-free),
    n*n majorants M[i,j] (nonnegative), and the bound t.  Constraints:
    k^2 equalities C B^T = I, 2n^2 majorant inequalities, n row-sum rows.
    Rows list only their nonzeros: at most n per equality, k + 1 per
    majorant row, n + 1 per row-sum row, in the simplex's integer format from
    `space.integer_basis`, rows b over db: equality and majorant rows
    (entries of b, -db at the majorant) over db, the rest (+-1) over 1.
    """
    n, k = space.ambient_dim, space.dim
    b, db = space.integer_basis
    nv = k * n + n * n + 1
    c_var = lambda p, q: p * n + q
    m_var = lambda i, j: k * n + i * n + j
    t_var = nv - 1

    objective = [0] * nv
    objective[t_var] = 1
    free = [True] * (k * n) + [False] * (n * n) + [False]

    eq_rows, eq_rhs = [], []
    for p in range(k):
        for q in range(k):
            eq_rows.append({c_var(p, j): x for j, x in enumerate(b[q]) if x})
            eq_rhs.append(db if p == q else 0)

    ub_rows = []
    for i in range(n):
        plus = [(p, x) for p in range(k) if (x := b[p][i])]
        minus = [(p, -x) for p, x in plus]
        for j in range(n):
            # (B^T C)[i,j] = sum_p B[p,i] C[p,j]
            for column in (plus, minus):
                row = {c_var(p, j): x for p, x in column}
                row[m_var(i, j)] = -db
                ub_rows.append(row)
    for i in range(n):
        row = {m_var(i, j): 1 for j in range(n)}
        row[t_var] = -1
        ub_rows.append(row)

    return LinearProgram(objective, 1, eq_rows, eq_rhs, [db] * (k * k), ub_rows,
                         [0] * len(ub_rows), [db] * (2 * n * n) + [1] * n, free)


class ProjectionConstantResult(NamedTuple):
    """Certified value of lambda(E, ell_inf^n) with the optimal projection.

    Proved before construction by `check_certificate`: C B^T = I, so the
    projection B^T C is idempotent, fixes every basis row and maps into E;
    its exact norm equals `value`, attained on `witness`; and a checked dual
    shows that no projection onto E has a smaller norm.  The minimum is
    always attained (finite dimensions), so `attained` is a class constant.
    A result keeps C and the subspace, not the dual; `projection` and
    `witness` are rebuilt from them on each access, so a kept result holds
    k*n entries instead of n*n + n more.
    """

    value: Fraction
    minimizer_c: Mat
    space: Subspace
    attained = True

    @property
    def projection(self) -> Mat:
        """The optimal projection P = B^T C."""
        return self.space.basis.transpose() @ self.minimizer_c

    witness = property(lambda self: inf_op_norm(self.projection).witness)

    def to_json_dict(self) -> dict:
        projection = self.projection
        return {
            "lambda": format_rational(self.value),
            "projection": [
                [format_rational(x) for x in projection.row(i)]
                for i in range(projection.rows)
            ],
            "witness": list(inf_op_norm(projection).witness),
            "attained": self.attained,
        }


def _failed(check: str, detail: str) -> SolverIntegrityError:
    return SolverIntegrityError(f"certificate check '{check}' fails: {detail}")


class ProjectionCertificate(NamedTuple):
    """A primal-dual certificate that lambda(E, ell_inf^n) = value, for a basis B of E.

    `coeffs` is C (k x n), `dual` is W (n x n) and `restriction` is Lambda
    (k x k), each (rows, den): integer rows over one positive int
    denominator, not always in lowest terms; `weights` is w, (numerators,
    den).  `check_certificate` states what they must satisfy.
    """

    value: Fraction
    coeffs: IntegerRows
    dual: IntegerRows
    weights: tuple[list[int], int]
    restriction: IntegerRows

    def kron(self, other: "ProjectionCertificate") -> "ProjectionCertificate":
        """The certificate of E (x) F, spanned by the Kronecker products of
        the basis rows of E (self) and F (other).

        Every part is the Kronecker product of the factors' parts, so each
        condition of `check_certificate` is the product of the factors'
        conditions; absolute row sums multiply too.
        """
        (w, dw), (v, dv) = self.weights, other.weights
        [wv], dwv = integer_kron(([w], dw), ([v], dv))
        return ProjectionCertificate(
            self.value * other.value, integer_kron(self.coeffs, other.coeffs),
            integer_kron(self.dual, other.dual), (wv, dwv),
            integer_kron(self.restriction, other.restriction))


def check_certificate(basis: IntegerRows, cert: ProjectionCertificate) -> IntegerRows:
    """Prove lambda(E) = cert.value for the row space E of B = `basis`, or
    raise SolverIntegrityError naming the failed check.

    With B as (rows, den), like every part, the checks are, in order:

    * 'shape': the value is a `Fraction`, and B and the parts fit a
      k-dimensional subspace of ell_inf^n, as ints over positive int
      denominators, so no comparison below flips or vanishes;
    * 'C B^T = I': P = B^T C is then a projection onto E, as
      P^2 = B^T (C B^T) C = P and P B^T = B^T; B has full row rank, so it
      needs no separate rank check;
    * 'norm': the largest absolute row sum of P is the value, so
      lambda(E) <= value;
    * 'w >= 0' and 'sum w = 1';
    * '|W_ij| <= w_i';
    * 'B W = Lambda B';
    * 'tr Lambda': the trace of Lambda is the value.

    The last four give lambda(E) >= value by weak duality.  Any projection
    P' onto E is B^T C' with C' B^T = I, so
    <W, P'> = tr((B W)^T C') = tr(Lambda^T C' B^T) = tr Lambda, while
    <W, P'> <= sum_i w_i (row sum i of |P'|) <= norm(P').

    Nothing is converted.  This one checker proves every certificate, those
    that `projection_certificate` and `projection_constant` build too, with
    four integer matrix products and integer comparisons: no elimination and
    no `Fraction` temporaries, whose churn raises peak RSS when many results
    are kept; a detail is formatted only on failure.  No check trusts the
    code that made the certificate.  Returns the rows of P that the 'norm'
    check computes, as (rows, den).
    """
    b, db = basis
    value, (c, dc), (dual_rows, d_dual), (w, dw), (lam_rows, d_lam) = cert
    if type(value) is not Fraction:
        raise _failed("shape", f"value {value!r} is not a Fraction")
    k, n = len(b), len(b[0]) if b else 0
    if not (n and len(c) == len(lam_rows) == k and len(dual_rows) == len(w) == n
            and all(len(row) == n for row in (*b, *c, *dual_rows))
            and all(len(row) == k for row in lam_rows)):
        raise _failed("shape",
                      f"certificate does not fit a {k}-dimensional subspace of ell_inf^{n}")
    if not (all(type(d) is int and d > 0 for d in (db, dc, d_dual, dw, d_lam)) and all(
            type(x) is int for row in (*b, *c, *dual_rows, w, *lam_rows) for x in row)):
        raise _failed("shape", "a part is not integers over a positive int denominator")
    den = db * dc
    if not all(x == (den if p == q else 0)
               for p, row in enumerate(integer_product(c, b)) for q, x in enumerate(row)):
        raise _failed("C B^T = I", "C is not a left inverse of B^T")
    p_rows = integer_product(list(zip(*b)), list(zip(*c)))  # over den
    norm = row_sum_norm(p_rows).value
    if norm * value.denominator != value.numerator * den:
        raise _failed("norm",
                      f"value {value} disagrees with exact norm {Fraction(norm, den)} of B^T C")
    if min(w) < 0:
        raise _failed("w >= 0", "a weight is negative")
    if sum(w) != dw:
        raise _failed("sum w = 1", f"weights sum to {Fraction(sum(w), dw)}")
    if not all(abs(x) * dw <= wi * d_dual for wi, row in zip(w, dual_rows) for x in row):
        raise _failed("|W_ij| <= w_i", "an entry of W exceeds its row weight")
    bw = integer_product(b, list(zip(*dual_rows)))  # over db * d_dual
    lb = integer_product(lam_rows, list(zip(*b)))  # over d_lam * db
    if not all(x * d_lam == y * d_dual for bw_row, lb_row in zip(bw, lb)
               for x, y in zip(bw_row, lb_row)):
        raise _failed("B W = Lambda B", "W does not act on E as Lambda")
    trace = sum(lam_rows[i][i] for i in range(k))
    if trace * value.denominator != value.numerator * d_lam:
        raise _failed("tr Lambda", f"trace of Lambda is {Fraction(trace, d_lam)}, not {value}")
    return p_rows, den


def _checked_certificate(space: Subspace) -> tuple[ProjectionCertificate, list[list[int]], int]:
    """The certificate of lambda(E, ell_inf^n) from one LP solve, with the
    rows of P = B^T C over their denominator that `check_certificate`
    returns once it has proved the certificate.

    C is the optimal coefficient matrix, read off the levels of the final
    tableau over the lcm of their rows' denominators.  The dual is read off
    the slack duals u of the program of `build_projection_lp`, numerators
    over the final objective row's denominator: W_ij = u+_ij - u-_ij from
    the two majorant rows of entry (i, j), and w_i = u of row-sum row i.
    The optimality conditions of C's free variables say that B W = V B for
    the equality multipliers V, so Lambda = B W C^T: B C^T = I makes C^T a
    right inverse of B.  With k = n there is no program; C = B^-T,
    w = e_1, W = e_1 e_1^T and Lambda = B W C^T = B e_1 e_1^T B^-1.  Lambda
    is two integer products, and no part is ever a `Fraction`.

    The program is feasible and bounded by construction, so infeasibility
    or unboundedness out of the simplex is a solver-integrity failure.
    Running out of pivots proves nothing about the program, so
    `PivotLimitExceeded` propagates unchanged.
    """
    n, k = space.ambient_dim, space.dim
    b, db = space.integer_basis
    if k == n:
        value = Fraction(1)
        inverse = invert_square(space.basis.transpose())
        c, dc = list(map(list, inverse.numerator_rows())), inverse.den
        w, du = [1] + [0] * (n - 1), 1
        dual_rows = [w[:]] + [[0] * n for _ in range(n - 1)]  # e_1 e_1^T: row 0 a copy of w
    else:
        try:
            value, levels, u, du = solve_linear_program(build_projection_lp(space))
        except (InfeasibleProgram, UnboundedProgram) as exc:
            raise SolverIntegrityError(f"minimal-projection LP rejected: {exc}") from exc
        cells = k * n
        dc = math.lcm(*(d for j, (_, d) in levels.items() if j < cells))
        flat = [0] * cells
        for j, (x, d) in levels.items():
            if j < cells:
                flat[j] = x * (dc // d)
        c = [flat[i:i + n] for i in range(0, cells, n)]
        dual_rows = [[u[2 * e] - u[2 * e + 1] for e in range(i, i + n)]
                     for i in range(0, n * n, n)]
        w = u[2 * n * n:]
    # B W C^T over db * du * dc: the rows of C are the columns of C^T
    lam = integer_product(integer_product(b, list(zip(*dual_rows))), c)
    cert = ProjectionCertificate(value, (c, dc), (dual_rows, du), (w, du), (lam, db * du * dc))
    return (cert, *check_certificate((b, db), cert))


def projection_certificate(space: Subspace) -> ProjectionCertificate:
    """Exact lambda(E, ell_inf^n) with a checked primal-dual certificate in
    integer parts, from one LP solve (none when E is the whole space)."""
    return _checked_certificate(space)[0]


def projection_constant(space: Subspace) -> ProjectionConstantResult:
    """Exact lambda(E, ell_inf^n) for E given by `space`, proved minimal.

    The certificate of `projection_certificate` is checked but not kept:
    the result keeps its C, as a `Mat` of its integer rows.  The value
    must be at least 1 and be attained on the witness, the signs of P's
    first row of largest absolute sum (zeros read as +1), both read off the
    integer rows of P that the check returns.
    """
    (value, coeffs, *_), p_rows, den = _checked_certificate(space)
    if value < 1:
        raise SolverIntegrityError(f"projection constant below 1: {value}")
    witness = row_sum_norm(p_rows).witness
    image = integer_product(p_rows, [witness])
    if max(abs(x) for [x] in image) * value.denominator != value.numerator * den:
        raise SolverIntegrityError("norm witness does not attain the optimum")
    c, dc = coeffs
    minimizer = Mat(len(c), space.ambient_dim, tuple(chain.from_iterable(c)), dc)
    return ProjectionConstantResult(value, minimizer, space)


def feasible_perturbation(space: Subspace, coeffs: Mat, rng: Random) -> Mat:
    """A random coefficient matrix that still satisfies C B^T = I.

    Adds kernel-of-B combinations to each row of `coeffs`, which walks the
    feasible set of the minimal-projection program without leaving it.
    Each (row, kernel vector) pair draws its weight a / q, a from [-2, 2]
    and then q from [1, 2], also when a is 0.  The rows are integers over
    coeffs.den * dk * 2, with the kernel vectors over their common
    denominator dk and every weight over 2.
    """
    kernel, dk = kernel_basis(space.basis.numerator_rows())
    if not kernel:
        return coeffs
    lift = dk * 2
    nums = []
    for row in coeffs.numerator_rows():
        row = [x * lift for x in row]
        for vec in kernel:
            a, q = rng.randint(-2, 2), rng.randint(1, 2)
            if a:
                f = a * (2 // q) * coeffs.den
                row = [x + f * y for x, y in zip(row, vec)]
        nums += row
    return Mat(coeffs.rows, coeffs.cols, tuple(nums), coeffs.den * lift)


# ---------------------------------------------------------------------------
# floating-point oracle


# the descent's budget, read at call time: restarts, steps per restart, and
# the final step, to which the step decays geometrically from max(1, norm(P0))
ORACLE_RESTARTS = 8
ORACLE_ITERATIONS = 4000
ORACLE_FINAL_STEP = 1e-10


class OracleConfig(NamedTuple):
    seed: int = 0


def _restart_bests(space: Subspace, config: OracleConfig) -> list[float]:
    """The least objective value each restart of the descent reaches, in restart order.

    All restarts advance together as one (restarts, k, n-k) array.  Every
    product is stacked per restart, so each restart rounds exactly as it
    would on its own.  Where n - k = 1 the rank-one product
    (B^T Theta) @ null^T is one np.multiply instead, which can differ from
    the stacked product only in the sign of a zero; p = P0 + X erases that.
    Each step writes into buffers allocated once, before the loop, and
    updates Theta in place.  A restart whose gradient vanishes stops moving:
    its Theta repeats, so its gradient norm stays 0.  Each step counts the
    nonzero norms: only a step on which some norm is 0 divides under a mask,
    and the descent ends once every norm is 0.
    """
    import numpy as np

    basis = np.array([[float(x) for x in space.basis.row(i)]
                      for i in range(space.dim)])
    k, n = basis.shape
    bt = basis.T
    # Base point: C0 = (B B^T)^{-1} B satisfies C0 B^T = I.
    c0 = np.linalg.solve(basis @ basis.T, basis)
    # + 0.0 turns -0.0 into +0.0 and leaves every other entry as it is.  In
    # round-to-nearest x + y is -0.0 only when x and y both are, so no
    # p = P0 + X of the descent holds -0.0 either.
    p0 = bt @ c0 + 0.0
    p0_norm = float(np.abs(p0).sum(axis=1).max())

    _, s, vh = np.linalg.svd(basis)
    tol_rank = max(n, k) * (s[0] if len(s) else 1.0) * np.finfo(float).eps
    null = vh[(s > tol_rank).sum():].T  # n x (n-k), orthonormal columns
    n_free = null.shape[1]
    if n_free == 0:
        return [p0_norm]

    restarts, iterations = ORACLE_RESTARTS, ORACLE_ITERATIONS
    initial_step = max(1.0, p0_norm)
    decay = (ORACLE_FINAL_STEP / initial_step) ** (1.0 / iterations)
    # Restart 0 starts at Theta = 0, the others at normal draws taken in
    # restart order, each Theta row-major.
    rng = Random(config.seed)
    theta = np.zeros((restarts, k, n_free))
    theta[1:] = np.reshape([rng.gauss(0.0, initial_step)
                            for _ in range(theta[1:].size)], theta[1:].shape)

    best = np.full(restarts, math.inf)
    # Buffers and fixed views of them: row i* of restart r is row r*n + i* of
    # p_rows and entry r*n + i* of flat_sums.
    p, sums = np.empty((restarts, n, n)), np.empty((restarts, n))
    # P0 once per restart: adding two arrays of one shape is a single flat loop
    p0_stack = np.tile(p0, (restarts, 1, 1))
    abs_p, grad = np.empty_like(p), np.empty_like(theta)
    bt_theta = np.empty((restarts, n, n_free))
    signs_null = np.empty((restarts, 1, n_free))
    gnorm, scale = np.empty((restarts, 1, 1)), np.empty((restarts, 1, 1))
    flat = grad.reshape(restarts, 1, -1)
    flat_t = flat.transpose(0, 2, 1)
    p_rows, flat_sums = p.reshape(-1, 1, n), sums.reshape(-1)
    offsets = np.arange(0, restarts * n, n, dtype=np.intp)
    i_star, rows = np.empty_like(offsets), np.empty_like(offsets)
    bt_col, null_t = bt[:, :, None], null.T
    # With inner size n - k = 1, (B^T Theta) @ null^T is one rounded multiply
    # per entry, as np.multiply computes it; the two may differ only in the
    # sign of a zero, which p = P0 + X erases, since P0 holds no -0.0.
    outer = np.multiply if n_free == 1 else np.matmul
    step = initial_step
    for _ in range(iterations):
        outer(np.matmul(bt, theta, out=bt_theta), null_t, out=p)
        np.add(p0_stack, p, out=p)
        np.add.reduce(np.absolute(p, out=abs_p), axis=2, out=sums)
        np.add(sums.argmax(axis=1, out=i_star), offsets, out=rows)
        np.minimum(best, flat_sums.take(rows), out=best)
        # p is finite and never -0.0 (see P0 above), so copysign is np.sign
        # with 0 read as +1
        signs = np.copysign(1.0, p_rows.take(rows, axis=0))
        # (1 x n) @ (n x n-k) per restart: a 2-D product would round differently.
        np.multiply(bt_col.take(i_star, axis=0), np.matmul(signs, null, out=signs_null),
                    out=grad)
        # (1 x m) @ (m x 1) per restart: the dot product np.linalg.norm takes.
        np.sqrt(np.matmul(flat, flat_t, out=gnorm), out=gnorm)
        moving = np.count_nonzero(gnorm)
        if moving == restarts:
            np.divide(step, gnorm, out=scale)
        elif moving:
            scale.fill(0.0)
            np.divide(step, gnorm, out=scale, where=gnorm != 0.0)
        else:
            break
        # Theta -= (step / |grad|) * grad, in place
        np.subtract(theta, np.multiply(scale, grad, out=grad), out=theta)
        step *= decay
    return best.tolist()


def float_oracle(space: Subspace, tol: float = 1e-6,
                 config: OracleConfig = OracleConfig()) -> float:
    """Estimate lambda(E, ell_inf^n) by a first-order method, independently
    of the exact LP path.

    Parametrises the feasible coefficient matrices as C0 + Theta K^T with K a
    kernel basis of B, and runs subgradient descent with geometrically
    decaying steps on the piecewise-linear objective max-row-abs-sum.  All
    ORACLE_RESTARTS restarts advance together as one batch: restart 0
    starts at Theta = 0, the others at normal draws of
    `random.Random(config.seed)` (which reads a negative seed by its absolute
    value).  Raises OracleInconclusive when the two best restarts fail to
    agree to within tol/4; that signals an exhausted budget, not a refutation
    of the exact value.  With n = k there is nothing to descend and the
    estimate is the norm of the unique projection.  A `tol` that is not
    finite and positive raises ValueError.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"oracle tol must be finite and positive, got {tol}")
    results = sorted(_restart_bests(space, config))
    if len(results) >= 2 and results[1] - results[0] > tol / 4:
        raise OracleInconclusive(
            f"restart agreement {results[1] - results[0]:.3e} exceeds {tol / 4:.3e}"
        )
    return results[0]
