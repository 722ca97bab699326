"""Zero-sum amplification of projection constants.

For a subspace E of ell_inf^d and N >= 2, the zero-sum space collects the
N-tuples of E-vectors whose blocks sum to zero, sitting inside ell_inf^{dN}.
Blocks are contiguous: coordinate r of block i sits at flat index i*d + r,
the index order of `Mat.kron`, so the zero-sum space of E is ker_N (x) E
(ker_N the zero-sum hyperplane of ell_inf^N) and the centring map is
(I - J/N) (x) I_d.  Only this module knows that layout.  No block
permutation is ever applied: `symmetrize` averages over all of them in
closed form, and `extract_r` decides invariance under all of them in one
pass over the blocks.  Three exact facts drive everything here:

* the centring map, which subtracts the blockwise mean, projects onto the
  zero-sum space of the full block space with norm exactly 2 - 2/N;
* averaging any projection onto a zero-sum space over all block permutations
  collapses it to (coordinatewise lift of R) o (centring map) for a single
  projection R of ell_inf^d onto E; and
* that collapse forces lambda(zero-sum space) = (2 - 2/N) * lambda(E).

`sigma_steps` is the one certified zero-sum step.  It proves each level
Sigma_N^k(E) = ker_N^(x)k (x) E with a tensored primal-dual certificate in
integer parts, not with a linear program: the closed form of ker_N's
(`sum_kernel_certificate`) tensored with the previous level's, checked by
`minproj.check_certificate` in the level's full space, where weak duality
proves the value minimal; a level's basis is integer rows, never a `Mat`,
and `CHECK_LIMIT` bounds its ambient dimension.  No check assumes the law.
Only the base is an exact LP solve, made once by the caller:
`verify_multiplication_law` compares one step with it, and
`planner.demonstrate_schedule` runs several.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random
from typing import Iterator, NamedTuple

from .linalg import (
    Mat,
    Subspace,
    format_rational,
    inf_op_norm,
    integer_kron,
    invert_square,
    projection_defect,
)
from .minproj import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    LPBudget,
    ProjectionCertificate,
    check_certificate,
    feasible_perturbation,
    projection_certificate,
)
from .simplex import PivotLimitExceeded

# largest ambient dimension of a Sigma level's check: about 1 s at ell_inf^192
CHECK_LIMIT = 192


class NotAProjectionError(ValueError):
    """Input matrix is not a projection onto a zero-sum space."""


class NotSymmetrizedError(ValueError):
    """Input matrix does not commute with the block permutations."""


class DecompositionIntegrityError(ValueError):
    """A symmetrized projection failed a structural identity it must satisfy."""


def amplification_factor(copies: int) -> Fraction:
    """The exact norm 2 - 2/N of the centring projection on N blocks."""
    if copies < 2:
        raise ValueError(f"need at least 2 copies, got {copies}")
    return 2 - Fraction(2, copies)


class _ZeroSumFields(NamedTuple):
    base: Subspace
    copies: int


class ZeroSumSpace(_ZeroSumFields):
    """The zero-sum tuples of `copies` blocks of a base: ker_N (x) base, built on access."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        _check_blocks(self.base.ambient_dim, self.copies)
        return self

    # basis rows pair each base row b with one of the later blocks:
    # (b in block 1, -b in block j, 0 elsewhere), giving dimension (N-1)*k
    space = property(lambda self: Subspace(_sum_kernel_rows(self.copies).kron(self.base.basis)))
    ambient_dim = property(lambda self: self.base.ambient_dim * self.copies)
    mu = property(lambda self: amplification_factor(self.copies))


def _check_blocks(block_dim: int, copies: int, m: Mat | None = None):
    """Validate a block structure and, when given, that `m` is dN x dN."""
    if block_dim < 1:
        raise ValueError(f"invalid block dimension {block_dim}")
    amplification_factor(copies)  # rejects N < 2
    size = block_dim * copies
    if m is not None and (m.rows, m.cols) != (size, size):
        raise ValueError(f"matrix is {m.rows}x{m.cols}, expected {size}x{size}")


def _sum_kernel_rows(dim: int) -> Mat:
    """The rows e_1 - e_j, j = 2..dim: a basis of ker_dim, one row per later block."""
    return Mat(dim - 1, dim, tuple(1 if c == 0 else -1 if c == j else 0
                                   for j in range(1, dim) for c in range(dim)))


def sigma_subspace(base: Subspace, copies: int) -> ZeroSumSpace:
    """The zero-sum space ker_N (x) E of `copies` blocks of `base`, in ell_inf^{d*copies}."""
    return ZeroSumSpace(base, copies)


def coordinate_sum_kernel(dim: int) -> Subspace:
    """The hyperplane ker_n = {x : x_1 + ... + x_n = 0} of ell_inf^n.

    This is exactly the zero-sum space of n scalar blocks; its projection
    constant is 2 - 2/n, attained by the centring projection.
    """
    if dim < 2:
        raise ValueError(f"kernel hyperplane needs dimension >= 2, got {dim}")
    return Subspace(_sum_kernel_rows(dim))


def sum_kernel_certificate(copies: int) -> ProjectionCertificate:
    """The closed-form certificate of lambda(ker_N) = 2 - 2/N, for the basis of
    `coordinate_sum_kernel`, every part over N.

    C is read off the centring map I - J/N = B^T C: row j - 1 of C is
    1/N - e_j.  The dual is w = 1/N, W = (2I - J)/N and Lambda = (2/N) I,
    since the rows of B sum to zero, so B J = 0 and B W = (2/N) B.
    """
    n = copies
    coeffs = [[1 - n if c == j else 1 for c in range(n)] for j in range(1, n)]
    dual = [[1 if r == c else -1 for c in range(n)] for r in range(n)]
    restriction = [[2 if p == q else 0 for q in range(n - 1)] for p in range(n - 1)]
    return ProjectionCertificate(amplification_factor(n), (coeffs, n), (dual, n),
                                 ([1] * n, n), (restriction, n))


def centring_projection(block_dim: int, copies: int) -> Mat:
    """The map (I - J/N) (x) I_d subtracting the blockwise mean from every block.

    Entry ((i,r),(j,c)) is delta_rc * (N delta_ij - 1) / N; rows sum in
    absolute value to exactly 2 - 2/N, independent of the block dimension.
    """
    _check_blocks(block_dim, copies)
    blocks = [(i, r) for i in range(copies) for r in range(block_dim)]
    return Mat(len(blocks), len(blocks), tuple(
        (copies * (i == j) - 1) * (r == c) for i, r in blocks for j, c in blocks), copies)


def centring_witness(block_dim: int, copies: int) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """A norm-attaining input for the centring map, and its image.

    The input is (1, -1, ..., -1) (x) u with u the first coordinate vector.
    Its image (2 - 2/N, -2/N, ..., -2/N) (x) u, of sup norm exactly 2 - 2/N,
    is written in closed form, numerators over N, not computed with the map.
    """
    _check_blocks(block_dim, copies)
    u = (0,) * (block_dim - 1)
    x = Mat(1, block_dim * copies, (1, *u) + (-1, *u) * (copies - 1))
    image = Mat(1, block_dim * copies, (2 * copies - 2, *u) + (-2, *u) * (copies - 1), copies)
    return x.entries, image.entries


def _block_sums_vanish(m: Mat, block_dim: int, copies: int) -> bool:
    return not any(sum(col[r::block_dim]) for col in m.numerator_cols()
                   for r in range(block_dim))


def symmetrize(p: Mat, block_dim: int, copies: int) -> Mat:
    """Average U_sigma^{-1} P U_sigma over all block permutations sigma.

    `p` must be a projection of ell_inf^{d N} whose range lies in the
    zero-sum set (both checked).  The average again projects onto the same
    range, commutes with every block permutation, and never has larger norm.
    Block (i, j) of U_sigma^{-1} P U_sigma is block (sigma(i), sigma(j)) of P,
    so the average has a closed form: every diagonal block is the mean of the
    diagonal blocks of P and every off-diagonal block the mean of its
    off-diagonal blocks.  That costs O(N^2 d^2) for any N >= 2.
    """
    d, n = block_dim, copies
    _check_blocks(d, n, p)
    size = d * n
    if not p.is_idempotent():
        raise NotAProjectionError("matrix is not idempotent")
    if not _block_sums_vanish(p, d, n):
        raise NotAProjectionError("range is not inside the zero-sum set")
    # block sums of the numerators; the means are a = diag / N and
    # b = off / (N (N-1)), so over p.den N (N-1): a = diag (N-1), b = off
    diag = [[0] * d for _ in range(d)]
    off = [[0] * d for _ in range(d)]
    for row, nums in enumerate(p.numerator_rows()):
        i, r = divmod(row, d)
        for col, x in enumerate(nums):
            j, c = divmod(col, d)
            (diag if i == j else off)[r][c] += x
    a = [[x * (n - 1) for x in line] for line in diag]
    return Mat(size, size, tuple((a if i == j else off)[r][c]
                                 for i in range(n) for r in range(d)
                                 for j in range(n) for c in range(d)), p.den * n * (n - 1))


def _block_nums(rows: tuple[tuple[int, ...], ...], d: int, i: int) -> list[int]:
    """The numerators of block (i, 0), d x d, row by row."""
    return [x for row in rows[i * d:i * d + d] for x in row[:d]]


class SymmetrizationDecomposition(NamedTuple):
    """Structure of a permutation-invariant projection onto a zero-sum space.

    `r` is a projection of the block space onto the base subspace with
    p_tilde = lift(r) o centring and norm(p_tilde) = (2 - 2/N) * norm(r)
    exactly; both norms are kept.  `a`, the action on a block from that
    block's own copy, and `b`, the action from every other copy, are read
    off p_tilde on access; r = a - b.
    """

    p_tilde: Mat
    r: Mat
    p_tilde_norm: Fraction
    r_norm: Fraction

    def _block(self, i: int) -> Mat:
        d, p = self.r.rows, self.p_tilde
        return Mat(d, d, tuple(_block_nums(p.numerator_rows(), d, i)), p.den)

    a = property(lambda self: self._block(0))
    b = property(lambda self: self._block(1))


def extract_r(p_tilde: Mat, base: Subspace, copies: int) -> SymmetrizationDecomposition:
    """Read off the block structure of a symmetrized projection.

    Verifies, exactly: invariance under block permutations, the trace
    condition a + (N-1) b = 0, idempotence of r = a - b, that r fixes the
    base subspace, and the norm identity.

    With a = block (0, 0) and b = block (1, 0), one pass checks that every
    diagonal block is a and every other block b.  S_N maps any block to any
    other and any ordered pair of distinct blocks to any other, so this is
    exactly invariance under every block permutation.  The trace condition
    then gives a = (1 - 1/N) r and b = -r/N, so block (i, j) is already
    (delta_ij - 1/N) r: p_tilde = lift(r) o centring needs no further check.
    """
    d, n = base.ambient_dim, copies
    _check_blocks(d, n, p_tilde)
    rows = p_tilde.numerator_rows()
    a, b = _block_nums(rows, d, 0), _block_nums(rows, d, 1)
    if any(x != (a if row // d == col // d else b)[row % d * d + col % d]
           for row, nums in enumerate(rows) for col, x in enumerate(nums)):
        raise NotSymmetrizedError("matrix does not commute with the block permutations")

    if any(x + (n - 1) * y for x, y in zip(a, b)):
        raise DecompositionIntegrityError("block trace a + (N-1) b does not vanish")

    r = Mat(d, d, tuple(x - y for x, y in zip(a, b)), p_tilde.den)
    defect = projection_defect(r, base)
    if defect:
        raise DecompositionIntegrityError(f"collapsed block map {defect}")
    p_tilde_norm, r_norm = inf_op_norm(p_tilde).value, inf_op_norm(r).value
    if p_tilde_norm != amplification_factor(n) * r_norm:
        raise DecompositionIntegrityError("norm identity (2 - 2/N) * norm(r) fails")
    return SymmetrizationDecomposition(p_tilde, r, p_tilde_norm, r_norm)


def random_projection_onto(zs: ZeroSumSpace, rng: Random) -> Mat:
    """A random exact projection of the block space onto the zero-sum space.

    P = G^T D with D G^T = I: the base solution (G G^T)^{-1} G plus random
    kernel-of-G rows.  Used to exercise symmetrization away from the
    LP minimizer.
    """
    space = zs.space
    g = space.basis
    d0 = invert_square(g @ g.transpose()) @ g
    return g.transpose() @ feasible_perturbation(space, d0, rng)


class _LawFields(NamedTuple):
    base_lambda: Fraction | None
    sigma_lambda: Fraction | None  # None exactly when the run is inconclusive
    copies: int
    block_dim: int


class MultiplicationLawReport(_LawFields):
    """Outcome of certifying lambda(zero-sum space) = (2 - 2/N) * lambda(E)
    for a base E in ell_inf^block_dim; a zero-sum value needs a base value."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        _check_blocks(self.block_dim, self.copies)
        if self.base_lambda is None and self.sigma_lambda is not None:
            raise ValueError(f"zero-sum value {self.sigma_lambda} without a base value")
        return self

    ambient_dim = property(lambda self: self.block_dim * self.copies)
    mu = property(lambda self: amplification_factor(self.copies))
    status = property(lambda self: "inconclusive" if self.sigma_lambda is None else "ok")
    product = property(lambda self: None if self.base_lambda is None
                       else self.mu * self.base_lambda)
    equal = property(lambda self: None if self.sigma_lambda is None
                     else self.sigma_lambda == self.product)

    def to_json_dict(self) -> dict:
        fmt = lambda x: None if x is None else format_rational(x)
        return {
            "base_lambda": fmt(self.base_lambda),
            "mu_N": format_rational(self.mu),
            "sigma_lambda": fmt(self.sigma_lambda),
            "product": fmt(self.product),
            "equal": self.equal,
            "N": self.copies,
            "ambient_dim": self.ambient_dim,
            "status": self.status,
        }


def sigma_steps(base: Subspace, certificate: ProjectionCertificate, copies: int,
                steps: int, factor: ProjectionCertificate | None = None
                ) -> Iterator[tuple[int, Fraction | None]]:
    """Certify lambda(Sigma_N^k(base)) for k = 1..steps from a certificate of the base.

    Level k's certificate is ker_N's, `factor` or, when that is None,
    `sum_kernel_certificate(N)`, tensored with level k - 1's, and
    `check_certificate` proves it in the level's own space,
    ell_inf^{d N^k}, with products only; weak duality makes the value
    minimal, so no level solves a linear program.  `certificate` is the
    base's, as `projection_certificate` returns it.  A negative `steps`,
    or N < 2 with `steps` > 0, raises before anything is built; zero steps
    yield nothing, whatever N.

    Yields (ambient_dim, lambda) for each step.  A step's ambient dimension
    is checked against `CHECK_LIMIT` before its basis is built, so a large N
    costs nothing; a step beyond it yields (ambient_dim, None) and ends the
    run.  A level is kept as its basis alone, ker_N's integer rows, made once
    per call, tensored by `integer_kron` with the level before, as the
    certificates are: the check 'C B^T = I' proves full row rank, so no
    `Subspace` with its rank elimination is built.
    """
    if steps < 0:
        raise ValueError(f"negative step count {steps}")
    if steps:
        amplification_factor(copies)  # rejects N < 2
    basis, kernel = base.integer_basis, None
    for _ in range(steps):
        ambient = len(basis[0][0]) * copies
        if ambient > CHECK_LIMIT:
            yield ambient, None
            return
        if kernel is None:
            kernel = _sum_kernel_rows(copies).numerator_rows(), 1
        if factor is None:
            factor = sum_kernel_certificate(copies)
        basis = integer_kron(kernel, basis)
        certificate = factor.kron(certificate)
        check_certificate(basis, certificate)
        yield ambient, certificate.value


def verify_multiplication_law(base: Subspace, copies: int, budget: LPBudget = DEFAULT_BUDGET,
                              factor: ProjectionCertificate | None = None
                              ) -> MultiplicationLawReport:
    """Certify the amplification law for one base subspace.

    The base is one exact LP solve, whose primal-dual certificate the
    zero-sum side, one step of `sigma_steps`, tensors with that of ker_N
    (`factor`, as `sigma_steps` takes it) and checks in ell_inf^{dN}; a
    check that fails raises `SolverIntegrityError` naming it.  When the
    base exceeds the LP budget or the simplex pivot limit, or the zero-sum
    side `CHECK_LIMIT`, the report comes back flagged inconclusive instead
    of raising.
    """
    amplification_factor(copies)  # rejects N < 2 before the base's LP
    try:
        budget.require(base)
        certificate = projection_certificate(base)
    except (BudgetExceededError, PivotLimitExceeded):
        return MultiplicationLawReport(None, None, copies, base.ambient_dim)
    [(_, sigma_lambda)] = sigma_steps(base, certificate, copies, 1, factor)
    return MultiplicationLawReport(certificate.value, sigma_lambda, copies, base.ambient_dim)
