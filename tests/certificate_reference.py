"""Projection certificates built the `Fraction` way, as a differential oracle.

`reference_certificate` is the former body of `minproj._checked_certificate`
without its check: C and the slack duals u come from the solver's `Fraction`
views (`simplex_reference.assignment` and `slack_duals`), W = u+ - u- is formed entry by entry, and Lambda = B W C^T is two
`Mat` products.  With k = n there is no program: C = B^-T, w = e_1 and
W = e_1 e_1^T.  `reference_sum_kernel` is the former `Fraction` closed form
of ker_N's certificate, and `FractionCertificate.kron` the former Kronecker
product: three `Mat.kron`s and the products of the weights.

`minproj` keeps a certificate as integer parts, not necessarily in lowest
terms; `as_fractions` reads them by value (`Fraction(x, den)`), so that a
certificate compares equal to its reference exactly when every part has the
same value.
"""

from fractions import Fraction
from typing import NamedTuple

from linalg_reference import identity, integer_scale
from simplex_reference import assignment, slack_duals

from projconst.linalg import Mat, Subspace, invert_square
from projconst.minproj import ProjectionCertificate, build_projection_lp
from projconst.simplex import solve_linear_program

_ZERO = Fraction(0)
_ONE = Fraction(1)


class FractionCertificate(NamedTuple):
    """(value, C, W, w, Lambda) with C, W and Lambda as `Mat`s and w as `Fraction`s."""

    value: Fraction
    coeffs: Mat
    dual: Mat
    weights: tuple[Fraction, ...]
    restriction: Mat

    def kron(self, other: "FractionCertificate") -> "FractionCertificate":
        return FractionCertificate(
            self.value * other.value,
            self.coeffs.kron(other.coeffs),
            self.dual.kron(other.dual),
            tuple(a * b for a in self.weights for b in other.weights),
            self.restriction.kron(other.restriction))


def as_mat(part) -> Mat:
    """An integer part (rows, den) of a certificate as the `Mat` of its values."""
    rows, den = part
    return Mat.from_rows([[Fraction(x, den) for x in row] for row in rows])


def as_fractions(cert: ProjectionCertificate) -> FractionCertificate:
    w, dw = cert.weights
    return FractionCertificate(cert.value, as_mat(cert.coeffs), as_mat(cert.dual),
                               tuple(Fraction(x, dw) for x in w), as_mat(cert.restriction))


def reference_certificate(space: Subspace) -> FractionCertificate:
    n, k = space.ambient_dim, space.dim
    if k == n:
        value = _ONE
        coeffs = invert_square(space.basis.transpose())
        weights = (_ONE,) + (_ZERO,) * (n - 1)
        dual = Mat.from_rows([weights] + [(_ZERO,) * n] * (n - 1))  # e_1 e_1^T: row 0 is w
    else:
        program = build_projection_lp(space)
        solution = solve_linear_program(program)
        value = solution.value
        x, u = assignment(solution, program.num_vars), slack_duals(solution)
        coeffs = Mat.from_rows([x[p * n:(p + 1) * n] for p in range(k)])
        dual = Mat.from_rows([[u[2 * e] - u[2 * e + 1] for e in range(i, i + n)]
                              for i in range(0, n * n, n)])
        weights = tuple(u[2 * n * n:])
    restriction = space.basis @ dual @ coeffs.transpose()
    return FractionCertificate(value, coeffs, dual, weights, restriction)


def reference_sum_kernel(copies: int) -> FractionCertificate:
    """C has rows 1/N - e_j, w = 1/N, W = (2I - J)/N and Lambda = (2/N) I."""
    n = copies
    mean = Fraction(1, n)
    coeffs = Mat.from_rows([[mean - 1 if c == j else mean for c in range(n)]
                            for j in range(1, n)])
    dual = Mat.from_rows([[mean if r == c else -mean for c in range(n)] for r in range(n)])
    return FractionCertificate(2 - 2 * mean, coeffs, dual, (mean,) * n,
                               integer_scale(identity(n - 1), 2 * mean))
