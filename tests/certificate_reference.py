"""Projection certificates built the `Fraction` way, as a differential oracle.

`reference_certificate` is the former body of `minproj._checked_certificate`
without its check: C and the slack duals u come from the solver's `Fraction`
views, W = u+ - u- is formed entry by entry, and Lambda = B W C^T is two
`Mat` products.  With k = n there is no program: C = B^-T, w = e_1 and
W = e_1 e_1^T.  `minproj.projection_certificate` must give the identical
(value, C, W, w, Lambda).
"""

from fractions import Fraction

from projconst.linalg import Mat, Subspace, invert_square
from projconst.minproj import ProjectionCertificate, build_projection_lp
from projconst.simplex import solve_linear_program

_ZERO = Fraction(0)
_ONE = Fraction(1)


def reference_certificate(space: Subspace) -> ProjectionCertificate:
    n, k = space.ambient_dim, space.dim
    if k == n:
        value = _ONE
        coeffs = invert_square(space.basis.transpose())
        weights = (_ONE,) + (_ZERO,) * (n - 1)
        dual = Mat(n, n, weights + (_ZERO,) * (n * n - n))  # e_1 e_1^T: row 0 is w
    else:
        solution = solve_linear_program(build_projection_lp(space))
        value, x, u = solution.value, solution.assignment, solution.slack_duals
        coeffs = Mat(k, n, tuple(x[: k * n]))
        dual = Mat(n, n, tuple(u[2 * e] - u[2 * e + 1] for e in range(n * n)))
        weights = tuple(u[2 * n * n:])
    restriction = space.basis @ dual @ coeffs.transpose()
    return ProjectionCertificate(value, coeffs, dual, weights, restriction)
