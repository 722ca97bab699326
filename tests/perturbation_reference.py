"""The former `Fraction` `minproj.feasible_perturbation`, kept as a test oracle.

`feasible_perturbation` is the package's former function, verbatim but
for reading `kernel_basis`'s integer rows as the `Fraction` vectors it
returned then: it walks each row of C in `Fraction`s, one multiply-add per
entry and kernel vector, and builds the result with `Mat.from_rows`.  The
integer version must return the same matrix and leave the generator in the
same state.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from linalg_reference import kernel_fractions

from projconst.linalg import Mat, Subspace, kernel_basis


def feasible_perturbation(space: Subspace, coeffs: Mat, rng: Random,
                          spread: int = 3) -> Mat:
    """A random coefficient matrix that still satisfies C B^T = I.

    Adds kernel-of-B combinations to each row of `coeffs`, which walks the
    feasible set of the minimal-projection program without leaving it.
    """
    kernel = kernel_fractions(kernel_basis(space.basis.numerator_rows()))
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
