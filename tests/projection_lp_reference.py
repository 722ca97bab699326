"""The minimal-projection program built the `Fraction` way, as a differential oracle.

`reference_projection_lp` is the former body of `minproj.build_projection_lp`:
every entry is a `Fraction` read off the basis `Mat`, and the objective,
the right-hand sides and the +-1 entries are `Fraction` constants.  It
returns a `simplex_reference.RationalProgram`, the form in which
`simplex_reference.by_value` reads an integer program, so the two compare
equal exactly when every entry has the same value.
"""

from fractions import Fraction

from linalg_reference import entry
from simplex_reference import RationalProgram

from projconst.linalg import Subspace

_ZERO = Fraction(0)
_ONE = Fraction(1)
_MINUS_ONE = Fraction(-1)


def reference_projection_lp(space: Subspace) -> RationalProgram:
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
            eq_rows.append({c_var(p, j): x for j in range(n) if (x := entry(basis, q, j))})
            eq_rhs.append(_ONE if p == q else _ZERO)

    ub_rows = []
    for i in range(n):
        plus = [(p, x) for p in range(k) if (x := entry(basis, p, i))]
        minus = [(p, -x) for p, x in plus]
        for j in range(n):
            # (B^T C)[i,j] = sum_p B[p,i] C[p,j]
            for column in (plus, minus):
                row = {c_var(p, j): x for p, x in column}
                row[m_var(i, j)] = _MINUS_ONE
                ub_rows.append(row)
    for i in range(n):
        row = {m_var(i, j): _ONE for j in range(n)}
        row[t_var] = _MINUS_ONE
        ub_rows.append(row)
    ub_rhs = [_ZERO] * len(ub_rows)

    return RationalProgram(objective, eq_rows, eq_rhs, ub_rows, ub_rhs, free)
