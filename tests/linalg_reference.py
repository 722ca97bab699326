"""The `Fraction` linear algebra that `projconst.linalg` replaced, kept as a test oracle.

`_reduce`, `rank_of_rows`, `solve_linear_system`, `kernel_basis`,
`invert_square` and `subspace_contains` are the package's former functions,
verbatim: one elimination loop over `Fraction` rows behind four wrappers.
The integer-row kernel must give the identical rank, kernel basis and
inverse, or raise the same exception, on every input.
`solve_linear_system` and `subspace_contains` have no caller left in the
package; the tests use them from here.  `maps_into` is the range check the
package ran before `projection_defect`: one membership test per column.
`mat_compose` is the former matrix product, one `Fraction` multiply-add per
nonzero pair of factors; `kron`, `add`, `scale`, `transpose` and
`inf_op_norm` are the other former `Mat` operations, on the `Fraction`
entries that `Mat` stored before it stored integer numerators, and
`integer_row` is the former conversion of `Fraction`s to numerators over
one denominator.  Each operation returns its matrix through `from_flat`,
the former flat constructor.  `rows_of` lists a matrix's rows as
`Fraction` lists, and `integer_rows` writes `Fraction` rows as the integer
rows that the package's elimination takes.  `reference_pivot_rows` is the former integer-row
pivot, verbatim with its `lowest_terms`: it builds every changed row anew at
full width, where the package's kernel updates rows in place over their
nonzeros.  Both must leave identical rows and denominators after every pivot.
`identity`, `zeros`, `integer_add` and `integer_scale` are the former
`Mat.identity`, `Mat.zeros`, `Mat.add` and `Mat.scale`, verbatim on integer
numerators, and `entry` and `column` the former `Mat.at` and `Mat.col`
views; only tests call them, so they live here.  `kernel_fractions` reads
the package's `kernel_basis`, integer rows over one denominator, as the
`Fraction` vectors that `kernel_basis` here returns.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from projconst.linalg import Mat, RankDeficientError, Subspace, as_rat


def from_flat(rows: int, cols: int, entries: Sequence[Fraction]) -> Mat:
    """The matrix with these row-major `Fraction` entries."""
    return Mat.from_rows([entries[i * cols:(i + 1) * cols] for i in range(rows)])


def rows_of(m: Mat) -> list[list[Fraction]]:
    return [list(m.row(i)) for i in range(m.rows)]


def entry(m: Mat, i: int, j: int) -> Fraction:
    return Fraction(m.nums[i * m.cols + j], m.den)


def column(m: Mat, j: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(x, m.den) for x in m.nums[j::m.cols])


def kernel_fractions(kernel: tuple[Sequence[Sequence[int]], int]) -> list[list[Fraction]]:
    """Integer rows over one denominator, as `Fraction` vectors."""
    rows, den = kernel
    return [[Fraction(x, den) for x in row] for row in rows]


def integer_rows(rows: Iterable[Sequence[Fraction]]) -> list[list[int]]:
    """Each row's numerators over its own denominator, the input that
    `projconst.linalg`'s elimination takes."""
    return [integer_row(row)[0] for row in rows]


def integer_row(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Numerators of `values` over the lcm of their denominators."""
    den = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


def transpose(m: Mat) -> Mat:
    return from_flat(m.cols, m.rows, tuple(m.entries[i * m.cols + j]
                                           for j in range(m.cols) for i in range(m.rows)))


def add(a: Mat, b: Mat) -> Mat:
    return from_flat(a.rows, a.cols, tuple(x + y for x, y in zip(a.entries, b.entries)))


def scale(m: Mat, factor) -> Mat:
    f = as_rat(factor)
    return from_flat(m.rows, m.cols, tuple(f * x for x in m.entries))


def identity(n: int) -> Mat:
    return Mat(n, n, tuple(int(i == j) for i in range(n) for j in range(n)))


def zeros(rows: int, cols: int) -> Mat:
    return Mat(rows, cols, (0,) * (rows * cols))


def integer_add(a: Mat, b: Mat) -> Mat:
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError(
            f"shape mismatch in matrix sum: {a.rows}x{a.cols} vs {b.rows}x{b.cols}"
        )
    den = math.lcm(a.den, b.den)
    s, t = den // a.den, den // b.den
    return Mat(a.rows, a.cols, tuple(x * s + y * t for x, y in zip(a.nums, b.nums)), den)


def integer_scale(m: Mat, factor) -> Mat:
    f = as_rat(factor)
    return Mat(m.rows, m.cols, tuple(f.numerator * x for x in m.nums), m.den * f.denominator)


def kron(a: Mat, b: Mat) -> Mat:
    """a[i, j] * b[r, c] at row i * b.rows + r, column j * b.cols + c; a
    product with a factor 0 or 1 is not formed."""
    zero = Fraction(0)
    return from_flat(a.rows * b.rows, a.cols * b.cols, tuple(
        (y if x == 1 else x if y == 1 else x * y) if x and y else zero
        for i in range(a.rows) for r in range(b.rows)
        for x in a.row(i) for y in b.row(r)))


def inf_op_norm(m: Mat) -> tuple[Fraction, tuple[int, ...], int]:
    """(value, witness, row index): the largest absolute row sum, the signs
    of the first row that attains it (zeros as +1), and that row."""
    best = Fraction(-1)
    best_row = 0
    for i in range(m.rows):
        s = sum((abs(x) for x in m.row(i)), Fraction(0))
        if s > best:
            best, best_row = s, i
    witness = tuple(1 if x >= 0 else -1 for x in m.row(best_row))
    return best, witness, best_row


def subspace_contains(space: Subspace, vector: Sequence) -> bool:
    """Exact membership test: is the vector a combination of the basis rows?"""
    if len(vector) != space.ambient_dim:
        raise ValueError(
            f"vector of length {len(vector)} vs ambient dimension {space.ambient_dim}"
        )
    vec = [as_rat(x) for x in vector]
    # Solve B^T x = v; consistency is exactly membership in the row space.
    bt = rows_of(space.basis.transpose())
    return solve_linear_system(bt, vec) is not None


def _reduce(rows: Sequence[Sequence], ncols: int) -> tuple[list[list], list[int]]:
    """Gauss-Jordan elimination of `rows` on their first `ncols` columns.

    Pivots on the first nonzero entry at or below the current rank and stops
    once every row has a pivot.  Returns the reduced rows and the pivot
    columns: row r has a 1 in column pivots[r] and every other row a 0 there;
    the rows after the last pivot row vanish on the first `ncols` columns.
    Columns beyond `ncols` are carried along (augmented right-hand sides).
    """
    work = [list(r) for r in rows]
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == len(work):
            break
        pivot = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        prow = work[rank]
        inv = 1 / prow[col]
        work[rank] = prow = [x * inv for x in prow]
        for i in range(len(work)):
            if i != rank and work[i][col]:
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], prow)]
        pivots.append(col)
    return work, pivots


def rank_of_rows(rows: Iterable[Sequence[Fraction]]) -> int:
    rows = list(rows)
    if not rows:
        return 0
    return len(_reduce(rows, len(rows[0]))[1])


def solve_linear_system(rows: Sequence[Sequence[Fraction]],
                        rhs: Sequence[Fraction]) -> list[Fraction] | None:
    """One exact solution of A x = b (free variables set to 0), or None."""
    m = len(rows)
    if m != len(rhs):
        raise ValueError("system shape mismatch")
    n = len(rows[0]) if m else 0
    aug, pivots = _reduce([list(rows[i]) + [as_rat(rhs[i])] for i in range(m)], n)
    if any(row[n] for row in aug[len(pivots):]):
        return None
    x = [Fraction(0)] * n
    for row, c in zip(aug, pivots):
        x[c] = row[n]
    return x


def kernel_basis(rows: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Exact basis of the null space {x : A x = 0}, deterministic order."""
    n = len(rows[0]) if rows else 0
    work, pivots = _reduce(rows, n)
    pivot_cols = set(pivots)
    basis = []
    for free in range(n):
        if free in pivot_cols:
            continue
        vec = [Fraction(0)] * n
        vec[free] = Fraction(1)
        for row, c in zip(work, pivots):
            vec[c] = -row[free]
        basis.append(vec)
    return basis


def invert_square(m: Mat) -> Mat:
    """Exact inverse of a square matrix; singular input is a rank error."""
    if m.rows != m.cols:
        raise ValueError(f"cannot invert {m.rows}x{m.cols} matrix")
    n = m.rows
    aug, pivots = _reduce(
        [list(m.row(i)) + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
         for i in range(n)], n)
    if len(pivots) < n:
        raise RankDeficientError("matrix is singular")
    return Mat.from_rows([row[n:] for row in aug])


def maps_into(m: Mat, space: Subspace) -> bool:
    """Does every column of `m` lie in `space`?"""
    return all(subspace_contains(space, column(m, j)) for j in range(m.cols))


def mat_compose(a: Mat, b: Mat) -> Mat:
    """Matrix product a @ b with an exact shape check."""
    if a.cols != b.rows:
        raise ValueError(
            f"cannot compose {a.rows}x{a.cols} with {b.rows}x{b.cols}"
        )
    zero = Fraction(0)
    bt_cols = [column(b, j) for j in range(b.cols)]
    flat = []
    for i in range(a.rows):
        arow = a.row(i)
        for j in range(b.cols):
            bcol = bt_cols[j]
            acc = zero
            for x, y in zip(arow, bcol):
                if x and y:
                    acc += x * y
            flat.append(acc)
    return from_flat(a.rows, b.cols, tuple(flat))


def lowest_terms(row: list[int], den: int) -> tuple[list[int], int]:
    """Divide numerators and denominator by their common gcd."""
    if den == 1:
        return row, den
    g = math.gcd(den, *row)
    if g == 1:
        return row, den
    return [x // g for x in row], den // g


def reference_pivot_rows(rows: list[list[int]], dens: list[int], r: int, c: int):
    """One Gauss-Jordan pivot on (r, c), in place; entry (r, c) must be nonzero.

    Row r, with pivot numerator p, becomes its numerators over |p| (signs
    flipped when p < 0), so entry c reads 1.  Every other row with
    f = row[c] != 0 becomes P*row - f*prow over den*P, where P is the pivot
    row's new denominator.  Each changed row is brought to lowest terms.
    """
    prow = rows[r]
    p = prow[c]
    if p < 0:
        prow = [-x for x in prow]
    prow, pden = lowest_terms(prow, abs(p))
    rows[r], dens[r] = prow, pden
    nz = [(j, x) for j, x in enumerate(prow) if x]
    for i, row in enumerate(rows):
        f = row[c]
        if f and i != r:
            if pden != 1:
                row = [pden * x for x in row]
            for j, x in nz:
                row[j] -= f * x
            rows[i], dens[i] = lowest_terms(row, dens[i] * pden)
