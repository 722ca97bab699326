"""Exact linear algebra over the rationals for sup-normed coordinate spaces.

Scalars are arbitrary-precision rationals (`fractions.Fraction`), so every
norm, rank and product computed here is exact.  Matrices act on column
vectors of ell_inf^n; the only operator norm used anywhere in the package is
the inf->inf norm, which equals the maximum absolute row sum and is attained
at a +-1 sign vector.

This module holds the package's one exact elimination kernel.  It works on
integer rows: a row is a list of Python ints over one positive denominator,
entry j standing for row[j] / den.  `pivot_rows` is the single pivot step:
`_reduce` (behind rank, kernel, inverse and `projection_defect`) pivots with
its Gauss-Jordan form, the condensed simplex tableau in `simplex` with its
exchange form.  Rows are updated in place by integer multiply and subtract,
as in Edmonds' (1967) and Bareiss' (1968) integer-preserving elimination,
with work proportional to a row's nonzeros, not its width.  The pivot row is
divided by its gcd on every pivot; another row only when a pivot gives it a
new denominator of at least `ONE_DIGIT` (2**30 on 64-bit builds), so rows
need not be in lowest terms between pivots; `_reduce` hands its rows out
through `lowest_terms`.  `Fraction`s are built only from the final rows.
A matrix in that format is (rows, den): `integer_matrix` makes it, once per
`Subspace`, and `integer_product` and `integer_kron` multiply it.

No floating point enters this module.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
from typing import Iterable, NamedTuple, Sequence

_INTEGER = re.compile(r"[+-]?[0-9]+")
_ZERO, _ONE, _MINUS_ONE = Fraction(0), Fraction(1), Fraction(-1)

# a matrix as (rows, den): integer rows over one positive denominator
IntegerRows = tuple[Sequence[Sequence[int]], int]


def as_rat(value) -> Fraction:
    """Coerce an int, Fraction or 'p/q' literal to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal: an optionally signed 'p' or 'p/q'.

    p and q are ASCII digit strings, each with an optional sign; only the
    literal's outer whitespace is stripped.  The result is always reduced
    with a positive denominator.  Anything else (floats, digit separators,
    non-ASCII digits, inner whitespace) is rejected.
    """
    parts = text.strip().split("/")
    if len(parts) > 2 or not all(_INTEGER.fullmatch(part) for part in parts):
        raise ValueError(f"malformed rational literal {text!r}")
    if len(parts) == 1:
        return Fraction(int(parts[0]))
    num, den = map(int, parts)
    if den == 0:
        raise ValueError(f"zero denominator in rational literal {text!r}")
    return Fraction(num, den)


def format_rational(value: Fraction) -> str:
    """Render a rational as 'p' or 'p/q', reduced, denominator positive."""
    value = as_rat(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True, slots=True)
class Mat:
    """Dense exact matrix with row-major entries.

    Immutable after construction; all arithmetic returns fresh matrices.
    """

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"matrix shape {self.rows}x{self.cols} is empty")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Mat":
        nrows = len(rows)
        if nrows == 0:
            raise ValueError("matrix needs at least one row")
        ncols = len(rows[0])
        flat = []
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows in matrix literal")
            flat.extend(as_rat(x) for x in r)
        return cls(nrows, ncols, tuple(flat))

    @classmethod
    def from_integer_rows(cls, rows: Sequence[Sequence[int]], den: int) -> "Mat":
        """Integer rows over `den` as a `Mat`, one `Fraction` per distinct entry.

        An optimal solution repeats few values, so a kept result costs one
        object per value instead of one per entry; 0 and +-1, the most common,
        are this module's constants, shared by every such matrix.
        """
        shared = {0: _ZERO, den: _ONE, -den: _MINUS_ONE}
        return cls(len(rows), len(rows[0]), tuple(
            shared[x] if x in shared else shared.setdefault(x, Fraction(x, den))
            for row in rows for x in row))

    @classmethod
    def identity(cls, n: int) -> "Mat":
        one, zero = Fraction(1), Fraction(0)
        return cls(n, n, tuple(one if i == j else zero for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Mat":
        return cls(rows, cols, (Fraction(0),) * (rows * cols))

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple[Fraction, ...]:
        return self.entries[j :: self.cols]

    def row_lists(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "Mat":
        return Mat(self.cols, self.rows,
                   tuple(self.entries[i * self.cols + j]
                         for j in range(self.cols) for i in range(self.rows)))

    def add(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(
                f"shape mismatch in matrix sum: {self.rows}x{self.cols} vs "
                f"{other.rows}x{other.cols}"
            )
        return Mat(self.rows, self.cols,
                   tuple(a + b for a, b in zip(self.entries, other.entries)))

    def scale(self, factor) -> "Mat":
        f = as_rat(factor)
        return Mat(self.rows, self.cols, tuple(f * x for x in self.entries))

    def __matmul__(self, other: "Mat") -> "Mat":
        return mat_compose(self, other)

    def kron(self, other: "Mat") -> "Mat":
        """Kronecker product: self[i, j] * other[r, c] sits at row i * other.rows + r,
        column j * other.cols + c.  A product with a factor 0 or 1 is not formed."""
        zero = Fraction(0)
        return Mat(self.rows * other.rows, self.cols * other.cols, tuple(
            (y if x == 1 else x if y == 1 else x * y) if x and y else zero
            for i in range(self.rows) for r in range(other.rows)
            for x in self.row(i) for y in other.row(r)))

    def apply(self, vector: Sequence) -> tuple[Fraction, ...]:
        """Matrix times column vector."""
        if len(vector) != self.cols:
            raise ValueError(
                f"vector of length {len(vector)} does not fit {self.rows}x{self.cols}"
            )
        vec = [as_rat(x) for x in vector]
        out = []
        for i in range(self.rows):
            row = self.row(i)
            out.append(sum((a * b for a, b in zip(row, vec)), Fraction(0)))
        return tuple(out)

    def is_idempotent(self) -> bool:
        return self.rows == self.cols and mat_compose(self, self) == self


class OperatorNorm(NamedTuple):
    value: Fraction
    witness: tuple[int, ...]
    row_index: int


def inf_op_norm(m: Mat) -> OperatorNorm:
    """The inf->inf operator norm: the maximum absolute row sum.

    Also returns a +-1 sign vector on which the norm is attained (signs of
    the first maximizing row, zeros treated as +1) and the index of that row.
    """
    best = Fraction(-1)
    best_row = 0
    for i in range(m.rows):
        s = sum((abs(x) for x in m.row(i)), Fraction(0))
        if s > best:
            best, best_row = s, i
    witness = tuple(1 if x >= 0 else -1 for x in m.row(best_row))
    return OperatorNorm(best, witness, best_row)


def mat_compose(a: Mat, b: Mat) -> Mat:
    """Matrix product a @ b with an exact shape check.

    The rows of `a` and the columns of `b` are taken once as integer rows
    (`integer_row`), so entry (i, j) is one integer dot product over the
    product of the two denominators, reduced by `Fraction`.
    """
    if a.cols != b.rows:
        raise ValueError(
            f"cannot compose {a.rows}x{a.cols} with {b.rows}x{b.cols}"
        )
    left = [integer_row(a.row(i)) for i in range(a.rows)]
    right = [integer_row(b.col(j)) for j in range(b.cols)]
    return Mat(a.rows, b.cols, tuple(
        Fraction(sum(map(operator.mul, x, y)), dx * dy)
        for x, dx in left for y, dy in right))


class RankDeficientError(ValueError):
    """Raised when a basis fails to have full row rank."""


@dataclass(frozen=True, slots=True)
class Subspace:
    """A k-dimensional subspace of ell_inf^n given by k independent basis rows.

    Rank is verified exactly at construction; a dependent row list is a hard
    error, never silently reduced.  `integer_basis`, the basis as (rows,
    den) with tuple rows, is made once and read by every certified layer.
    """

    ambient_dim: int
    basis: Mat
    integer_basis: IntegerRows = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, k = self.ambient_dim, self.basis.rows
        if self.basis.cols != n:
            raise ValueError(
                f"basis rows live in dimension {self.basis.cols}, expected {n}"
            )
        if not 1 <= k <= n:
            raise ValueError(f"subspace dimension {k} out of range for ambient {n}")
        if rank_of_rows(self.basis.row_lists()) != k:
            raise RankDeficientError(
                f"basis rows are linearly dependent: rank < {k}"
            )
        rows, den = integer_matrix(self.basis)
        object.__setattr__(self, "integer_basis", (tuple(map(tuple, rows)), den))

    @property
    def dim(self) -> int:
        return self.basis.rows

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], ambient_dim: int | None = None) -> "Subspace":
        basis = Mat.from_rows(rows)
        return cls(ambient_dim if ambient_dim is not None else basis.cols, basis)


# ---------------------------------------------------------------------------
# exact elimination kernel

# A row that a pivot scales is brought to lowest terms only once its
# denominator reaches one CPython digit: below that, longer products cost
# less than a gcd over the row.
ONE_DIGIT = 1 << sys.int_info.bits_per_digit


def integer_row(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Numerators of `values` over the lcm of their denominators.

    The result is already in lowest terms: for each prime power exactly
    dividing the lcm, the entry that contributed it keeps a numerator
    prime to it.
    """
    den = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


def lowest_terms(row: list[int], den: int) -> int:
    """Divide `row` in place by its gcd with `den` > 0; return den so divided.
    The gcd is a `reduce` over the nonzeros, as star-args raise peak RSS."""
    if den == 1:
        return den
    positions = list(compress(range(len(row)), row))
    g = functools.reduce(math.gcd, map(row.__getitem__, positions), den)
    if g != 1:
        for j in positions:
            row[j] //= g
    return den // g


def integer_matrix(m: Mat) -> tuple[list[list[int]], int]:
    """The rows of `m` as numerators over the lcm of its denominators."""
    num, den = integer_row(m.entries)
    return [num[i:i + m.cols] for i in range(0, len(num), m.cols)], den


def integer_product(rows, cols) -> list[list[int]]:
    """Integer matrix product: entry (i, j) is rows[i] . cols[j]."""
    return [[sum(map(operator.mul, r, c)) for c in cols] for r in rows]


def integer_kron(a: IntegerRows, b: IntegerRows) -> tuple[list[list[int]], int]:
    """The Kronecker product in `Mat.kron`'s order: rows by rows, den by den."""
    return [[x * y for x in r for y in s] for r in a[0] for s in b[0]], a[1] * b[1]


def pivot_rows(rows: list[list[int]], dens: list[int], r: int, c: int,
               touched: Iterable[int], exchange: bool = False) -> list[int]:
    """One pivot on (r, c); entry (r, c), the pivot p, must be nonzero.
    Returns the positions of row r's nonzeros after the pivot, in
    increasing order, its last column (a right-hand side) included.

    Gauss-Jordan form: row r becomes its numerators over |p| (signs flipped
    when p < 0), so entry c reads 1, and every other row with f = row[c] != 0
    becomes P*row - f*prow over den*P, where P is the pivot row's new
    denominator, f and P first divided by gcd(f, P): the same rational row,
    scaled less, or not at all when P divides f.  Exchange form, for a
    condensed tableau: column c becomes the leaving variable's, 1/p in row r
    and -f/p in the others, by writing dens[r] at (r, c) before row r is
    divided and zeroing row[c] before each update.

    Every denominator stays positive.  Row r is brought to lowest terms.  A
    row scaled by s = P / gcd(f, P) != 1 stays over den*s, unreduced, while
    den*s < ONE_DIGIT, and is brought to lowest terms once den*s reaches it;
    any other row keeps its denominator and gets only its nonzero updates.
    When P = 1 no row is scaled, and no gcd is taken but row r's.  So rows
    need not be in lowest terms; a row over a denominator below ONE_DIGIT
    has numerators less than one digit longer than in lowest terms.

    Rows change in place, so the entries of `rows` must be distinct lists.
    The caller names the rows to update: `touched` lists exactly the rows
    with a nonzero in column c, r among them (and passed over), as the
    caller's own scan of that column found them.  A C-level scan finds the
    nonzeros of the pivot row, the list returned, and of each row it scales.
    """
    prow = rows[r]
    cols = range(len(prow))
    p = prow[c]
    if exchange:
        prow[c] = dens[r]
    # the one scan of row r: dividing it by its gcd with p keeps its nonzeros
    positions = list(compress(cols, prow))
    g = functools.reduce(math.gcd, map(prow.__getitem__, positions), p)
    if p < 0:
        g = -g
    if g != 1:
        for j in positions:
            prow[j] //= g
    pden = dens[r] = p // g
    nz = [(j, prow[j]) for j in positions]
    if pden == 1:
        # no row is scaled: each gets its nonzero updates only
        for i in touched:
            if i == r:
                continue
            row = rows[i]
            f = row[c]
            if exchange:
                row[c] = 0
            for j, x in nz:
                row[j] -= f * x
        return positions
    for i in touched:
        if i == r:
            continue
        row = rows[i]
        f = row[c]
        if exchange:
            row[c] = 0
        g = math.gcd(f, pden)
        f, scale = f // g, pden // g
        if scale != 1:
            for j in compress(cols, row):
                row[j] *= scale
        for j, x in nz:
            row[j] -= f * x
        if scale != 1:
            den = dens[i] * scale
            dens[i] = den if den < ONE_DIGIT else lowest_terms(row, den)
    return positions


def _reduce(rows: Sequence[Sequence[Fraction]],
            ncols: int) -> tuple[list[list[int]], list[int], list[int]]:
    """Gauss-Jordan elimination of `rows` on their first `ncols` columns.

    Pivots on the first nonzero entry at or below the current rank and stops
    once every row has a pivot.  Returns the reduced rows in lowest terms as
    numerators, their denominators, and the pivot columns: row r reads 1 in
    column pivots[r] and every other row 0 there; the rows after the last
    pivot row vanish on the first `ncols` columns.  Columns beyond `ncols`
    are carried along (augmented right-hand sides).
    """
    converted = [integer_row(row) for row in rows]
    work, dens = [num for num, _ in converted], [den for _, den in converted]
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == len(work):
            break
        # one scan of the column: its nonzero rows, in order; the pivot is
        # the first at or below the rank, and rows rank .. pivot - 1 are zero
        touched = list(compress(range(len(work)), map(operator.itemgetter(col), work)))
        k = bisect.bisect_left(touched, rank)
        if k == len(touched):
            continue
        pivot = touched[k]
        work[rank], work[pivot] = work[pivot], work[rank]
        dens[rank], dens[pivot] = dens[pivot], dens[rank]
        touched[k] = rank
        pivot_rows(work, dens, rank, col, touched)
        pivots.append(col)
    for i, row in enumerate(work):
        dens[i] = lowest_terms(row, dens[i])
    return work, dens, pivots


def rank_of_rows(rows: Iterable[Sequence[Fraction]]) -> int:
    rows = list(rows)
    if not rows:
        return 0
    return len(_reduce(rows, len(rows[0]))[2])


def kernel_basis(rows: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Exact basis of the null space {x : A x = 0}, deterministic order."""
    n = len(rows[0]) if rows else 0
    work, dens, pivots = _reduce(rows, n)
    pivot_cols = set(pivots)
    basis = []
    for free in range(n):
        if free in pivot_cols:
            continue
        vec = [Fraction(0)] * n
        vec[free] = Fraction(1)
        for row, den, c in zip(work, dens, pivots):
            vec[c] = Fraction(-row[free], den)
        basis.append(vec)
    return basis


def invert_square(m: Mat) -> Mat:
    """Exact inverse of a square matrix; singular input is a rank error."""
    if m.rows != m.cols:
        raise ValueError(f"cannot invert {m.rows}x{m.cols} matrix")
    n = m.rows
    aug, dens, pivots = _reduce(
        [list(m.row(i)) + [int(i == j) for j in range(n)] for i in range(n)], n)
    if len(pivots) < n:
        raise RankDeficientError("matrix is singular")
    return Mat(n, n, tuple(Fraction(x, den) for row, den in zip(aug, dens)
                           for x in row[n:]))


def projection_defect(m: Mat, space: Subspace) -> str | None:
    """Why `m` is not a projection onto `space`, or None when it is one.

    Checks, in this order, that m is idempotent, that it fixes every basis
    row, and that its range lies in the space.  The range test is a single
    rank test: the columns of m lie in the space exactly when appending them
    to the basis rows leaves the rank at the dimension.
    """
    if not m.is_idempotent():
        return "is not idempotent"
    for i in range(space.dim):
        row = space.basis.row(i)
        if m.apply(row) != row:
            return "moves a basis vector"
    columns = [list(m.col(j)) for j in range(m.cols)]
    if rank_of_rows(space.basis.row_lists() + columns) != space.dim:
        return "leaves the subspace"
    return None
