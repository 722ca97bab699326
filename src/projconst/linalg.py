"""Exact linear algebra over the rationals for sup-normed coordinate spaces.

Every matrix is exact: a `Mat` stores integer numerators over one positive
int denominator, in lowest terms as a whole, and every norm, rank and
product computed here is exact.  `Fraction`s appear only at the edges: the
views `Mat.row` and `entries`, `Mat.from_rows` on the way in, and the norm
that `inf_op_norm` hands out; `kernel_basis` hands out integer rows over one
denominator.  Matrices act on column vectors of ell_inf^n; the only operator
norm used anywhere in the package is the inf->inf norm, which equals the
maximum absolute row sum and is attained at a +-1 sign vector.

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
through `lowest_terms`.  A matrix's numerator rows are its integer rows, so
`_reduce` takes them as they are, and `integer_product` and `integer_kron`
multiply them for `Mat` and for the certificates in `minproj` alike.

No floating point enters this module.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
import re
import sys
from fractions import Fraction
from itertools import chain, compress
from typing import Iterable, NamedTuple, Sequence

_INTEGER = re.compile(r"[+-]?[0-9]+")
_ZERO = Fraction(0)

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


class Mat:
    """Dense exact matrix: row-major int numerators over one positive int
    denominator, entry (i, j) standing for nums[i * cols + j] / den.

    Construction brings the matrix to lowest terms as a whole (den and the
    numerators have gcd 1, so a zero matrix has den 1) and makes equal
    numerators one int object, so `==` and `hash` compare values and a kept
    matrix holds one object per distinct value.  `row` and `entries` are
    `Fraction` views, made on each access.  No attribute can be set or
    deleted after construction; all arithmetic returns fresh matrices.
    """

    __slots__ = ("rows", "cols", "nums", "den")

    def __init__(self, rows: int, cols: int, nums: tuple[int, ...], den: int = 1):
        if rows < 1 or cols < 1:
            raise ValueError(f"matrix shape {rows}x{cols} is empty")
        if len(nums) != rows * cols:
            raise ValueError(f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(nums)}")
        if type(den) is not int or den < 1 or not {int}.issuperset(map(type, nums)):
            raise ValueError("a matrix is int numerators over a positive int denominator")
        g = math.gcd(den, *nums)
        if g != 1:
            nums, den = [x // g for x in nums], den // g
        shared: dict[int, int] = {}
        nums = tuple(map(shared.setdefault, nums, nums))
        for name, value in zip(Mat.__slots__, (rows, cols, nums, den)):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return self.rows, self.cols, self.nums, self.den

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "Mat(rows={!r}, cols={!r}, nums={!r}, den={!r})".format(*self._key())

    def __reduce__(self):
        return Mat, self._key()

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot set or delete {name!r}: a Mat is immutable")

    __delattr__ = __setattr__

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Mat":
        """A matrix from rows of ints, `Fraction`s or 'p/q' literals."""
        nrows = len(rows)
        if nrows == 0:
            raise ValueError("matrix needs at least one row")
        ncols = len(rows[0])
        flat = []
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows in matrix literal")
            flat.extend(as_rat(x) for x in r)
        den = math.lcm(*(x.denominator for x in flat))
        return cls(nrows, ncols, tuple(x.numerator * (den // x.denominator) for x in flat), den)

    def _fractions(self, nums: Sequence[int]) -> tuple[Fraction, ...]:
        """`nums` over this matrix's denominator, one `Fraction` per distinct value."""
        made = {x: Fraction(x, self.den) for x in set(nums)}
        return tuple(map(made.__getitem__, nums))

    @property
    def entries(self) -> tuple[Fraction, ...]:
        return self._fractions(self.nums)

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self._fractions(self.nums[i * self.cols : (i + 1) * self.cols])

    def numerator_rows(self) -> tuple[tuple[int, ...], ...]:
        """The rows of numerators, each over `den`: the matrix's integer rows."""
        nums, cols = self.nums, self.cols
        return tuple(nums[i:i + cols] for i in range(0, len(nums), cols))

    def numerator_cols(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.nums[j::self.cols] for j in range(self.cols))

    def transpose(self) -> "Mat":
        return Mat(self.cols, self.rows, tuple(chain.from_iterable(self.numerator_cols())),
                   self.den)

    def __matmul__(self, other: "Mat") -> "Mat":
        return mat_compose(self, other)

    def kron(self, other: "Mat") -> "Mat":
        """Kronecker product: self[i, j] * other[r, c] sits at row i * other.rows + r,
        column j * other.cols + c."""
        rows, den = integer_kron((self.numerator_rows(), self.den),
                                 (other.numerator_rows(), other.den))
        return Mat(self.rows * other.rows, self.cols * other.cols,
                   tuple(chain.from_iterable(rows)), den)

    def apply(self, vector: Sequence) -> tuple[Fraction, ...]:
        """Matrix times column vector."""
        if len(vector) != self.cols:
            raise ValueError(
                f"vector of length {len(vector)} does not fit {self.rows}x{self.cols}"
            )
        vec = [as_rat(x) for x in vector]
        return tuple(sum(map(operator.mul, row, vec), _ZERO) / self.den
                     for row in self.numerator_rows())

    def is_idempotent(self) -> bool:
        return self.rows == self.cols and mat_compose(self, self) == self


class OperatorNorm(NamedTuple):
    value: Fraction
    witness: tuple[int, ...]


def row_sum_norm(rows: Sequence[Sequence[int]]) -> OperatorNorm:
    """The largest absolute row sum of integer rows, as an int over their
    denominator, with the signs of the first row that attains it (zeros
    read as +1)."""
    sums = [sum(map(abs, row)) for row in rows]
    best = max(sums)
    return OperatorNorm(best, tuple(1 if x >= 0 else -1 for x in rows[sums.index(best)]))


def inf_op_norm(m: Mat) -> OperatorNorm:
    """The inf->inf operator norm: the maximum absolute row sum.

    Also returns a +-1 sign vector on which the norm is attained (signs of
    the first maximizing row, zeros treated as +1).
    """
    norm = row_sum_norm(m.numerator_rows())
    return norm._replace(value=Fraction(norm.value, m.den))


def mat_compose(a: Mat, b: Mat) -> Mat:
    """Matrix product a @ b with an exact shape check: the integer product of
    a's numerator rows and b's numerator columns, over a.den * b.den."""
    if a.cols != b.rows:
        raise ValueError(
            f"cannot compose {a.rows}x{a.cols} with {b.rows}x{b.cols}"
        )
    return Mat(a.rows, b.cols, tuple(chain.from_iterable(
        integer_product(a.numerator_rows(), b.numerator_cols()))), a.den * b.den)


class RankDeficientError(ValueError):
    """Raised when a basis fails to have full row rank."""


class _SubspaceFields(NamedTuple):
    basis: Mat


class Subspace(_SubspaceFields):
    """A k-dimensional subspace of ell_inf^n given by k independent basis rows.

    Rank is verified exactly, on the basis's numerator rows, at
    construction; a dependent row list is a hard error, never silently
    reduced.  The ambient dimension n is the basis's column count.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        n, k = self.basis.cols, self.basis.rows
        if not 1 <= k <= n:
            raise ValueError(f"subspace dimension {k} out of range for ambient {n}")
        if rank_of_rows(self.basis.numerator_rows()) != k:
            raise RankDeficientError(f"basis rows are linearly dependent: rank < {k}")
        return self

    @property
    def ambient_dim(self) -> int:
        return self.basis.cols

    @property
    def dim(self) -> int:
        return self.basis.rows

    @property
    def integer_basis(self) -> IntegerRows:
        """The basis as (rows, den), the form `minproj.check_certificate` reads."""
        return self.basis.numerator_rows(), self.basis.den

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Subspace":
        return cls(Mat.from_rows(rows))


# ---------------------------------------------------------------------------
# exact elimination kernel

# A row that a pivot scales is brought to lowest terms only once its
# denominator reaches one CPython digit: below that, longer products cost
# less than a gcd over the row.
ONE_DIGIT = 1 << sys.int_info.bits_per_digit


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


def _reduce(rows: Iterable[Sequence[int]],
            ncols: int) -> tuple[list[list[int]], list[int], list[int]]:
    """Gauss-Jordan elimination of integer `rows` on their first `ncols` columns.

    A row and any positive multiple of it reduce alike, so each row may
    stand over a denominator of its own; the rows are copied and start over
    1.  Pivots on the first nonzero entry at or below the current rank and
    stops once every row has a pivot.  Returns the reduced rows in lowest
    terms as numerators, their denominators, and the pivot columns: row r
    reads 1 in column pivots[r] and every other row 0 there; the rows after
    the last pivot row vanish on the first `ncols` columns.  Columns beyond
    `ncols` are carried along (augmented right-hand sides).
    """
    work = [list(row) for row in rows]
    dens = [1] * len(work)
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


def rank_of_rows(rows: Iterable[Sequence[int]]) -> int:
    """The rank of integer rows, each over any positive denominator."""
    rows = list(rows)
    if not rows:
        return 0
    return len(_reduce(rows, len(rows[0]))[2])


def kernel_basis(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """Exact basis of the null space {x : A x = 0} of integer rows A, each
    over any positive denominator, in a deterministic order: integer rows
    over one denominator, the lcm of the reduced pivot rows' denominators."""
    n = len(rows[0]) if rows else 0
    work, dens, pivots = _reduce(rows, n)
    den = math.lcm(*dens[:len(pivots)])
    basis = []
    for free in sorted(set(range(n)).difference(pivots)):
        vec = [0] * n
        vec[free] = den
        for row, d, c in zip(work, dens, pivots):
            vec[c] = -row[free] * (den // d)
        basis.append(vec)
    return basis, den


def invert_square(m: Mat) -> Mat:
    """Exact inverse of a square matrix; singular input is a rank error.

    With m = N / d, reducing [N | d I] leaves [I | m^-1]."""
    if m.rows != m.cols:
        raise ValueError(f"cannot invert {m.rows}x{m.cols} matrix")
    n = m.rows
    aug, dens, pivots = _reduce(
        [row + tuple(m.den if i == j else 0 for j in range(n))
         for i, row in enumerate(m.numerator_rows())], n)
    if len(pivots) < n:
        raise RankDeficientError("matrix is singular")
    den = math.lcm(*dens)
    return Mat(n, n, tuple(x * (den // d) for row, d in zip(aug, dens) for x in row[n:]), den)


def projection_defect(m: Mat, space: Subspace) -> str | None:
    """Why `m` is not a projection onto `space`, or None when it is one.

    Checks, in this order, that m is idempotent, that it fixes every basis
    row, and that its range lies in the space, all on numerator rows.  m
    fixes the basis rows b exactly when M B^T = m.den * B^T for the
    numerators M and B.  The range test is a single rank test: the columns
    of m lie in the space exactly when appending them to the basis rows
    leaves the rank at the dimension.
    """
    if not m.is_idempotent():
        return "is not idempotent"
    if m.cols != space.ambient_dim:
        raise ValueError(f"{m.rows}x{m.cols} matrix does not act on ell_inf^{space.ambient_dim}")
    basis = space.basis.numerator_rows()
    if integer_product(m.numerator_rows(), basis) != [
            [m.den * x for x in col] for col in zip(*basis)]:
        return "moves a basis vector"
    if rank_of_rows(basis + m.numerator_cols()) != space.dim:
        return "leaves the subspace"
    return None
