"""The integer-row elimination kernel against the `Fraction` elimination it replaced.

On seeded random systems (rational entries, zero and dependent rows, wide
and tall shapes, singular squares) rank, kernel basis and inverse must be
identical to `linalg_reference`, a singular square must raise
`RankDeficientError` in both, and `projection_defect` must reach the
decision of the former checks: idempotence, fixed basis rows, and one
membership test per column.  The rows `_reduce` returns must also be in
lowest terms over positive denominators.  The integer-row matrix product
must equal the former `Fraction` product on random shapes, including 1x1
factors, zero rows and zero columns, and the Kronecker product, sum,
scale, transpose and `inf_op_norm` of `Mat`, which stores integer
numerators over one denominator, must equal the former operations on
`Fraction` entries.  That format is canonical: equal values are equal
matrices with one hash, a zero matrix is over 1, equal numerators are one
int object, and anything but int numerators over a positive int
denominator is rejected.  The in-place pivot must leave the
rational rows of the former pivot after every step of seeded pivot
sequences, whichever way it trims a touched row's scale, its exchange form
must leave the rows of the condensed-tableau exchange, in both forms it
must hand back the positions of the new pivot row's nonzeros, in
increasing order, and `_reduce` must hand it distinct row lists, which
in-place updates require.  After every
pivot the rows must also keep the kernel's row invariant
(`assert_row_invariant`): the pivot row is brought to lowest terms, and a
row the pivot scales stays over its scaled denominator while that is below
one CPython digit (`linalg.ONE_DIGIT`) and is brought to lowest terms once
it is not.  Rows over denominators that are products of primes between
2**10 and 2**15 take both branches, in single pivots and in rank, kernel
and inverse.  On the projection programs of ker_2 ... ker_8 and
Sigma_3(ker_3), the simplex's denominators must stay below one digit or
grow no longer than those of the former solver, whose kernel kept every row
in lowest terms, and its numerators at most one digit longer.
"""

import math
import sys
from collections import Counter
from fractions import Fraction as F
from random import Random

import pytest

import linalg_reference as ref
import tableau_reference
from tableau_reference import nonzero_rows

from projconst import linalg, simplex
from projconst.linalg import (
    ONE_DIGIT,
    Mat,
    RankDeficientError,
    Subspace,
    _reduce,
    inf_op_norm,
    invert_square,
    kernel_basis,
    mat_compose,
    pivot_rows,
    projection_defect,
    rank_of_rows,
)
from projconst.minproj import build_projection_lp
from projconst.zerosum import coordinate_sum_kernel, sigma_subspace

SEEDS = range(300)
DIGIT_BITS = sys.int_info.bits_per_digit
# products of one or two of these make denominators of 11 to 30 bits, so a
# scaled row's denominator reaches ONE_DIGIT after a pivot or two
LARGE_PRIMES = [p for p in range(2**10, 2**15)
                if all(p % d for d in range(2, math.isqrt(p) + 1))]


def _entry(rng: Random, zero_share: float) -> F:
    if rng.random() < zero_share:
        return F(0)
    return F(rng.randint(-6, 6), rng.randint(1, 5))


def random_rows(rng: Random, nrows: int, ncols: int) -> list[list[F]]:
    """Random rational rows; some are zero, some combinations of earlier ones."""
    zero_share = rng.choice([0.0, 0.3, 0.6])
    rows: list[list[F]] = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.1:
            rows.append([F(0)] * ncols)
        elif kind < 0.35 and rows:
            coeffs = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in rows]
            rows.append([sum((c * row[j] for c, row in zip(coeffs, rows)), F(0))
                         for j in range(ncols)])
        else:
            rows.append([_entry(rng, zero_share) for _ in range(ncols)])
    rng.shuffle(rows)
    return rows


def large_denominator_rows(rng: Random, nrows: int, ncols: int,
                           numerators: list[int]) -> list[list[F]]:
    """Rows whose entries share a denominator, one or two large primes per row."""
    rows = []
    for _ in range(nrows):
        den = math.prod(rng.sample(LARGE_PRIMES, rng.randint(1, 2)))
        rows.append([F(rng.choice((1, -1)) * rng.choice(numerators), den)
                     if rng.random() < 0.6 else F(0) for _ in range(ncols)])
    return rows


def random_system(seed: int) -> list[list[F]]:
    rng = Random(f"linalg differential {seed}")
    return random_rows(rng, rng.randint(1, 7), rng.randint(1, 7))


def random_square(seed: int) -> Mat:
    rng = Random(f"linalg differential square {seed}")
    n = rng.randint(1, 5)
    return Mat.from_rows(random_rows(rng, n, n))


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc)


def test_rank_and_kernel_basis():
    shapes = Counter()
    for seed in SEEDS:
        rows = random_system(seed)
        m, n = len(rows), len(rows[0])
        rank = rank_of_rows(ref.integer_rows(rows))
        assert rank == ref.rank_of_rows(rows)
        assert ref.kernel_fractions(kernel_basis(ref.integer_rows(rows))) == ref.kernel_basis(rows)
        shapes["wide" if m < n else "tall" if m > n else "square"] += 1
        shapes["deficient"] += rank < min(m, n)
        shapes["zero row"] += any(not any(row) for row in rows)
    assert min(shapes.values()) >= 30, shapes


def test_inverse_or_rank_error():
    singular = 0
    for seed in SEEDS:
        m = random_square(seed)
        got, want = outcome(invert_square, m), outcome(ref.invert_square, m)
        assert got == want
        singular += got is RankDeficientError
    assert 30 <= singular <= len(SEEDS) - 30
    assert outcome(invert_square, Mat.from_rows([[1, 2]])) is ValueError


def test_reduced_rows_stay_in_lowest_terms():
    for seed in SEEDS:
        rows = random_system(seed)
        work, dens, pivots = _reduce(ref.integer_rows(rows), len(rows[0]))
        assert len(pivots) == ref.rank_of_rows(rows)
        for row, den in zip(work, dens):
            assert den > 0
            assert math.gcd(den, *row) == 1


def test_product_matches_the_former_product():
    seen = Counter()
    for seed in SEEDS:
        rng = Random(f"linalg differential product {seed}")
        n, k, m = (1, 1, 1) if seed < 20 else (rng.randint(1, 6) for _ in range(3))
        # zero rows in the left factor, zero columns in the right one
        a = Mat.from_rows(random_rows(rng, n, k))
        b = Mat.from_rows(random_rows(rng, m, k)).transpose()
        got = mat_compose(a, b)
        assert got == ref.mat_compose(a, b)
        assert all(type(x) is F for x in got.entries)
        if n == k:
            assert a.is_idempotent() == (ref.mat_compose(a, a) == a)
        seen["1x1"] += (n, k, m) == (1, 1, 1)
        seen["zero row"] += any(not any(a.row(i)) for i in range(n))
        seen["zero column"] += any(not any(ref.column(b, j)) for j in range(m))
        seen["zero product"] += not any(got.entries)
    assert min(seen.values()) >= 20, seen
    wide = Mat.from_rows([[1, 2]])
    message = "cannot compose 1x2 with 1x2"
    with pytest.raises(ValueError, match=message):
        mat_compose(wide, wide)
    with pytest.raises(ValueError, match=message):
        ref.mat_compose(wide, wide)


def test_operations_match_the_former_fraction_operations():
    seen = Counter()
    for seed in SEEDS:
        rng = Random(f"linalg differential format {seed}")
        p, q, r, s = (rng.randint(1, 4) for _ in range(4))
        rows = random_rows(rng, p, q)
        a = Mat.from_rows(rows)
        assert ref.rows_of(a) == rows
        b = Mat.from_rows(random_rows(rng, r, s))
        c = Mat.from_rows(random_rows(rng, p, q))
        factor = _entry(rng, 0.2)
        for got, want in ((a.kron(b), ref.kron(a, b)), (ref.integer_add(a, c), ref.add(a, c)),
                          (ref.integer_scale(a, factor), ref.scale(a, factor)),
                          (a.transpose(), ref.transpose(a))):
            assert (got.rows, got.cols, got.entries) == (want.rows, want.cols, want.entries)
            assert all(type(x) is F for x in got.entries)
        # value, witness and row
        assert tuple(inf_op_norm(a)) == ref.inf_op_norm(a)
        seen["den > 1"] += a.den > 1
        seen["zero matrix"] += not any(a.nums)
        seen["zero factor"] += not factor
        seen["tied rows"] += len({sum(map(abs, row)) for row in a.numerator_rows()}) < p
    assert min(seen.values()) >= 10, seen


def test_the_format_is_canonical():
    # equal values built two ways are one matrix, with one hash
    built = Mat.from_rows([[F(1, 2), 1], [0, F(-3, 2)]])
    scaled = Mat(2, 2, (2, 4, 0, -6), 4)
    assert built == scaled and hash(built) == hash(scaled)
    assert (scaled.nums, scaled.den) == ((1, 2, 0, -3), 2)
    assert ref.integer_scale(ref.identity(2), F(-2, 3)) == Mat.from_rows([["-2/3", 0], [0, "-2/3"]])
    assert built.kron(ref.identity(1)) == built == built.transpose().transpose()
    # a zero matrix is over 1, however it is made
    assert Mat(2, 3, (0,) * 6, 7).den == 1
    assert (ref.integer_scale(built, 0)
            == ref.integer_add(built, ref.integer_scale(built, -1)) == ref.zeros(2, 2))
    assert ref.integer_scale(built, 0).den == 1
    # equal numerators are one object, also after reduction and in products
    x = 10 ** 30 + 1
    y = int(str(x))
    assert x is not y
    m = Mat(1, 3, (2 * x, 2 * y, 2), 2)
    assert m.nums == (x, x, 1) and m.nums[0] is m.nums[1]
    product = m.transpose() @ m
    assert len({id(v) for v in product.nums}) == len(set(product.nums))
    # anything but int numerators over a positive int denominator
    for nums, den in (((1, F(1)), 1), ((1, 1.0), 1), ((True, 0), 1), ((1, 2), 0),
                      ((1, 2), -1), ((1, 2), 1.0), ((1, 2), True), ((1, 2), F(1))):
        with pytest.raises(ValueError):
            Mat(1, 2, nums, den)
    with pytest.raises(ValueError):
        Mat(1, 2, (1, 2, 3))


def random_tableau(rng: Random) -> tuple[list[list[int]], list[int], float]:
    """Integer rows in lowest terms over positive denominators, and the density
    they were drawn with: small and fairly full, or wide and below 15 %."""
    if rng.random() < 0.3:
        nrows, ncols, density = rng.randint(2, 12), rng.randint(40, 120), rng.uniform(0.03, 0.14)
    else:
        nrows, ncols, density = rng.randint(1, 8), rng.randint(1, 10), rng.uniform(0.2, 1.0)
    rows, dens = [], []
    for _ in range(nrows):
        if rng.random() < 0.1:
            row = [0] * ncols
        else:
            row = [rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(ncols)]
        row, den = ref.lowest_terms(row, rng.randint(1, 12))
        rows.append(row)
        dens.append(den)
    return rows, dens, density


def in_lowest_terms(row: list[int], den: int) -> bool:
    return den > 0 and math.gcd(den, *row) == 1


def assert_row_invariant(old_rows: list[list[int]], old_dens: list[int],
                         rows: list[list[int]], dens: list[int], r: int, c: int) -> Counter:
    """The rows `pivot_rows` leaves after a pivot on (r, c) of `old_rows`.

    Every denominator is positive and row r is in lowest terms.  Another row
    with f = old_rows[i][c] != 0 is scaled by s = P / gcd(f, P), P = dens[r]:
    it keeps its former denominator when s = 1, stays over old_dens[i] * s,
    unreduced, while that is below ONE_DIGIT, and is in lowest terms once it
    is not.  A row with f = 0 is left as it was.  Returns how many rows were
    kept unreduced and how many reduced at ONE_DIGIT.
    """
    assert all(den > 0 for den in dens)
    assert in_lowest_terms(rows[r], dens[r])
    branches = Counter()
    for i, (row, den) in enumerate(zip(rows, dens)):
        f = old_rows[i][c]
        if i == r:
            continue
        scaled = old_dens[i] * (dens[r] // math.gcd(f, dens[r]))
        if not f:
            assert (row, den) == (old_rows[i], old_dens[i])
        elif scaled == old_dens[i]:
            assert den == old_dens[i]
        elif scaled < ONE_DIGIT:
            assert den == scaled
            branches["kept unreduced"] += 1
        else:
            assert in_lowest_terms(row, den)
            branches["reduced at ONE_DIGIT"] += 1
    return branches


def pivot_checked(rows: list[list[int]], dens: list[int], r: int, c: int,
                  touched: list[int] | None = None, exchange: bool = False,
                  branches: Counter | None = None) -> list[int]:
    """`pivot_rows`, handed `touched` (when None, the rows with a nonzero in
    column c), with the row invariant asserted after the pivot and the
    returned positions asserted to be those of row r's nonzeros, in order;
    adds the invariant's tally of kept and reduced rows to `branches`, when
    given, and returns the positions."""
    old_rows, old_dens = [list(row) for row in rows], list(dens)
    positions = pivot_rows(rows, dens, r, c,
                           nonzero_rows(rows, c) if touched is None else touched, exchange)
    assert positions == [j for j, x in enumerate(rows[r]) if x]
    tally = assert_row_invariant(old_rows, old_dens, rows, dens, r, c)
    if branches is not None:
        branches.update(tally)
    return positions


def same_rational_rows(rows: list[list[int]], dens: list[int],
                       want_rows: list[list[int]], want_dens: list[int]) -> bool:
    """Whether the rows stand for the reference's rows, which are in lowest terms."""
    reduced = [ref.lowest_terms(row, den) for row, den in zip(rows, dens)]
    return reduced == list(zip(want_rows, want_dens))


def test_pivot_matches_the_former_pivot():
    seen = Counter()
    for seed in SEEDS:
        rng = Random(f"linalg differential pivot {seed}")
        rows, dens, density = random_tableau(rng)
        want_rows, want_dens = [list(row) for row in rows], list(dens)
        last = None
        for _ in range(rng.randint(1, 6)):
            entries = [(i, j) for i, row in enumerate(rows) for j, x in enumerate(row) if x]
            if not entries:
                break
            # repeating the last pivot pivots on a unit column
            r, c = last if last and rng.random() < 0.2 else rng.choice(entries)
            p = rows[r][c]
            seen["negative pivot"] += p < 0
            seen["pivot reads 1"] += p == dens[r]
            seen["pivot row with one nonzero"] += sum(map(bool, rows[r])) == 1
            seen["unit column"] += all(not row[c] for i, row in enumerate(rows) if i != r)
            pivot_checked(rows, dens, r, c)
            ref.reference_pivot_rows(want_rows, want_dens, r, c)
            assert same_rational_rows(rows, dens, want_rows, want_dens)
            seen["pivot denominator != 1"] += dens[r] != 1
            seen["row not in lowest terms"] += not all(map(in_lowest_terms, rows, dens))
            last = (r, c)
        seen["zero row"] += any(not any(row) for row in rows)
        seen["wide, below 15 %"] += len(rows[0]) >= 40 and density < 0.15
    assert min(seen.values()) >= 30, seen


def test_row_scale_branches_match_the_former_pivot():
    # a touched row with f = row[c] is scaled by P / gcd(f, P), P the pivot
    # row's new denominator: not at all when P divides f, by a proper factor
    # of P when 1 < gcd < P, and by P when gcd = 1; entries and denominators
    # with small prime factors make all three common.  Half the systems put
    # each row over one or two primes between 2**10 and 2**15, so a scaled
    # denominator lands on either side of ONE_DIGIT
    assert ONE_DIGIT == 1 << DIGIT_BITS
    seen = Counter()
    branches = Counter()
    smooth = [1, 2, 3, 4, 6, 8, 9, 12, 18, 24, 36]
    for seed in SEEDS:
        rng = Random(f"linalg differential row scale {seed}")
        nrows, ncols = rng.randint(2, 8), rng.randint(2, 8)
        if rng.random() < 0.5:
            rows, dens = map(list, zip(*map(ref.integer_row, large_denominator_rows(
                rng, nrows, ncols, smooth))))
        else:
            rows, dens = [], []
            for _ in range(nrows):
                row = [rng.choice((1, -1)) * rng.choice(smooth) if rng.random() < 0.6 else 0
                       for _ in range(ncols)]
                row, den = ref.lowest_terms(row, rng.choice(smooth))
                rows.append(row)
                dens.append(den)
        want_rows, want_dens = [list(row) for row in rows], list(dens)
        for _ in range(rng.randint(1, 4)):
            entries = [(i, j) for i, row in enumerate(rows) for j, x in enumerate(row) if x]
            if not entries:
                break
            r, c = rng.choice(entries)
            fs = [row[c] for i, row in enumerate(rows) if i != r and row[c]]
            pivot_checked(rows, dens, r, c, branches=branches)
            ref.reference_pivot_rows(want_rows, want_dens, r, c)
            assert same_rational_rows(rows, dens, want_rows, want_dens)
            if dens[r] == 1:
                continue
            for f in fs:
                g = math.gcd(f, dens[r])
                seen["P divides f" if g == dens[r] else "gcd 1" if g == 1 else "1 < gcd < P"] += 1
    assert len(seen) == 3 and min(seen.values()) >= 50, seen
    assert len(branches) == 2 and min(branches.values()) >= 50, branches


def test_exchange_pivot_is_the_condensed_exchange():
    # the exchange form swaps the pivot column for the leaving variable's:
    # 1/p in the pivot row, -a_ic/p elsewhere, and a_ij - a_ic a_rj / p off it
    seen = Counter()
    for seed in SEEDS:
        rng = Random(f"linalg differential exchange {seed}")
        rows, dens, _ = random_tableau(rng)
        for _ in range(rng.randint(1, 6)):
            entries = [(i, j) for i, row in enumerate(rows) for j, x in enumerate(row) if x]
            if not entries:
                break
            r, c = rng.choice(entries)
            a = [[F(x, den) for x in row] for row, den in zip(rows, dens)]
            p = a[r][c]
            want = [[(1 / p if j == c else x / p) if i == r
                     else (-row[c] / p if j == c else x - row[c] * a[r][j] / p)
                     for j, x in enumerate(row)] for i, row in enumerate(a)]
            pivot_checked(rows, dens, r, c, exchange=True)
            assert [[F(x, den) for x in row] for row, den in zip(rows, dens)] == want
            seen["negative pivot"] += p < 0
            seen["pivot reads 1"] += p == 1
            seen["column touches other rows"] += sum(map(bool, (row[c] for row in a))) > 1
    assert min(seen.values()) >= 30, seen


def test_pivot_returns_the_pivot_rows_nonzero_positions():
    # the kernel hands back the positions of the new pivot row's nonzeros, in
    # increasing order and the last column's included, so that the simplex
    # needs no second scan of that row: in both forms, with the last entry
    # zero or not, and with the new pivot denominator 1 (no row is scaled)
    # or not
    seen = Counter()
    for seed in SEEDS:
        rng = Random(f"linalg differential positions {seed}")
        rows, dens, _ = random_tableau(rng)
        exchange = seed % 2 == 1
        for _ in range(rng.randint(1, 6)):
            entries = [(i, j) for i, row in enumerate(rows) for j, x in enumerate(row) if x]
            if not entries:
                break
            r, c = rng.choice(entries)
            touched = nonzero_rows(rows, c)
            positions = pivot_rows(rows, dens, r, c, touched, exchange)
            assert positions == [j for j, x in enumerate(rows[r]) if x]
            assert c in positions
            seen["exchange" if exchange else "Gauss-Jordan"] += 1
            seen["last entry nonzero" if positions[-1] == len(rows[r]) - 1
                 else "last entry zero"] += 1
            seen["P = 1, other rows touched" if dens[r] == 1 and len(touched) > 1
                 else "P != 1" if dens[r] != 1 else "P = 1"] += 1
    assert len(seen) == 7 and min(seen.values()) >= 30, seen


def largest_bits(monkeypatch, module, kernel, solve, program) -> tuple[int, int]:
    """Solve `program` with `module.pivot_rows` replaced by `kernel`; return the
    bit lengths of the largest denominator and of the largest numerator that
    the kernel leaves after a pivot."""
    den_bits = num_bits = 0

    def recorded(rows, dens, r, c, touched, **exchange):
        nonlocal den_bits, num_bits
        # a pivot changes only the rows with a nonzero in column c
        positions = kernel(rows, dens, r, c, touched, **exchange)
        den_bits = max(den_bits, max(dens).bit_length())
        num_bits = max(num_bits, *(max(max(rows[i]), -min(rows[i])).bit_length()
                                   for i in touched))
        return positions

    monkeypatch.setattr(module, "pivot_rows", recorded)
    solve(program)
    return den_bits, num_bits


@pytest.mark.parametrize("space", [
    *(coordinate_sum_kernel(n) for n in range(2, 9)),
    sigma_subspace(coordinate_sum_kernel(3), 3).space,
], ids=[*(f"ker{n}" for n in range(2, 9)), "sigma3-ker3"])
def test_denominators_grow_no_longer_than_in_lowest_terms(monkeypatch, space):
    # the full-tableau solver with the former kernel keeps every row in lowest
    # terms; both solvers take the same pivots on the same rational rows, so
    # a row the kernel leaves unreduced stays below one digit, and its
    # numerators are those in lowest terms times a factor below one digit
    program = build_projection_lp(space)
    got_den, got_num = largest_bits(monkeypatch, simplex, pivot_rows,
                                    simplex.solve_linear_program, program)

    def former(rows, dens, r, c, touched):
        ref.reference_pivot_rows(rows, dens, r, c)
        return [j for j, x in enumerate(rows[r]) if x]

    want_den, want_num = largest_bits(monkeypatch, tableau_reference, former,
                                      tableau_reference.solve_linear_program, program)
    assert got_den <= DIGIT_BITS or got_den <= want_den
    assert got_num <= want_num + DIGIT_BITS


def large_numerator_rows(rng: Random, nrows: int, ncols: int,
                         numerators: list[int]) -> list[list[int]]:
    """Integer rows whose entries each carry one or two large primes."""
    return [[rng.choice((1, -1)) * rng.choice(numerators)
             * math.prod(rng.sample(LARGE_PRIMES, rng.randint(1, 2)))
             if rng.random() < 0.6 else 0 for _ in range(ncols)] for _ in range(nrows)]


def test_elimination_past_one_digit_matches_the_former_elimination(monkeypatch):
    # rank and kernel of integer rows whose entries carry one or two primes
    # between 2**10 and 2**15, so that the pivots' denominators do, and the
    # inverse of rows over such primes: _reduce's scaled rows stay
    # unreduced below ONE_DIGIT and are brought to lowest terms at it; each
    # pivot is checked as it happens
    branches = Counter()

    def checked(rows, dens, r, c, touched):
        return pivot_checked(rows, dens, r, c, touched, branches=branches)

    monkeypatch.setattr(linalg, "pivot_rows", checked)
    numerators = list(range(1, 10))
    for seed in range(100):
        rng = Random(f"linalg differential one digit {seed}")
        m, n = rng.randint(2, 6), rng.randint(2, 6)
        integer = large_numerator_rows(rng, m, n, numerators)
        rows = [list(map(F, row)) for row in integer]
        assert rank_of_rows(integer) == ref.rank_of_rows(rows)
        assert ref.kernel_fractions(kernel_basis(integer)) == ref.kernel_basis(rows)
        square = Mat.from_rows(large_denominator_rows(rng, n, n, numerators))
        assert outcome(invert_square, square) == outcome(ref.invert_square, square)
    assert len(branches) == 2 and min(branches.values()) >= 30, branches


def test_reduce_pivots_distinct_rows(monkeypatch):
    calls = Counter()

    def checked(rows, dens, r, c, touched):
        assert len(set(map(id, rows))) == len(rows)
        calls["pivots"] += 1
        return pivot_rows(rows, dens, r, c, touched)

    monkeypatch.setattr(linalg, "pivot_rows", checked)
    for seed in range(60):
        rows = random_system(seed)
        # the same row object twice
        rows.append(rows[0])
        integer = ref.integer_rows(rows[:-1])
        integer.append(integer[0])
        assert rank_of_rows(integer) == ref.rank_of_rows(rows)
        assert ref.kernel_fractions(kernel_basis(integer)) == ref.kernel_basis(rows)
        m = random_square(seed)
        assert outcome(invert_square, m) == outcome(ref.invert_square, m)
    assert calls["pivots"] >= 300, calls


def reference_defect(m: Mat, space: Subspace) -> str | None:
    """The checks `minproj` and `zerosum` ran before `projection_defect`."""
    if not m.is_idempotent():
        return "is not idempotent"
    for i in range(space.dim):
        row = space.basis.row(i)
        if m.apply(row) != row:
            return "moves a basis vector"
    if not ref.maps_into(m, space):
        return "leaves the subspace"
    return None


def oblique_projection(rng: Random, g: Mat) -> Mat | None:
    """G^T (H G^T)^-1 H for a random H: a projection with the row space of G as range."""
    h = Mat.from_rows([[_entry(rng, 0.2) for _ in range(g.cols)] for _ in range(g.rows)])
    try:
        inv = ref.invert_square(h @ g.transpose())
    except RankDeficientError:
        return None
    return g.transpose() @ inv @ h


def test_projection_defect_matches_the_former_checks():
    decisions = Counter()
    for seed in SEEDS:
        rng = Random(f"linalg differential projection {seed}")
        n = rng.randint(2, 5)
        k = rng.randint(1, n - 1)
        try:
            space = Subspace.from_rows([[_entry(rng, 0.3) for _ in range(n)]
                                        for _ in range(k)])
        except RankDeficientError:
            continue
        # onto the space itself, onto a larger space containing it, onto an
        # unrelated space, and a random matrix
        extra = [[_entry(rng, 0.3) for _ in range(n)] for _ in range(rng.randint(1, n - k))]
        basis = ref.rows_of(space.basis)
        ranges = [basis, basis + extra, extra]
        candidates = []
        for rows in ranges:
            if ref.rank_of_rows(rows) == len(rows):
                candidates.append(oblique_projection(rng, Mat.from_rows(rows)))
        candidates.append(Mat.from_rows([[_entry(rng, 0.5) for _ in range(n)]
                                         for _ in range(n)]))
        for m in candidates:
            if m is None:
                continue
            got = projection_defect(m, space)
            assert got == reference_defect(m, space)
            decisions[got] += 1
    assert len(decisions) == 4 and min(decisions.values()) >= 30, decisions

