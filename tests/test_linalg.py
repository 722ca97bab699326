import itertools
from fractions import Fraction as F
from random import Random

import pytest
from blocks_reference import block_permutation
from hypothesis import given, settings
from hypothesis import strategies as st
from linalg_reference import (
    column,
    entry,
    identity,
    integer_add,
    integer_rows,
    integer_scale,
    kernel_fractions,
    solve_linear_system,
    subspace_contains,
    zeros,
)

from projconst.linalg import (
    Mat,
    RankDeficientError,
    Subspace,
    as_rat,
    format_rational,
    inf_op_norm,
    invert_square,
    kernel_basis,
    parse_rational,
    projection_defect,
    rank_of_rows,
)

rationals = st.fractions(max_denominator=12, min_value=-9, max_value=9)


def flatten_blocks(vectors) -> tuple[F, ...]:
    return tuple(F(x) for v in vectors for x in v)


def brute_force_norm(m: Mat) -> F:
    # independent oracle: enumerate every +-1 input, take the largest image entry
    best = F(0)
    for signs in itertools.product((1, -1), repeat=m.cols):
        image = m.apply(signs)
        best = max(best, max(abs(x) for x in image))
    return best


class TestRationals:
    def test_parse_fraction_forms(self):
        assert parse_rational("3") == F(3)
        assert parse_rational("-7/2") == F(-7, 2)
        assert parse_rational("4/6") == F(2, 3)
        assert parse_rational(" 2/-4 ") == F(-1, 2)

    @pytest.mark.parametrize("bad", ["", "1.5", "x", "1/0", "1/2/3", "2e3",
                                     "1_0", "\u0661\u0662", "\uff11\uff12", "1/ 2"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    @given(num=st.integers(-10**6, 10**6), den=st.integers(1, 10**4))
    def test_parse_format_round_trip(self, num, den):
        value = F(num, den)
        assert parse_rational(format_rational(value)) == value

    def test_format_is_reduced(self):
        assert format_rational(F(4, 6)) == "2/3"
        assert format_rational(F(-8, 4)) == "-2"

    def test_as_rat(self):
        assert as_rat(3) == F(3)
        assert as_rat("1/2") == F(1, 2)
        assert as_rat(F(5, 7)) == F(5, 7)
        with pytest.raises(TypeError):
            as_rat(0.5)


class TestMat:
    def test_shape_checks(self):
        with pytest.raises(ValueError):
            Mat.from_rows([[1, 2], [3]])
        with pytest.raises(ValueError):
            Mat(2, 2, (F(1),) * 3)
        with pytest.raises(ValueError):
            Mat.from_rows([])

    def test_accessors(self):
        m = Mat.from_rows([[1, 2, 3], [4, 5, 6]])
        assert entry(m, 1, 2) == F(6)
        assert m.row(0) == (F(1), F(2), F(3))
        assert column(m, 1) == (F(2), F(5))
        assert m.transpose().row(2) == (F(3), F(6))
        assert m.transpose().transpose() == m

    def test_arithmetic(self):
        a = Mat.from_rows([[1, 2], [3, 4]])
        assert integer_add(a, integer_scale(a, -1)) == zeros(2, 2)
        assert a @ identity(2) == a
        assert identity(2) @ a == a
        assert a.apply([1, "1/2"]) == (F(2), F(5))
        with pytest.raises(ValueError):
            a.apply([1, 2, 3])
        with pytest.raises(ValueError):
            a @ identity(3)

    def test_idempotent(self):
        assert identity(3).is_idempotent()
        assert Mat.from_rows([["1/2", "-1/2"], ["-1/2", "1/2"]]).is_idempotent()
        assert not Mat.from_rows([[2, 0], [0, 0]]).is_idempotent()
        assert not Mat.from_rows([[1, 2, 3]]).is_idempotent()


def seeded_mat(rng: Random, rows: int, cols: int) -> Mat:
    """Rationals with about one zero entry in three, so zero factors are exercised."""
    return Mat.from_rows([[F(rng.randint(-4, 4) * (rng.random() < 2 / 3), rng.randint(1, 5))
                           for _ in range(cols)] for _ in range(rows)])


class TestKron:
    SHAPES = [(1, 1), (1, 3), (2, 1), (2, 2), (3, 2), (2, 4)]

    def test_entrywise_definition(self):
        rng = Random(11)
        for (p, q), (r, s) in itertools.product(self.SHAPES, repeat=2):
            a, b = seeded_mat(rng, p, q), seeded_mat(rng, r, s)
            k = a.kron(b)
            assert (k.rows, k.cols) == (p * r, q * s)
            assert all(type(x) is F for x in k.entries)
            for i, j, u, v in itertools.product(range(p), range(q), range(r), range(s)):
                assert entry(k, i * r + u, j * s + v) == entry(a, i, j) * entry(b, u, v)

    def test_mixed_product(self):
        # (A (x) B)(C (x) D) = AC (x) BD
        rng = Random(12)
        for _ in range(40):
            p, q, t, r, s, u = (rng.randint(1, 3) for _ in range(6))
            a, c = seeded_mat(rng, p, q), seeded_mat(rng, q, t)
            b, d = seeded_mat(rng, r, s), seeded_mat(rng, s, u)
            assert a.kron(b) @ c.kron(d) == (a @ c).kron(b @ d)

    def test_norm_is_multiplicative(self):
        # absolute row sums multiply, so the inf->inf norms do
        rng = Random(13)
        for _ in range(60):
            a = seeded_mat(rng, rng.randint(1, 4), rng.randint(1, 4))
            b = seeded_mat(rng, rng.randint(1, 4), rng.randint(1, 4))
            assert inf_op_norm(a.kron(b)).value == inf_op_norm(a).value * inf_op_norm(b).value

    def test_identity_factors(self):
        m = Mat.from_rows([["1/2", -3], [0, "2/7"]])
        assert identity(1).kron(m) == m == m.kron(identity(1))
        assert identity(2).kron(identity(3)) == identity(6)


class TestInfOpNorm:
    def test_frozen_example(self):
        m = Mat.from_rows([[1, -1], [2, 3]])
        norm = inf_op_norm(m)
        assert norm.value == F(5)
        assert norm.row_index == 1
        assert norm.witness == (1, 1)
        assert brute_force_norm(m) == F(5)

    def test_zero_entries_count_as_plus(self):
        norm = inf_op_norm(Mat.from_rows([[0, -2]]))
        assert norm.witness == (1, -1)

    @given(st.lists(st.lists(rationals, min_size=1, max_size=4),
                    min_size=1, max_size=4).filter(
                        lambda rows: len({len(r) for r in rows}) == 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_sign_enumeration(self, rows):
        m = Mat.from_rows(rows)
        norm = inf_op_norm(m)
        assert norm.value == brute_force_norm(m)
        image = m.apply(norm.witness)
        assert max(abs(x) for x in image) == norm.value


class TestBlockPermutation:
    """The dense 0/1 block permutations the zero-sum tests conjugate by."""

    def test_moves_blocks(self):
        u = block_permutation(3, 2, [1, 2, 0])
        x = flatten_blocks([[1, 2], [3, 4], [5, 6]])
        # block 0 -> position 1, block 1 -> position 2, block 2 -> position 0
        assert u.apply(x) == flatten_blocks([[5, 6], [1, 2], [3, 4]])

    def test_homomorphism_s3(self):
        d = 2
        for sigma in itertools.permutations(range(3)):
            for tau in itertools.permutations(range(3)):
                composed = [sigma[tau[j]] for j in range(3)]
                assert (block_permutation(3, d, sigma) @ block_permutation(3, d, tau)
                        == block_permutation(3, d, composed))

    def test_inverse_is_transpose(self):
        sigma = [2, 0, 3, 1]
        u = block_permutation(4, 3, sigma)
        assert u @ u.transpose() == identity(12)
        inverse = [0] * 4
        for j, t in enumerate(sigma):
            inverse[t] = j
        assert u.transpose() == block_permutation(4, 3, inverse)

    def test_norm_one(self):
        assert inf_op_norm(block_permutation(3, 2, [2, 0, 1])).value == F(1)

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            block_permutation(3, 1, [0, 0, 1])


class TestSubspace:
    def test_rank_enforced(self):
        with pytest.raises(RankDeficientError):
            Subspace.from_rows([[1, 1], [2, 2]])

    def test_dim(self):
        s = Subspace.from_rows([[1, 0, 1], [0, 1, 0]])
        assert s.dim == 2
        assert s.ambient_dim == 3

    def test_membership(self):
        s = Subspace.from_rows([[1, 1, 0], [0, 0, 1]])
        assert subspace_contains(s, [2, 2, -5])
        assert not subspace_contains(s, [1, 0, 0])
        with pytest.raises(ValueError):
            subspace_contains(s, [1, 0])


class TestElimination:
    def test_rank(self):
        assert rank_of_rows([[1, 2], [2, 4]]) == 1
        assert rank_of_rows([[0, 1], [1, 0]]) == 2
        assert rank_of_rows([]) == 0

    def test_solve(self):
        rows = [[F(1), F(1)], [F(1), F(-1)]]
        x = solve_linear_system(rows, [F(3), F(1)])
        assert x == [F(2), F(1)]
        assert solve_linear_system([[F(1), F(1)], [F(2), F(2)]], [F(1), F(3)]) is None
        with pytest.raises(ValueError):
            solve_linear_system(rows, [F(1)])

    def test_kernel(self):
        basis, den = kernel_basis([[1, 1, 1]])
        assert len(basis) == 2 and den == 1
        for vec in basis:
            assert sum(vec) == 0

    def test_kernel_trivial(self):
        assert kernel_basis([[1, 0], [0, 1]]) == ([], 1)

    def test_kernel_rows_share_the_pivot_rows_denominator(self):
        # the rows reduce to (1, 3/2, 0) over 2 and (0, 0, 1) over 1, so the
        # kernel vector (-3/2, 1, 0) is (-3, 2, 0) over lcm(2, 1)
        assert kernel_basis([[2, 3, 0], [0, 0, 5]]) == ([[-3, 2, 0]], 2)

    @given(st.lists(st.lists(rationals, min_size=3, max_size=3),
                    min_size=1, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_kernel_annihilates(self, rows):
        rows = [[F(x) for x in r] for r in rows]
        for vec in kernel_basis(integer_rows(rows))[0]:
            for row in rows:
                assert sum(a * b for a, b in zip(row, vec)) == 0

    def test_invert(self):
        m = Mat.from_rows([[2, 1], [1, 1]])
        assert m @ invert_square(m) == identity(2)
        assert invert_square(m) @ m == identity(2)
        with pytest.raises(RankDeficientError):
            invert_square(Mat.from_rows([[1, 2], [2, 4]]))
        with pytest.raises(ValueError):
            invert_square(Mat.from_rows([[1, 2]]))


class TestProjectionDefect:
    """One matrix per check, for the line spanned by e_1 in ell_inf^3."""

    LINE = Subspace.from_rows([[1, 0, 0]])

    def test_projection(self):
        assert projection_defect(Mat.from_rows([[1, 1, 1], [0, 0, 0], [0, 0, 0]]),
                                 self.LINE) is None

    def test_not_idempotent(self):
        m = Mat.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 0]])
        assert projection_defect(m, self.LINE) == "is not idempotent"

    def test_moves_a_basis_vector(self):
        m = Mat.from_rows([[0, 0, 0], [0, 1, 0], [0, 0, 0]])
        assert projection_defect(m, self.LINE) == "moves a basis vector"

    def test_a_square_of_another_size_is_a_shape_error(self):
        with pytest.raises(ValueError, match="2x2 matrix does not act on ell_inf\\^3"):
            projection_defect(identity(2), self.LINE)

    def test_leaves_the_subspace(self):
        # a projection onto span(e_1, e_2): it fixes e_1, but its range is larger
        m = Mat.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
        assert projection_defect(m, self.LINE) == "leaves the subspace"


def _apply(rows, x):
    return [sum((a * b for a, b in zip(row, x)), F(0)) for row in rows]


def _det(rows):
    # Leibniz expansion: independent of elimination, fine up to 4x4
    n = len(rows)
    total = F(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = F(-1) ** inversions
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


matrices = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=1, max_size=4))


class TestEliminationIdentities:
    """The shared elimination kernel, checked through the defining identities
    of each wrapper rather than against another implementation."""

    @given(matrices, st.data())
    @settings(max_examples=80, deadline=None)
    def test_solve_satisfies_the_system(self, rows, data):
        rhs = data.draw(st.lists(rationals, min_size=len(rows), max_size=len(rows)))
        x = solve_linear_system(rows, rhs)
        if x is not None:
            assert _apply(rows, x) == rhs
        # a right-hand side in the column space always has a solution
        image = _apply(rows, [F(1)] * len(rows[0]))
        assert _apply(rows, solve_linear_system(rows, image)) == image

    @given(matrices)
    @settings(max_examples=80, deadline=None)
    def test_rank_nullity(self, rows):
        kernel = kernel_fractions(kernel_basis(integer_rows(rows)))
        for vec in kernel:
            assert _apply(rows, vec) == [F(0)] * len(rows)
        assert rank_of_rows(integer_rows(kernel)) == len(kernel)
        assert rank_of_rows(integer_rows(rows)) + len(kernel) == len(rows[0])

    @given(st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(rationals, min_size=n, max_size=n),
                           min_size=n, max_size=n)))
    @settings(max_examples=80, deadline=None)
    def test_inverse_or_rank_error(self, rows):
        m = Mat.from_rows(rows)
        if _det(rows) == 0:
            with pytest.raises(RankDeficientError):
                invert_square(m)
        else:
            assert m @ invert_square(m) == identity(m.rows)
