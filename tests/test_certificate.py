"""Primal-dual certificates of projection constants and their product-only checker.

A certificate (C, W, w, Lambda) of lambda(E) = value comes from one LP solve
(`projection_certificate`), from a closed form (`sum_kernel_certificate`),
or as the Kronecker product of two others.  `check_certificate` must accept
each of them, and must reject a certificate with any one entry changed,
naming the check that fails.  Needs nothing beyond pytest.
"""

from fractions import Fraction as F
from random import Random

import pytest
import linalg_reference as ref
from certificate_reference import as_mat
from simplex_reference import slack_duals

from projconst import minproj, zerosum
from projconst.acceptance import Context, run_all
from projconst.linalg import Mat, RankDeficientError, Subspace, inf_op_norm
from projconst.minproj import (
    LPBudget,
    ProjectionCertificate,
    SolverIntegrityError,
    check_certificate,
    projection_certificate,
    projection_constant,
)
from projconst.zerosum import coordinate_sum_kernel, sigma_subspace, sum_kernel_certificate


def _random_space(rng: Random, n: int, k: int) -> Subspace:
    while True:
        try:
            return Subspace.from_rows([[rng.randint(-3, 3) for _ in range(n)]
                                       for _ in range(k)])
        except RankDeficientError:
            continue


class TestLinearProgramCertificates:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_kernels(self, n):
        cert = projection_certificate(coordinate_sum_kernel(n))
        assert cert.value == 2 - F(2, n)
        assert (len(cert.dual[0]), len(cert.weights[0]), len(cert.restriction[0])) == (n, n, n - 1)

    def test_seeded_subspaces_agree_with_projection_constant(self, monkeypatch):
        # every LP solve that projection_constant makes carries one checked
        # dual, and the certificate that the one checker proved is the
        # result's, and proves it again
        calls, checked = [], []
        original_solve, original_check = minproj.solve_linear_program, minproj.check_certificate

        def solve(lp):
            calls.append(lp)
            return original_solve(lp)

        def check(basis, cert):
            checked.append((basis, cert))
            return original_check(basis, cert)

        monkeypatch.setattr(minproj, "solve_linear_program", solve)
        monkeypatch.setattr(minproj, "check_certificate", check)
        rng = Random(20261019)
        for trial in range(25):
            n = rng.randint(2, 6)
            space = _random_space(rng, n, rng.randint(1, n - 1))
            checked.clear()
            result = projection_constant(space)
            assert len(calls) == trial + 1
            [(basis, cert)] = checked
            assert basis == space.integer_basis
            assert (cert.value, as_mat(cert.coeffs)) == (result.value, result.minimizer_c)
            original_check(space.integer_basis, cert)
        assert len(calls) == 25

    def test_full_dimension_needs_no_program(self):
        space = Subspace.from_rows([[1, 2], [0, 3]])
        cert = projection_certificate(space)
        assert cert.value == 1
        assert cert.weights == ([1, 0], 1)
        assert cert.dual == ([[1, 0], [0, 0]], 1)
        assert as_mat(cert.restriction) == Mat.from_rows([[1, F(-2, 3)], [0, 0]])

    def test_primal_is_a_minimal_projection(self):
        space = coordinate_sum_kernel(4)
        cert = projection_certificate(space)
        projection = space.basis.transpose() @ as_mat(cert.coeffs)
        assert projection.is_idempotent()
        assert inf_op_norm(projection).value == cert.value


class TestClosedFormAndTensors:
    @pytest.mark.parametrize("copies", range(2, 9))
    def test_sum_kernel(self, copies):
        cert = sum_kernel_certificate(copies)
        check_certificate(coordinate_sum_kernel(copies).integer_basis, cert)
        assert cert.value == zerosum.amplification_factor(copies)

    def test_sum_kernel_matches_the_centring_map(self):
        space = coordinate_sum_kernel(5)
        cert = sum_kernel_certificate(5)
        assert space.basis.transpose() @ as_mat(cert.coeffs) == zerosum.centring_projection(1, 5)

    def test_kron_certifies_the_zero_sum_space(self):
        base = Subspace.from_rows([[1, 2, -1]])
        tensored = sum_kernel_certificate(3).kron(projection_certificate(base))
        check_certificate(sigma_subspace(base, 3).space.integer_basis, tensored)
        assert tensored.value == F(4, 3) * projection_constant(base).value

    def test_kron_of_two_solved_certificates(self):
        # no ker_N factor: E (x) F for two subspaces with LP certificates
        e, f = coordinate_sum_kernel(3), Subspace.from_rows([[1, 1]])
        space = Subspace(e.basis.kron(f.basis))
        cert = projection_certificate(e).kron(projection_certificate(f))
        check_certificate(space.integer_basis, cert)
        assert cert.value == projection_constant(space).value


def _base():
    space = Subspace.from_rows([[1, 2, 0, -1], [0, 1, 1, 1]])
    return space, projection_certificate(space)


def _tensored():
    base, cert = _base()
    return sigma_subspace(base, 3).space, sum_kernel_certificate(3).kron(cert)


def _changed(part, p: int, q: int, delta: F):
    """The integer part (rows, den) with delta added to entry (p, q), over
    den * delta.denominator: a copy, as the certificate's rows are lists."""
    rows, den = part
    rows = [[x * delta.denominator for x in row] for row in rows]
    rows[p][q] += delta.numerator * den
    return rows, den * delta.denominator


def _changed_weight(weights, i: int, delta: F):
    [w], den = _changed(([weights[0]], weights[1]), 0, i, delta)
    return w, den


def _first(entries, condition) -> int:
    return next(i for i, x in enumerate(entries) if condition(x))


def _mutants(space: Subspace, cert: ProjectionCertificate):
    """(field, changed certificate, the check that must fail) for single-entry changes."""
    n = space.ambient_dim
    (w, dw), (dual, dd) = cert.weights, cert.dual
    lam, dl = cert.restriction
    used = _first(ref.column(space.basis, 0), bool)  # B[used, 0] != 0
    # a nonzero W_ij whose column i of B is not zero, so halving it moves B W
    i, j = divmod(_first(range(n * n), lambda e: dual[e // n][e % n]
                         and any(ref.column(space.basis, e // n))), n)
    # W_pq set to w_p + 1/7 for a row p of positive weight
    p = _first(w, lambda x: x > 0)
    light = _first(w, bool)
    return [
        ("C", cert._replace(coeffs=_changed(cert.coeffs, used, 0, F(1, 7))), "C B^T = I"),
        ("W", cert._replace(dual=_changed(cert.dual, i, j, -F(dual[i][j], 2 * dd))),
         "B W = Lambda B"),
        ("W", cert._replace(dual=_changed(cert.dual, p, 0,
                                          F(w[p], dw) + F(1, 7) - F(dual[p][0], dd))),
         "|W_ij| <= w_i"),
        ("w", cert._replace(weights=_changed_weight(cert.weights, light, F(1, 7))), "sum w = 1"),
        ("w", cert._replace(weights=_changed_weight(cert.weights, light, -2 * F(w[light], dw))),
         "w >= 0"),
        ("Lambda", cert._replace(restriction=_changed(cert.restriction, 0, 0, F(1, 7))),
         "B W = Lambda B"),
        ("lambda", cert._replace(value=cert.value + F(1, 1000)), "norm"),
        # a feasible dual that proves too little
        ("W, Lambda", cert._replace(dual=([[0] * n for _ in range(n)], dd),
                                    restriction=([[0] * len(lam) for _ in lam], dl)),
         "tr Lambda"),
    ]


@pytest.mark.parametrize("make", [_base, _tensored], ids=["base", "tensored"])
def test_every_mutant_fails_its_check(make):
    space, cert = make()
    check_certificate(space.integer_basis, cert)
    for field, mutant, check in _mutants(space, cert):
        with pytest.raises(SolverIntegrityError) as caught:
            check_certificate(space.integer_basis, mutant)
        assert str(caught.value).startswith(f"certificate check '{check}' fails"), field


def test_a_certificate_of_the_wrong_shape_fails():
    space, cert = _base()
    with pytest.raises(SolverIntegrityError, match="certificate check 'shape'"):
        check_certificate(sigma_subspace(space, 2).space.integer_basis, cert)


@pytest.mark.parametrize("make", [_base, _tensored], ids=["base", "tensored"])
@pytest.mark.parametrize("field", ["coeffs", "dual", "weights", "restriction"])
def test_a_denominator_that_is_not_positive_fails_the_shape_check(make, field):
    # every comparison of the check scales both sides by a denominator, so
    # one of 0 makes them all hold, and a negative one flips the
    # inequalities; negating numerators and denominator keeps every value
    space, cert = make()
    numerators, den = getattr(cert, field)
    negated = [-x for x in numerators] if field == "weights" else [
        [-x for x in row] for row in numerators]
    for changed in (numerators, 0), (negated, -den), (numerators, F(den)), (numerators, True):
        with pytest.raises(SolverIntegrityError, match="certificate check 'shape' fails"):
            check_certificate(space.integer_basis, cert._replace(**{field: changed}))


def test_a_zero_dual_over_denominator_zero_proves_nothing():
    # on the diagonal of ell_inf^3, lambda = 1; C = (4/3, -1/3, 0) is a left
    # inverse of norm 5/3, and W = 0 over 0 with Lambda = (5/3) would pass
    # every later check, since each of them multiplies by W's denominator
    diagonal = Subspace.from_rows([[1, 1, 1]])
    cert = ProjectionCertificate(F(5, 3), ([[4, -1, 0]], 3), ([[0] * 3] * 3, 0),
                                 ([1, 0, 0], 1), ([[5]], 3))
    with pytest.raises(SolverIntegrityError, match="certificate check 'shape' fails"):
        check_certificate(diagonal.integer_basis, cert)
    with pytest.raises(SolverIntegrityError, match="certificate check 'B W = Lambda B' fails"):
        check_certificate(diagonal.integer_basis, cert._replace(dual=([[0] * 3] * 3, 1)))
    # and a B of zeros over 0 would pass 'C B^T = I' and divide by zero in 'norm'
    with pytest.raises(SolverIntegrityError, match="certificate check 'shape' fails"):
        check_certificate(([[0] * 3], 0), cert._replace(dual=([[0] * 3] * 3, 1)))
    assert projection_certificate(diagonal).value == 1


@pytest.mark.parametrize("make", [_base, _tensored], ids=["base", "tensored"])
def test_a_basis_that_is_not_integer_rows_fails_the_shape_check(make):
    # B is read as given: a denominator of 0 would make every check hold or
    # divide by zero, a negative one flip every inequality, and a ragged
    # row or a `Fraction` numerator is not the format
    space, cert = make()
    rows, den = space.integer_basis
    negated = tuple(tuple(-x for x in row) for row in rows)
    ragged = rows[:-1] + (rows[-1][:-1],)
    for changed in ((rows, 0), (negated, -den), (rows, True), (rows, F(den)),
                    (((F(rows[0][0]),) + rows[0][1:],) + rows[1:], den), (ragged, den)):
        with pytest.raises(SolverIntegrityError, match="certificate check 'shape' fails"):
            check_certificate(changed, cert)


@pytest.mark.parametrize("value", [1.0, "1", True, 1], ids=["float", "str", "bool", "int"])
def test_a_value_that_is_not_a_fraction_fails_the_shape_check(value):
    # each equals or prints as the true value 1 of this line, but a float
    # or a str has no numerator to compare, and True or 1 is not the format
    space = Subspace.from_rows([[1, 2, -1]])
    cert = projection_certificate(space)
    assert cert.value == 1
    with pytest.raises(SolverIntegrityError, match="certificate check 'shape' fails"):
        check_certificate(space.integer_basis, cert._replace(value=value))


def test_a_numerator_that_is_not_an_int_fails_the_shape_check():
    space, cert = _base()
    w, dw = cert.weights
    for changed in [float(w[0])] + w[1:], [F(w[0])] + w[1:]:
        with pytest.raises(SolverIntegrityError, match="certificate check 'shape' fails"):
            check_certificate(space.integer_basis, cert._replace(weights=(changed, dw)))


def test_a_sigma_level_converts_only_its_basis(monkeypatch):
    # a call makes one `Mat`, ker_N's rows, however many levels it
    # certifies, and converts no `Fraction`; each level is the integer
    # Kronecker product of ker_N's rows with the level before, starting from
    # the numerator rows of the base's basis, so no level is a `Mat`
    base = Subspace.from_rows([[1, F(2, 3), -1]])
    cert = projection_certificate(base)
    krons, made, conversions = [], [], []
    kron, init, from_rows = Mat.kron, Mat.__init__, Mat.from_rows.__func__

    def counted_kron(a, b):
        krons.append((a.rows, b.rows))
        return kron(a, b)

    def counted_init(m, rows, cols, nums, den=1):
        made.append((rows, cols))
        init(m, rows, cols, nums, den)

    def counted_from_rows(cls, rows):
        conversions.append(len(rows))
        return from_rows(cls, rows)

    monkeypatch.setattr(Mat, "kron", counted_kron)
    monkeypatch.setattr(Mat, "__init__", counted_init)
    monkeypatch.setattr(Mat, "from_rows", classmethod(counted_from_rows))
    assert list(zerosum.sigma_steps(base, cert, 2, 3, LPBudget(24, 4))) == [
        (6, cert.value), (12, cert.value), (24, cert.value)]
    assert krons == []
    assert made == [(1, 2)]
    assert conversions == []


@pytest.mark.parametrize("copies", [2, 3, 4])
def test_each_sigma_level_is_the_conversion_of_its_fraction_basis(monkeypatch, copies):
    base = Subspace.from_rows([[F(2, 3), F(-1, 2)]])
    seen = []

    def recorded(basis, cert):
        seen.append(basis)
        return check_certificate(basis, cert)

    monkeypatch.setattr(zerosum, "check_certificate", recorded)
    steps = list(zerosum.sigma_steps(base, projection_certificate(base), copies, 3,
                                     LPBudget(2 * copies ** 3, (copies - 1) ** 3)))
    assert [value for _, value in steps] == [zerosum.amplification_factor(copies) ** k
                                             for k in (1, 2, 3)]
    level = base.basis
    for basis in seen:
        # the former `Fraction` Kronecker product, taken apart the former way
        level = ref.kron(zerosum._sum_kernel_rows(copies), level)
        nums, den = ref.integer_row(level.entries)
        assert basis == ([nums[i:i + level.cols] for i in range(0, len(nums), level.cols)],
                         den)
    assert len(seen) == 3


def test_dependent_rows_fail_the_left_inverse_check():
    # check_certificate builds no Subspace: 'C B^T = I' alone rules out a
    # basis without full row rank, as C B^T has rank at most rank B
    space, cert = _base()
    rows, den = space.integer_basis
    with pytest.raises(SolverIntegrityError, match="certificate check 'C B\\^T = I'"):
        check_certificate(((rows[0], rows[0]), den), cert)


def _corrupt_slack_duals(monkeypatch, index, replace):
    """Make each LP solve of `minproj` return its slack duals u with u[index]
    replaced by replace(u[index]), in the integer form the certificate reads:
    numerators over the objective row's denominator."""
    solve = minproj.solve_linear_program

    def corrupted(lp):
        solution = solve(lp)
        u = slack_duals(solution)
        u[index] = replace(u[index])
        costs, den = ref.integer_row(u)
        return solution._replace(slack_costs=costs, cost_den=den)

    monkeypatch.setattr(minproj, "solve_linear_program", corrupted)


# (index into u, change, the check that must fail).  Index 0 is the dual
# of the + majorant row of entry (0, 0), which adds 3 to W_00 >= -w_0, so
# W_00 ends at least 2 and exceeds w_0 <= 1.  Index -1 is the dual of the
# last row-sum row, a weight.
SLACK_DUAL_CHANGES = [
    pytest.param(0, lambda x: x + 3, "|W_ij| <= w_i", id="majorant"),
    pytest.param(-1, lambda x: x + F(1, 7), "sum w = 1", id="weight"),
]


@pytest.mark.parametrize("index, replace, check", SLACK_DUAL_CHANGES)
@pytest.mark.parametrize("space", [
    coordinate_sum_kernel(3),
    Subspace.from_rows([[1, 2, 0, -1], [0, 1, 1, 1]]),
], ids=["ker3", "rational4"])
def test_projection_constant_checks_the_dual(monkeypatch, space, index, replace, check):
    # a changed slack dual leaves the primal optimal, so only a dual check
    # can reject it
    _corrupt_slack_duals(monkeypatch, index, replace)
    with pytest.raises(SolverIntegrityError) as caught:
        projection_constant(space)
    assert str(caught.value).startswith(f"certificate check '{check}' fails")


@pytest.mark.parametrize("index, replace, check", SLACK_DUAL_CHANGES)
def test_a_wrong_slack_dual_fails_the_kernel_constants(monkeypatch, index, replace, check):
    _corrupt_slack_duals(monkeypatch, index, replace)
    [result] = run_all(Context(), only={"kernel-constants"})
    assert not result.passed
    assert result.detail.startswith(f"SolverIntegrityError: certificate check '{check}'")


def test_a_wrong_kernel_factor_fails_the_multiplication_law(monkeypatch):
    # W_K = I/N satisfies |W_ij| <= w_i but not B W = Lambda B
    def wrong(copies):
        cert = sum_kernel_certificate(copies)
        return cert._replace(dual=([[int(r == c) for c in range(copies)]
                                    for r in range(copies)], copies))

    monkeypatch.setattr(zerosum, "sum_kernel_certificate", wrong)
    [result] = run_all(Context(), only={"multiplication-law"})
    assert not result.passed
    assert result.detail.startswith("SolverIntegrityError: certificate check 'B W = Lambda B'")
