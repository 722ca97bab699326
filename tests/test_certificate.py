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

from projconst import minproj, zerosum
from projconst.acceptance import Context, run_all
from projconst.linalg import Mat, RankDeficientError, Subspace, inf_op_norm, integer_row
from projconst.minproj import (
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
        assert (cert.dual.rows, len(cert.weights), cert.restriction.rows) == (n, n, n - 1)

    def test_seeded_subspaces_agree_with_projection_constant(self, monkeypatch):
        # every LP solve that projection_constant makes carries one checked
        # dual, and the certificate it checked is the result's: the integer
        # parts that minproj's one check proves, made into `Mat`s, pass
        # check_certificate as well
        calls, checked = [], []
        original_solve, original_check = minproj.solve_linear_program, minproj._check

        def solve(lp):
            calls.append(lp)
            return original_solve(lp)

        def check(basis, *parts):
            checked.append(parts)
            return original_check(basis, *parts)

        def mat(rows, den):
            return Mat.from_rows([[F(x, den) for x in row] for row in rows])

        monkeypatch.setattr(minproj, "solve_linear_program", solve)
        monkeypatch.setattr(minproj, "_check", check)
        rng = Random(20261019)
        for trial in range(25):
            n = rng.randint(2, 6)
            space = _random_space(rng, n, rng.randint(1, n - 1))
            checked.clear()
            result = projection_constant(space)
            assert len(calls) == trial + 1
            [(value, coeffs, dual, (w, dw), restriction)] = checked
            cert = ProjectionCertificate(value, mat(*coeffs), mat(*dual),
                                         tuple(F(x, dw) for x in w), mat(*restriction))
            assert (cert.value, cert.coeffs) == (result.value, result.minimizer_c)
            check_certificate(space.basis, cert)
        assert len(calls) == 25

    def test_full_dimension_needs_no_program(self):
        space = Subspace.from_rows([[1, 2], [0, 3]])
        cert = projection_certificate(space)
        assert cert.value == 1
        assert cert.weights == (1, 0)
        assert cert.dual == Mat.from_rows([[1, 0], [0, 0]])
        assert cert.restriction == Mat.from_rows([[1, F(-2, 3)], [0, 0]])

    def test_primal_is_a_minimal_projection(self):
        space = coordinate_sum_kernel(4)
        cert = projection_certificate(space)
        projection = space.basis.transpose() @ cert.coeffs
        assert projection.is_idempotent()
        assert inf_op_norm(projection).value == cert.value


class TestClosedFormAndTensors:
    @pytest.mark.parametrize("copies", range(2, 9))
    def test_sum_kernel(self, copies):
        cert = sum_kernel_certificate(copies)
        check_certificate(coordinate_sum_kernel(copies).basis, cert)
        assert cert.value == zerosum.amplification_factor(copies)

    def test_sum_kernel_matches_the_centring_map(self):
        space = coordinate_sum_kernel(5)
        cert = sum_kernel_certificate(5)
        assert space.basis.transpose() @ cert.coeffs == zerosum.centring_projection(1, 5)

    def test_kron_certifies_the_zero_sum_space(self):
        base = Subspace.from_rows([[1, 2, -1]])
        tensored = sum_kernel_certificate(3).kron(projection_certificate(base))
        check_certificate(sigma_subspace(base, 3).space.basis, tensored)
        assert tensored.value == F(4, 3) * projection_constant(base).value

    def test_kron_of_two_solved_certificates(self):
        # no ker_N factor: E (x) F for two subspaces with LP certificates
        e, f = coordinate_sum_kernel(3), Subspace.from_rows([[1, 1]])
        space = Subspace(6, e.basis.kron(f.basis))
        cert = projection_certificate(e).kron(projection_certificate(f))
        check_certificate(space.basis, cert)
        assert cert.value == projection_constant(space).value


def _base():
    space = Subspace.from_rows([[1, 2, 0, -1], [0, 1, 1, 1]])
    return space, projection_certificate(space)


def _tensored():
    base, cert = _base()
    return sigma_subspace(base, 3).space, sum_kernel_certificate(3).kron(cert)


def _changed(m: Mat, index: int, value: F) -> Mat:
    entries = list(m.entries)
    entries[index] = value
    return Mat(m.rows, m.cols, tuple(entries))


def _first(entries, condition) -> int:
    return next(i for i, x in enumerate(entries) if condition(x))


def _mutants(space: Subspace, cert: ProjectionCertificate):
    """(field, changed certificate, the check that must fail) for single-entry changes."""
    n = space.ambient_dim
    w, dual = cert.weights, cert.dual
    used = _first(space.basis.col(0), bool)  # B[used, 0] != 0
    # a nonzero W_ij whose column i of B is not zero, so halving it moves B W
    moved = _first(range(n * n), lambda e: dual.entries[e] and any(space.basis.col(e // n)))
    weighted = _first(range(n * n), lambda e: w[e // n] > 0)
    light = _first(w, bool)
    return [
        ("C", cert._replace(coeffs=_changed(
            cert.coeffs, used * n, cert.coeffs.entries[used * n] + F(1, 7))), "C B^T = I"),
        ("W", cert._replace(dual=_changed(
            dual, moved, dual.entries[moved] / 2)), "B W = Lambda B"),
        ("W", cert._replace(dual=_changed(
            dual, weighted, w[weighted // n] + F(1, 7))), "|W_ij| <= w_i"),
        ("w", cert._replace(weights=w[:light] + (w[light] + F(1, 7),) + w[light + 1:]),
         "sum w = 1"),
        ("w", cert._replace(weights=w[:light] + (-w[light],) + w[light + 1:]), "w >= 0"),
        ("Lambda", cert._replace(restriction=_changed(
            cert.restriction, 0, cert.restriction.entries[0] + F(1, 7))), "B W = Lambda B"),
        ("lambda", cert._replace(value=cert.value + F(1, 1000)), "norm"),
        # a feasible dual that proves too little
        ("W, Lambda", cert._replace(
            dual=Mat.zeros(n, n), restriction=Mat.zeros(space.dim, space.dim)), "tr Lambda"),
    ]


@pytest.mark.parametrize("make", [_base, _tensored], ids=["base", "tensored"])
def test_every_mutant_fails_its_check(make):
    space, cert = make()
    check_certificate(space.basis, cert)
    for field, mutant, check in _mutants(space, cert):
        with pytest.raises(SolverIntegrityError) as caught:
            check_certificate(space.basis, mutant)
        assert str(caught.value).startswith(f"certificate check '{check}' fails"), field


def test_a_certificate_of_the_wrong_shape_fails():
    space, cert = _base()
    with pytest.raises(SolverIntegrityError, match="certificate check 'shape'"):
        check_certificate(sigma_subspace(space, 2).space.basis, cert)


def test_dependent_rows_fail_the_left_inverse_check():
    # check_certificate builds no Subspace: 'C B^T = I' alone rules out a
    # basis without full row rank, as C B^T has rank at most rank B
    space, cert = _base()
    rows = space.basis.row_lists()
    with pytest.raises(SolverIntegrityError, match="certificate check 'C B\\^T = I'"):
        check_certificate(Mat.from_rows([rows[0], rows[0]]), cert)


def _corrupt_slack_duals(monkeypatch, index, replace):
    """Make each LP solve of `minproj` return its slack duals u with u[index]
    replaced by replace(u[index]), in the integer form the certificate reads:
    numerators over the objective row's denominator."""
    solve = minproj.solve_linear_program

    def corrupted(lp):
        solution = solve(lp)
        u = solution.slack_duals
        u[index] = replace(u[index])
        costs, den = integer_row(u)
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
        return cert._replace(dual=Mat.identity(copies).scale(F(1, copies)))

    monkeypatch.setattr(zerosum, "sum_kernel_certificate", wrong)
    [result] = run_all(Context(), only={"multiplication-law"})
    assert not result.passed
    assert result.detail.startswith("SolverIntegrityError: certificate check 'B W = Lambda B'")
