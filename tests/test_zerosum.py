"""Zero-sum spaces, the centring map, symmetrization, and the exact law.

The symmetrization oracle for the 2-block case is worked out by hand in
`test_two_block_average_by_hand` and frozen; everything larger leans on the
structural identities that `extract_r` re-verifies entry by entry.
"""

import itertools
from fractions import Fraction as F
from random import Random

import pytest
from blocks_reference import block_permutation, coordinatewise_lift
from linalg_reference import column, identity, integer_add, integer_scale, subspace_contains, zeros
from pivot_limits import fewest_pivots

from projconst import simplex, zerosum
from projconst.linalg import Mat, Subspace, inf_op_norm
from projconst.minproj import DEFAULT_BUDGET, LPBudget, projection_certificate, projection_constant
from projconst.zerosum import (
    DecompositionIntegrityError,
    NotAProjectionError,
    NotSymmetrizedError,
    ZeroSumSpace,
    amplification_factor,
    centring_projection,
    centring_witness,
    coordinate_sum_kernel,
    extract_r,
    random_projection_onto,
    sigma_steps,
    sigma_subspace,
    symmetrize,
    verify_multiplication_law,
)

SCALAR_LINE = Subspace.from_rows([[1]])


def test_amplification_factor():
    assert amplification_factor(2) == F(1)
    assert amplification_factor(3) == F(4, 3)
    assert amplification_factor(4) == F(3, 2)
    assert amplification_factor(100) == F(99, 50)
    with pytest.raises(ValueError):
        amplification_factor(1)


class TestSigmaSubspace:
    def test_dimensions(self):
        base = Subspace.from_rows([[1, 0, 1], [0, 1, 0]])
        zs = sigma_subspace(base, 4)
        assert zs.space.dim == 3 * base.dim
        assert zs.ambient_dim == 12
        assert zs.mu == F(3, 2)

    def test_rows_are_zero_sum_tuples_of_base_vectors(self):
        base = Subspace.from_rows([[1, 2]])
        zs = sigma_subspace(base, 3)
        for i in range(zs.space.dim):
            row = zs.space.basis.row(i)
            blocks = [row[0:2], row[2:4], row[4:6]]
            for c in range(2):
                assert sum(b[c] for b in blocks) == 0
            for b in blocks:
                if any(b):
                    assert subspace_contains(base, b)

    def test_membership_examples(self):
        zs = sigma_subspace(SCALAR_LINE, 3)
        assert subspace_contains(zs.space, [1, -1, 0])
        assert subspace_contains(zs.space, [2, -1, -1])
        assert not subspace_contains(zs.space, [1, 1, 1])

    def test_validation(self):
        with pytest.raises(ValueError):
            sigma_subspace(SCALAR_LINE, 1)
        good = sigma_subspace(SCALAR_LINE, 2)
        with pytest.raises(TypeError):
            # the space is built from the base, never passed in
            ZeroSumSpace(SCALAR_LINE, 2, Subspace.from_rows([[1, 1]]))
        assert good.mu == F(1)
        assert good.space == coordinate_sum_kernel(2)

    def test_copies_must_match_the_ambient_dimension(self):
        # three scalar blocks are three copies: the space cannot be declared apart
        with pytest.raises(TypeError):
            ZeroSumSpace(SCALAR_LINE, 2, Subspace.from_rows([[1, -1, 0]]))
        zs = ZeroSumSpace(SCALAR_LINE, 3)
        assert zs.ambient_dim == zs.space.ambient_dim == 3
        assert subspace_contains(zs.space, [1, -1, 0])


def test_coordinate_sum_kernel():
    space = coordinate_sum_kernel(4)
    assert space.ambient_dim == 4
    assert space.dim == 3
    assert subspace_contains(space, [1, -1, 0, 0])
    assert not subspace_contains(space, [1, 0, 0, 0])
    with pytest.raises(ValueError):
        coordinate_sum_kernel(1)


class TestCentring:
    def test_two_block_matrix(self):
        assert centring_projection(1, 2) == Mat.from_rows(
            [["1/2", "-1/2"], ["-1/2", "1/2"]])

    def test_norm_and_idempotence(self):
        for d, n in [(1, 2), (1, 5), (2, 3), (3, 4)]:
            s = centring_projection(d, n)
            assert s.is_idempotent()
            assert inf_op_norm(s).value == amplification_factor(n)

    def test_range_is_the_zero_sum_space(self):
        s = centring_projection(2, 3)
        zs = sigma_subspace(Subspace.from_rows([[1, 0], [0, 1]]), 3)
        for j in range(6):
            assert subspace_contains(zs.space, column(s, j))

    def test_fixes_zero_sum_vectors(self):
        s = centring_projection(1, 3)
        assert s.apply([1, -1, 0]) == (F(1), F(-1), F(0))
        assert s.apply([1, 1, 1]) == (F(0), F(0), F(0))

    def test_witness(self):
        x, image = centring_witness(1, 3)
        assert x == (F(1), F(-1), F(-1))
        assert image == (F(4, 3), F(-2, 3), F(-2, 3))
        assert centring_projection(1, 3).apply(x) == image
        assert max(abs(v) for v in image) == amplification_factor(3)

    def test_witness_attains_for_larger_blocks(self):
        for d, n in [(2, 2), (2, 4), (1, 6)]:
            x, image = centring_witness(d, n)
            assert centring_projection(d, n).apply(x) == image
            assert max(abs(v) for v in image) == amplification_factor(n)

    def test_validation(self):
        with pytest.raises(ValueError):
            centring_projection(0, 2)
        with pytest.raises(ValueError):
            centring_projection(1, 1)
        with pytest.raises(ValueError):
            centring_witness(1, 1)


def test_coordinatewise_lift():
    q = Mat.from_rows([[1, 2], [0, 1]])
    lifted = coordinatewise_lift(q, 2)
    assert lifted.rows == 4
    assert lifted.apply([1, 0, 0, 1]) == (F(1), F(0), F(2), F(1))
    assert coordinatewise_lift(Mat.from_rows([[2]]), 3).apply([1, 1, 1]) == (F(2), F(2), F(2))
    with pytest.raises(ValueError):
        coordinatewise_lift(Mat.from_rows([[1, 2]]), 2)
    with pytest.raises(ValueError):
        coordinatewise_lift(q, 0)


class TestSymmetrize:
    def test_two_block_average_by_hand(self):
        # P x = (x_1, -x_1) projects onto the zero-sum line of ell_inf^2.
        # Its swap conjugate sends x to (-x_2, x_2), so the two-term average
        # is exactly the centring map.
        p = Mat.from_rows([[1, 0], [-1, 0]])
        assert symmetrize(p, 1, 2) == centring_projection(1, 2)

    def test_already_symmetric_is_fixed(self):
        s = centring_projection(2, 3)
        assert symmetrize(s, 2, 3) == s

    def test_result_commutes_with_all_block_permutations(self):
        rng = Random(3)
        zs = sigma_subspace(SCALAR_LINE, 3)
        p = random_projection_onto(zs, rng)
        avg = symmetrize(p, 1, 3)
        for sigma in itertools.permutations(range(3)):
            u = block_permutation(3, 1, sigma)
            assert u @ avg == avg @ u

    def test_never_increases_the_norm(self):
        rng = Random(5)
        zs = sigma_subspace(SCALAR_LINE, 3)
        for _ in range(10):
            p = random_projection_onto(zs, rng)
            assert inf_op_norm(symmetrize(p, 1, 3)).value <= inf_op_norm(p).value

    def test_rejects_non_projection(self):
        with pytest.raises(NotAProjectionError):
            symmetrize(Mat.from_rows([[2, 0], [0, 0]]), 1, 2)

    def test_rejects_wrong_range(self):
        # idempotent, but the range {(t, 0)} is not inside the zero-sum set
        with pytest.raises(NotAProjectionError):
            symmetrize(Mat.from_rows([[1, -1], [0, 0]]), 1, 2)

    def test_centring_map_is_fixed_beyond_six_copies(self):
        assert symmetrize(centring_projection(1, 7), 1, 7) == centring_projection(1, 7)

    @pytest.mark.parametrize("d, n", [(1, 3), (2, 4), (3, 5)])
    def test_matches_enumeration_over_the_group(self, d, n):
        # reference: the defining average over all N! block permutations
        base = Subspace.from_rows([[1] + [j % 2 for j in range(1, d)]])
        p = random_projection_onto(sigma_subspace(base, n), Random(d * 10 + n))
        total = zeros(d * n, d * n)
        perms = list(itertools.permutations(range(n)))
        for sigma in perms:
            u = block_permutation(n, d, sigma)
            total = integer_add(total, u.transpose() @ p @ u)
        assert symmetrize(p, d, n) == integer_scale(total, F(1, len(perms)))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            symmetrize(identity(3), 1, 2)


FULL_PLANE = Subspace.from_rows([[1, 0], [0, 1]])


class TestExtractR:
    def test_centring_map_collapses_to_identity(self):
        dec = extract_r(centring_projection(2, 3), FULL_PLANE, 3)
        assert dec.r == identity(2)
        assert dec.a == integer_scale(identity(2), F(2, 3))
        assert dec.b == integer_scale(identity(2), F(-1, 3))

    def test_random_symmetrized_projection_decomposes(self):
        rng = Random(17)
        zs = sigma_subspace(SCALAR_LINE, 4)
        lam = projection_constant(SCALAR_LINE).value
        for _ in range(5):
            q = random_projection_onto(zs, rng)
            q_avg = symmetrize(q, 1, 4)
            dec = extract_r(q_avg, SCALAR_LINE, 4)
            # the full exact chain behind the multiplication law
            norm_q = inf_op_norm(q).value
            norm_avg = inf_op_norm(q_avg).value
            norm_r = inf_op_norm(dec.r).value
            assert norm_q >= norm_avg
            assert norm_avg == amplification_factor(4) * norm_r
            assert norm_r >= lam

    def test_rejects_asymmetric_matrix(self):
        with pytest.raises(NotSymmetrizedError):
            extract_r(Mat.from_rows([[1, 0], [-1, 0]]), SCALAR_LINE, 2)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            extract_r(identity(3), SCALAR_LINE, 2)

    def test_rejects_block_map_outside_base(self):
        # symmetric under block swaps but the collapsed block map is the
        # identity of the plane, which does not land in the base line
        bad_base = Subspace.from_rows([[1, 0]])
        with pytest.raises(DecompositionIntegrityError):
            extract_r(centring_projection(2, 2), bad_base, 2)


class TestMultiplicationLaw:
    def test_scalar_line(self):
        report = verify_multiplication_law(SCALAR_LINE, 3)
        assert report.status == "ok"
        assert report.base_lambda == F(1)
        assert report.sigma_lambda == F(4, 3)
        assert report.product == F(4, 3)
        assert report.equal is True

    def test_two_copies_of_a_hyperplane(self):
        report = verify_multiplication_law(coordinate_sum_kernel(3), 2)
        assert report.equal is True
        assert report.sigma_lambda == F(4, 3)
        assert report.ambient_dim == 6

    def test_budget_truncation(self):
        tight = LPBudget(max_ambient=2, max_dim=2)
        report = verify_multiplication_law(coordinate_sum_kernel(3), 2, tight)
        assert report.status == "inconclusive"
        assert report.base_lambda is None
        assert report.equal is None
        assert report.product is None

    def test_budget_truncation_on_the_big_side(self):
        tight = LPBudget(max_ambient=3, max_dim=2)
        report = verify_multiplication_law(coordinate_sum_kernel(3), 2, tight)
        assert report.status == "inconclusive"
        assert report.base_lambda == F(4, 3)
        assert report.sigma_lambda is None

    def test_pivot_limit_on_the_big_side(self, monkeypatch):
        # the base's LP is the only one: the pivots it needs also certify
        # Sigma_3(ker_3) in ell_inf^9, and one pivot fewer leaves both sides open
        base = coordinate_sum_kernel(3)
        limit = fewest_pivots(monkeypatch, base)
        report = verify_multiplication_law(base, 3)
        assert (report.status, report.sigma_lambda) == ("ok", F(16, 9))
        monkeypatch.setattr(simplex, "PIVOT_LIMIT", limit - 1)
        report = verify_multiplication_law(base, 3)
        assert report.status == "inconclusive"
        assert (report.base_lambda, report.sigma_lambda, report.equal) == (None, None, None)

    def test_json_document(self):
        doc = verify_multiplication_law(SCALAR_LINE, 2).to_json_dict()
        assert doc == {
            "base_lambda": "1",
            "mu_N": "1",
            "sigma_lambda": "1",
            "product": "1",
            "equal": True,
            "N": 2,
            "ambient_dim": 2,
            "status": "ok",
        }


def line_steps(copies: int, steps: int, budget: LPBudget = DEFAULT_BUDGET) -> list:
    return list(sigma_steps(SCALAR_LINE, projection_certificate(SCALAR_LINE),
                            copies, steps, budget))


class TestSigmaSteps:
    def test_iterates_on_the_scalar_line(self):
        # Sigma_3(line) = ker_3 in ell_inf^3, then Sigma_3(ker_3) in ell_inf^9
        assert line_steps(3, 2) == [(3, F(4, 3)), (9, F(16, 9))]

    def test_stops_after_the_first_step_beyond_the_budget(self):
        tight = LPBudget(max_ambient=3, max_dim=4)
        assert line_steps(3, 3, tight) == [(3, F(4, 3)), (9, None)]

    def test_stops_at_the_pivot_limit(self, monkeypatch):
        # only the base's LP can stop at the pivot limit: the levels above
        # it solve no LP, so the limit that the base needs certifies them all
        base = coordinate_sum_kernel(3)
        limit = fewest_pivots(monkeypatch, base)
        assert list(sigma_steps(base, projection_certificate(base), 2, 2)) == [
            (6, F(4, 3)), (12, F(4, 3))]
        monkeypatch.setattr(simplex, "PIVOT_LIMIT", limit - 1)
        with pytest.raises(simplex.PivotLimitExceeded):
            projection_certificate(base)

    def test_pivot_limit_of_one_certifies_levels_above_the_scalar_line(self, monkeypatch):
        # the line (k = n) needs no LP, so no step of its schedule pivots;
        # Sigma_3(ker_3) alone took 454 pivots as a program of ell_inf^9
        monkeypatch.setattr(simplex, "PIVOT_LIMIT", 1)
        assert line_steps(3, 2) == [(3, F(4, 3)), (9, F(16, 9))]
        assert verify_multiplication_law(SCALAR_LINE, 4).sigma_lambda == F(3, 2)

    def test_zero_steps(self):
        assert line_steps(3, 0) == []

    @pytest.mark.parametrize("copies", [None, 0, 1, 2, 5])
    def test_zero_steps_need_no_block_count(self, copies):
        # demonstrate_schedule passes copies=None for a plan of no steps
        assert line_steps(copies, 0) == []

    @pytest.mark.parametrize("copies", [-1, 0, 1])
    def test_rejects_fewer_than_two_copies(self, copies, monkeypatch):
        # raised before ker_N's rows or certificate are built
        monkeypatch.setattr(zerosum, "_sum_kernel_rows", None)
        monkeypatch.setattr(zerosum, "sum_kernel_certificate", None)
        with pytest.raises(ValueError) as info:
            line_steps(copies, 1)
        assert str(info.value) == f"need at least 2 copies, got {copies}"

    @pytest.mark.parametrize("copies", [None, 1, 3])
    def test_rejects_a_negative_step_count(self, copies):
        with pytest.raises(ValueError) as info:
            line_steps(copies, -3)
        assert str(info.value) == "negative step count -3"
