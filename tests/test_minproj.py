import itertools
from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from linalg_reference import subspace_contains

from projconst.linalg import Mat, Subspace, inf_op_norm, rank_of_rows
from projconst.minproj import (
    BudgetExceededError,
    LPBudget,
    OracleConfig,
    build_projection_lp,
    feasible_perturbation,
    float_oracle,
    projection_constant,
)
from projconst.zerosum import coordinate_sum_kernel


def zero_sum_hyperplane(n: int) -> Subspace:
    return coordinate_sum_kernel(n)


class TestProgramShape:
    def test_counts(self):
        space = Subspace.from_rows([[1, 0, 1, 0], [0, 1, 0, 1]])
        lp = build_projection_lp(space)
        n, k = 4, 2
        assert lp.num_coeff_vars == k * n
        assert lp.num_majorant_vars == n * n
        assert lp.num_vars == k * n + n * n + 1
        assert lp.num_equalities == k * k
        assert lp.num_inequalities == 2 * n * n + n
        assert len(lp.program.eq_rows) == lp.num_equalities
        assert len(lp.program.ub_rows) == lp.num_inequalities
        assert len(lp.program.objective) == lp.num_vars
        # only the coefficient block is sign-free
        assert lp.program.free == [True] * (k * n) + [False] * (n * n + 1)

    def test_objective_is_the_bound(self):
        lp = build_projection_lp(Subspace.from_rows([[1, 1]]))
        assert lp.program.objective[-1] == F(1)
        assert all(c == 0 for c in lp.program.objective[:-1])


def grid_norms_of_diagonal_projections():
    """Every projection onto span{(1,1)} in ell_inf^2 is x -> (c x_1 + (1-c) x_2)(1,1).

    Its norm is |c| + |1 - c|, so scanning c over a rational grid gives an
    independent lower-bound profile for the minimal norm.
    """
    norms = []
    for i in range(-8, 17):
        c = F(i, 8)
        norms.append(abs(c) + abs(1 - c))
    return norms


class TestKnownValues:
    def test_full_space_is_identity(self):
        result = projection_constant(Subspace.from_rows([[1, 2], [3, 4]]))
        assert result.value == F(1)
        assert result.projection == Mat.identity(2)
        assert result.attained

    def test_diagonal_of_the_square(self):
        result = projection_constant(Subspace.from_rows([[1, 1]]))
        assert result.value == F(1)
        assert min(grid_norms_of_diagonal_projections()) == F(1)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_zero_sum_hyperplanes(self, n):
        result = projection_constant(zero_sum_hyperplane(n))
        assert result.value == 2 - F(2, n)

    def test_diagonal_of_the_cube(self):
        result = projection_constant(Subspace.from_rows([[1, 1, 1]]))
        assert result.value == F(1)


class TestCertificate:
    def test_result_invariants(self):
        space = Subspace.from_rows([[1, 1, 0], [0, 1, 1]])
        result = projection_constant(space)
        p = result.projection
        assert result.value >= 1
        assert p.is_idempotent()
        assert inf_op_norm(p).value == result.value
        for i in range(space.dim):
            assert p.apply(space.basis.row(i)) == space.basis.row(i)
        for j in range(space.ambient_dim):
            assert subspace_contains(space, p.col(j))
        image = p.apply(result.witness)
        assert max(abs(x) for x in image) == result.value

    def test_minimizer_reconstructs_projection(self):
        space = zero_sum_hyperplane(3)
        result = projection_constant(space)
        assert space.basis.transpose() @ result.minimizer_c == result.projection

    def test_json_shape(self):
        doc = projection_constant(zero_sum_hyperplane(3)).to_json_dict()
        assert doc["lambda"] == "4/3"
        assert doc["attained"] is True
        assert doc["witness"] in ([1, -1, -1], [-1, 1, 1])
        assert len(doc["projection"]) == 3


class TestPerturbations:
    def test_no_feasible_point_beats_the_optimum(self):
        space = zero_sum_hyperplane(3)
        result = projection_constant(space)
        rng = Random(11)
        bt = space.basis.transpose()
        for _ in range(300):
            c = feasible_perturbation(space, result.minimizer_c, rng)
            # still a right inverse of B^T, hence still a projection onto E
            assert c @ bt == Mat.identity(space.dim)
            assert inf_op_norm(bt @ c).value >= result.value

    def test_full_rank_kernel_free_case(self):
        space = Subspace.from_rows([[1, 0], [0, 1]])
        c = Mat.identity(2)
        assert feasible_perturbation(space, c, Random(0)) == c


class TestBudget:
    def test_admits_and_require(self):
        budget = LPBudget(max_ambient=2, max_dim=1)
        small = Subspace.from_rows([[1, 1]])
        budget.require(small)
        # too wide, then too many dimensions in an admitted ambient space
        for big in (zero_sum_hyperplane(3), Subspace.from_rows([[1, 0], [0, 1]])):
            with pytest.raises(BudgetExceededError):
                budget.require(big)


class TestFloatOracle:
    def test_matches_exact_on_hyperplane(self):
        space = zero_sum_hyperplane(3)
        est = float_oracle(space, tol=1e-6)
        assert abs(est - 4 / 3) <= 1e-6

    def test_matches_exact_on_diagonal(self):
        est = float_oracle(Subspace.from_rows([[1, 1]]), tol=1e-6)
        assert abs(est - 1.0) <= 1e-6

    def test_full_dimension_short_circuit(self):
        est = float_oracle(Subspace.from_rows([[2, 0], [0, 3]]))
        assert abs(est - 1.0) <= 1e-12

    def test_seed_controls_restarts(self):
        space = zero_sum_hyperplane(3)
        a = float_oracle(space, config=OracleConfig(seed=5, restarts=2, iterations=500))
        b = float_oracle(space, config=OracleConfig(seed=5, restarts=2, iterations=500))
        assert a == b


small_entries = st.integers(min_value=-3, max_value=3)


@given(data=st.data(), n=st.integers(2, 4))
@settings(max_examples=25, deadline=None)
def test_random_subspaces_certify(data, n):
    k = data.draw(st.integers(1, n - 1))
    rows = data.draw(st.lists(
        st.lists(small_entries, min_size=n, max_size=n),
        min_size=k, max_size=k))
    assume(rank_of_rows([[F(x) for x in r] for r in rows]) == k)
    space = Subspace.from_rows(rows)
    result = projection_constant(space)
    assert result.value >= 1
    assert result.projection.is_idempotent()
    assert inf_op_norm(result.projection).value == result.value


def test_one_dimensional_spaces_norm_one():
    # Any line spanned by a vector with a maximal coordinate admits a
    # norm-one projection; sign patterns should not matter.
    for signs in itertools.product((1, -1), repeat=3):
        row = [s * w for s, w in zip(signs, (1, 1, 1))]
        assert projection_constant(Subspace.from_rows([row])).value == 1
