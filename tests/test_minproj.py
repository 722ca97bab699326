import itertools
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction as F
from pathlib import Path
from random import Random

import pytest
from certificate_reference import as_mat
from hypothesis_or_skip import assume, given, settings, st
from linalg_reference import column, identity, rows_of, subspace_contains

import projconst
from projconst.linalg import (
    Mat,
    Subspace,
    inf_op_norm,
    invert_square,
    projection_defect,
    rank_of_rows,
    row_sum_norm,
)
from projconst.minproj import (
    BudgetExceededError,
    LPBudget,
    OracleConfig,
    SolverIntegrityError,
    _checked_certificate,
    _restart_bests,
    build_projection_lp,
    check_certificate,
    feasible_perturbation,
    float_oracle,
    projection_certificate,
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
        assert lp.num_vars == k * n + n * n + 1
        assert lp.num_equalities == k * k
        assert lp.num_inequalities == 2 * n * n + n
        assert len(lp.eq_rows) == lp.num_equalities
        assert len(lp.ub_rows) == lp.num_inequalities
        assert len(lp.objective) == lp.num_vars
        # only the coefficient block is sign-free
        assert lp.free == [True] * (k * n) + [False] * (n * n + 1)

    def test_objective_is_the_bound(self):
        lp = build_projection_lp(Subspace.from_rows([[1, 1]]))
        assert lp.objective[-1] == F(1)
        assert all(c == 0 for c in lp.objective[:-1])


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
        assert result.projection == identity(2)
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
            assert subspace_contains(space, column(p, j))
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


class TestPrimalCertificate:
    """`check_certificate` checks C B^T = I in place of the projection checks on B^T C."""

    SPACES = [
        Subspace.from_rows([[1, 1]]),
        zero_sum_hyperplane(3),
        zero_sum_hyperplane(4),
        Subspace.from_rows([["1/2", -1, 0, 3], [0, 2, "-5/3", 1]]),
        Subspace.from_rows([[1, 0, 2, -1, 0], [0, 1, -1, 0, 2], [1, 1, 0, 0, "1/4"]]),
    ]

    def test_matches_the_projection_checks(self):
        # C B^T = I exactly when B^T C is a projection onto the space
        rng = Random(5)
        counts = {True: 0, False: 0}
        for trial in range(240):
            space = self.SPACES[trial % len(self.SPACES)]
            b = space.basis
            coeffs = feasible_perturbation(space, invert_square(b @ b.transpose()) @ b, rng)
            if trial % 2:
                rows = rows_of(coeffs)
                p, q = rng.randrange(coeffs.rows), rng.randrange(coeffs.cols)
                rows[p][q] += F(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3))
                coeffs = Mat.from_rows(rows)
            left_inverse = coeffs @ b.transpose() == identity(space.dim)
            assert left_inverse == (projection_defect(b.transpose() @ coeffs, space) is None)
            counts[left_inverse] += 1
        assert min(counts.values()) >= 100

    @pytest.mark.parametrize("space", SPACES[:4], ids=["diag2", "ker3", "ker4", "rational4"])
    def test_corrupted_value_is_caught(self, space):
        cert = projection_certificate(space)
        check_certificate(space.integer_basis, cert)
        with pytest.raises(SolverIntegrityError, match="disagrees with exact norm"):
            check_certificate(space.integer_basis, cert._replace(value=cert.value + F(1, 1000)))

    @pytest.mark.parametrize("space", SPACES[:4], ids=["diag2", "ker3", "ker4", "rational4"])
    def test_corrupted_coefficient_is_caught(self, space):
        # the value passed is the corrupted projection's own exact norm, so
        # the norm checks pass and C B^T = I is the first check to reject it
        cert = projection_certificate(space)
        rows, den = cert.coeffs
        # C_00 + 1/1000, over den * 1000
        rows = [[x * 1000 for x in row] for row in rows]
        rows[0][0] += den
        corrupted = rows, den * 1000
        norm = inf_op_norm(space.basis.transpose() @ as_mat(corrupted)).value
        assert norm >= 1
        with pytest.raises(SolverIntegrityError, match="C B\\^T = I"):
            check_certificate(space.integer_basis, cert._replace(value=norm, coeffs=corrupted))


class TestPerturbations:
    def test_no_feasible_point_beats_the_optimum(self):
        space = zero_sum_hyperplane(3)
        result = projection_constant(space)
        rng = Random(11)
        bt = space.basis.transpose()
        for _ in range(300):
            c = feasible_perturbation(space, result.minimizer_c, rng)
            # still a right inverse of B^T, hence still a projection onto E
            assert c @ bt == identity(space.dim)
            assert inf_op_norm(bt @ c).value >= result.value

    def test_full_rank_kernel_free_case(self):
        space = Subspace.from_rows([[1, 0], [0, 1]])
        c = identity(2)
        assert feasible_perturbation(space, c, Random(0)) == c


class TestBudget:
    def test_admits_and_require(self):
        budget = LPBudget(max_ambient=2)
        # any dimension in an admitted ambient space
        for small in (Subspace.from_rows([[1, 1]]), Subspace.from_rows([[1, 0], [0, 1]])):
            budget.require(small)
        with pytest.raises(BudgetExceededError, match=r"exceeds LP budget \(ambient <= 2\)$"):
            budget.require(zero_sum_hyperplane(3))


class TestFloatOracle:
    def test_matches_exact_on_hyperplane(self):
        pytest.importorskip("numpy")
        space = zero_sum_hyperplane(3)
        est = float_oracle(space, tol=1e-6)
        assert abs(est - 4 / 3) <= 1e-6

    def test_matches_exact_on_diagonal(self):
        pytest.importorskip("numpy")
        est = float_oracle(Subspace.from_rows([[1, 1]]), tol=1e-6)
        assert abs(est - 1.0) <= 1e-6

    def test_full_dimension_short_circuit(self):
        pytest.importorskip("numpy")
        est = float_oracle(Subspace.from_rows([[2, 0], [0, 3]]))
        assert abs(est - 1.0) <= 1e-12

    def test_seed_controls_restarts(self, oracle_budget):
        pytest.importorskip("numpy")
        oracle_budget(restarts=2, iterations=500)
        space = zero_sum_hyperplane(3)
        a = float_oracle(space, config=OracleConfig(seed=5))
        b = float_oracle(space, config=OracleConfig(seed=5))
        assert a == b

    def test_negative_seed_reads_as_its_absolute_value(self, oracle_budget):
        pytest.importorskip("numpy")
        oracle_budget(iterations=50)
        space = Subspace.from_rows([[1, 2, 0, -1], [0, 1, 3, 1]])
        estimates = [float_oracle(space, tol=sys.float_info.max, config=OracleConfig(seed))
                     for seed in (-5, 5, 6)]
        assert estimates[0] == estimates[1] != estimates[2]

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_tol_that_is_not_finite_and_positive(self, tol, oracle_budget):
        # these two restarts disagree by 0.64, which a nan or inf tol would pass
        oracle_budget(restarts=2, iterations=10)
        with pytest.raises(ValueError, match="tol"):
            float_oracle(zero_sum_hyperplane(3), tol=tol)

    @pytest.mark.parametrize("space", [
        pytest.param(Subspace.from_rows([[1, 1]]), id="line"),
        # restart 0 stops at once while the others keep moving, so every step
        # divides by the norms under a mask
        pytest.param(Subspace.from_rows([[1, 1, 1], [1, 0, 0]]), id="plane-stops-at-once"),
        pytest.param(zero_sum_hyperplane(3), id="ker3"),
    ])
    def test_descent_raises_no_floating_point_warning(self, space):
        np = pytest.importorskip("numpy")
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            bests = _restart_bests(space, OracleConfig())
        assert len(bests) == 8 and all(map(math.isfinite, bests))

    def test_sign_rule_premise_holds_on_this_numpy(self):
        # The descent reads the signs of a row of p = P0 + X with np.copysign,
        # which reads -0.0 as -1, and clears -0.0 from P0 once with + 0.0.  So
        # on this numpy, P0 + 0.0 and every P0 + X must hold no -0.0, and there
        # copysign must agree with the rule "negative -> -1, else +1".
        np = pytest.importorskip("numpy")

        def negative_zeros(a):
            return int(np.count_nonzero(np.signbit(a) & (a == 0.0)))

        def rule(a):
            return np.where(a < 0.0, -1.0, 1.0)

        values = np.array([-0.0, 0.0, 1.5, -1.5, 5e-324, -5e-324, 1e300, -1e300])
        raw, x = np.meshgrid(values, values, indexing="ij")
        assert negative_zeros(raw) == values.size and negative_zeros(x) == values.size
        p0 = raw + 0.0
        assert negative_zeros(p0) == 0 and np.array_equal(p0, raw)
        p = np.empty_like(p0)
        np.add(p0, x, out=p)
        assert negative_zeros(p) == 0 and np.isfinite(p).all()
        assert np.array_equal(np.copysign(1.0, p), rule(p))
        # without the clearing, a raw -0.0 reads differently
        assert np.copysign(1.0, raw[0, 0]) == -1.0 and rule(raw[0, 0]) == 1.0
        assert not np.array_equal(np.copysign(1.0, raw + x), rule(raw + x))

    def test_rank_one_product_premise_holds_on_this_numpy(self):
        # With n - k = 1 the descent forms X = (B^T Theta) @ null^T, a stacked
        # product of inner size 1, as one np.multiply.  Both round each entry
        # once, so they may differ only in the sign of a zero, and p = X + P0
        # erases that sign because P0 (cleared with + 0.0) holds no -0.0.  So
        # on this numpy both must give the same p bit for bit, here with -0.0,
        # subnormal and underflowing factors.
        np = pytest.importorskip("numpy")

        def negative_zeros(a):
            return int(np.count_nonzero(np.signbit(a) & (a == 0.0)))

        values = np.array([-0.0, 0.0, 1.5, -1.5, 5e-324, -5e-324, 1e150, -1e150, 3.0, -7.25])
        n = values.size
        rng = Random(5)
        column = np.array([rng.sample(list(values), n) for _ in range(3)])[:, :, None]
        null_t = np.array([rng.sample(list(values), n)])
        p0 = np.add.outer(values, values) + 0.0
        assert negative_zeros(p0) == 0 and np.count_nonzero(p0 == 0.0) > 0

        product, stacked = np.multiply(column, null_t), np.matmul(column, null_t)
        assert negative_zeros(product) > 0 and np.isfinite(product).all()
        assert np.array_equal(product, stacked)
        p_multiply, p_matmul = np.empty_like(product), np.empty_like(product)
        np.add(p0, np.multiply(column, null_t, out=p_multiply), out=p_multiply)
        np.add(p0, np.matmul(column, null_t, out=p_matmul), out=p_matmul)
        assert negative_zeros(p_multiply) == 0
        assert p_multiply.tobytes() == p_matmul.tobytes()
        # and equal to the 2-D product, one restart at a time
        for r in range(column.shape[0]):
            assert (p0 + column[r] @ null_t).tobytes() == p_multiply[r].tobytes()

    def test_loads_no_numpy_random(self):
        pytest.importorskip("numpy")
        # numpy.random adds megabytes to a process that needs a few normal draws.
        code = ("import sys, numpy\n"
                "eager = 'numpy.random' in sys.modules\n"
                "from projconst import coordinate_sum_kernel, float_oracle\n"
                "float_oracle(coordinate_sum_kernel(4))\n"
                "print(eager, 'numpy.random' in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(projconst.__file__).parent.parent))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        eager, loaded = proc.stdout.split()
        if eager == "True":
            pytest.skip("this numpy imports numpy.random with numpy itself")
        assert loaded == "False"


def test_exact_path_loads_no_numpy():
    # only the float oracle needs numpy, which takes a large share of a
    # short exact run's start-up time and memory to import; the LP, the
    # multiplication law and a staged demonstration all stay exact
    code = ("import sys\n"
            "from projconst import (ad_hoc_plan, coordinate_sum_kernel,\n"
            "    demonstrate_schedule, projection_constant, verify_multiplication_law)\n"
            "ker3 = coordinate_sum_kernel(3)\n"
            "law = verify_multiplication_law(ker3, 3)\n"
            "demo = demonstrate_schedule(ker3, ad_hoc_plan(law.base_lambda, 2, 2), 2)\n"
            "print(projection_constant(ker3).value, law.sigma_lambda,"
            " demo.steps[-1].computed, 'numpy' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(projconst.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["4/3", "16/9", "4/3", "False"]


small_entries = st.integers(min_value=-3, max_value=3)


@given(data=st.data(), n=st.integers(2, 4))
@settings(max_examples=25, deadline=None)
def test_random_subspaces_certify(data, n):
    k = data.draw(st.integers(1, n - 1))
    rows = data.draw(st.lists(
        st.lists(small_entries, min_size=n, max_size=n),
        min_size=k, max_size=k))
    assume(rank_of_rows(rows) == k)
    space = Subspace.from_rows(rows)
    result = projection_constant(space)
    assert result.value >= 1
    assert result.projection.is_idempotent()
    # projection_constant checks the witness of the integer rows of P that
    # check_certificate returns; the result derives its witness from the
    # projection, as the golden witnesses were made
    _, p_rows, _ = _checked_certificate(space)
    assert row_sum_norm(p_rows).witness == result.witness
    assert inf_op_norm(result.projection).value == result.value
    assert max(map(abs, result.projection.apply(result.witness))) == result.value


def test_one_dimensional_spaces_norm_one():
    # Any line spanned by a vector with a maximal coordinate admits a
    # norm-one projection; sign patterns should not matter.
    for signs in itertools.product((1, -1), repeat=3):
        row = [s * w for s, w in zip(signs, (1, 1, 1))]
        assert projection_constant(Subspace.from_rows([row])).value == 1
