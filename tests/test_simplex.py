"""Exercises the exact simplex core on programs with known optima.

Every expected value below is verifiable by hand; the randomized block at the
end cross-checks against an entirely separate floating-point implementation.
"""

from fractions import Fraction as F
from random import Random

import pytest
from simplex_reference import assignment, by_value, dense_row, integer_program, sparse_row

from projconst import simplex
from projconst.simplex import (
    InfeasibleProgram,
    LinearProgram,
    UnboundedProgram,
    solve_linear_program,
)


def lp(objective, eq=(), eq_rhs=(), ub=(), ub_rhs=(), free=None):
    """The program of dense rows of ints or `Fraction`s, in the solver's format."""
    objective = [F(x) for x in objective]
    nv = len(objective)
    return integer_program(
        objective,
        [sparse_row(row) for row in eq],
        [F(x) for x in eq_rhs],
        [sparse_row(row) for row in ub],
        [F(x) for x in ub_rhs],
        free if free is not None else [False] * nv,
    )


def optimum(program):
    """The optimal value and assignment, the assignment as `Fraction`s."""
    solution = solve_linear_program(program)
    return solution.value, assignment(solution, program.num_vars)


def test_box_corner():
    # min -x - y over the simplex x + y <= 1, x, y >= 0
    value, x = optimum(lp([-1, -1], ub=[[1, 1]], ub_rhs=[1]))
    assert value == F(-1)
    assert x[0] + x[1] == F(1)
    assert all(v >= 0 for v in x)


def test_equality_row():
    value, x = optimum(lp([1, 1], eq=[[1, 1]], eq_rhs=[2]))
    assert value == F(2)
    assert x[0] + x[1] == F(2)


def test_free_variable_goes_negative():
    # min y with y >= -5 and y otherwise unconstrained
    value, x = optimum(
        lp([1], ub=[[-1]], ub_rhs=[5], free=[True]))
    assert value == F(-5)
    assert x == [F(-5)]


def test_negative_rhs_equality():
    value, x = optimum(lp([1], eq=[[1]], eq_rhs=[-2], free=[True]))
    assert value == F(-2)
    assert x == [F(-2)]


def test_trivial_bound_at_zero():
    value, x = optimum(lp([1]))
    assert value == F(0)
    assert x == [F(0)]


def test_fractional_optimum():
    # min -x - y, 2x + y <= 3, x + 2y <= 3; symmetric corner at (1, 1)
    value, x = optimum(
        lp([-1, -1], ub=[[2, 1], [1, 2]], ub_rhs=[3, 3]))
    assert value == F(-2)
    assert x == [F(1), F(1)]


def test_infeasible():
    with pytest.raises(InfeasibleProgram):
        solve_linear_program(lp([1], ub=[[1]], ub_rhs=[-1]))
    with pytest.raises(InfeasibleProgram):
        solve_linear_program(lp([0, 0], eq=[[1, 1], [1, 1]], eq_rhs=[1, 2]))


def test_unbounded():
    with pytest.raises(UnboundedProgram):
        solve_linear_program(lp([-1]))
    with pytest.raises(UnboundedProgram):
        solve_linear_program(lp([1], free=[True]))


def _one_of_each(column=1, coefficient=1, rhs=1, objective=1, den=1, eq_den=1,
                 ub_den=1) -> LinearProgram:
    """min objective x0 + 2 x1 with x0 + x1 = 1 and x0 + x1 <= 1, in the
    integer format, with one part replaced."""
    return LinearProgram([objective, 2], den, [{0: 1, 1: 1}], [1], [eq_den],
                         [{0: coefficient, column: 1}], [rhs], [ub_den], [False, False])


def test_shape_validation():
    assert solve_linear_program(_one_of_each()).value == 1
    # columns run over 0 <= j < num_vars = 2
    for column in (-1, 2, 3):
        with pytest.raises(ValueError, match="column out of range"):
            solve_linear_program(_one_of_each(column=column))
    # True would be read as column 1, and 1.0 fails only in the tableau scatter
    for column in (True, 1.0):
        with pytest.raises(ValueError, match="column is not an int"):
            solve_linear_program(_one_of_each(column=column))
    # a Fraction would be read as a numerator over the row's denominator,
    # and True as 1
    for part in ("coefficient", "rhs", "objective"):
        for x in (F(1), F(1, 2), 1.0, True):
            with pytest.raises(ValueError, match="numerator is not an int"):
                solve_linear_program(_one_of_each(**{part: x}))
    for part in ("den", "eq_den", "ub_den"):
        for x in (F(1), 1.0, True, 0, -1):
            with pytest.raises(ValueError, match="denominator is not a positive int"):
                solve_linear_program(_one_of_each(**{part: x}))
    # a row without its right-hand side, and one without its denominator
    with pytest.raises(ValueError, match="row/rhs"):
        solve_linear_program(LinearProgram([1, 2], 1, [], [], [], [{0: 1}], [], [1],
                                           [False, False]))
    with pytest.raises(ValueError, match="row/rhs"):
        solve_linear_program(LinearProgram([1], 1, [{0: 1}], [1], [], [], [], [], [False]))
    with pytest.raises(ValueError, match="mask"):
        solve_linear_program(lp([1, 2], free=[True]))


def test_listed_zero_is_an_unlisted_one():
    # min -x - y over x + y <= 1 with a zero coefficient written out
    listed = integer_program([F(-1), F(-1)], [], [], [{0: F(1), 1: F(1)}, {0: F(0)}],
                             [F(1), F(1, 3)], [False, False])
    assert solve_linear_program(listed) == solve_linear_program(
        lp([-1, -1], ub=[[1, 1], [0, 0]], ub_rhs=[1, F(1, 3)]))


def test_tests_run_under_a_capped_pivot_limit():
    # the package's own limit, the one bound on LP work, caps every test's
    # solves, so a cycling solver fails fast; it is above the 12 034 pivots
    # of the costliest certifying program on record
    assert simplex.PIVOT_LIMIT == 20_000


def test_deterministic():
    program = lp([-2, -3, 1],
                 eq=[[1, 1, 1]], eq_rhs=[4],
                 ub=[[1, 2, 0], [0, 1, 3]], ub_rhs=[5, 6])
    first = solve_linear_program(program)
    second = solve_linear_program(program)
    assert first == second


def _random_bounded_program(rng: Random):
    nv = rng.randint(2, 5)
    nub = rng.randint(1, 4)
    objective = [F(rng.randint(-5, 5)) for _ in range(nv)]
    ub, ub_rhs = [], []
    for _ in range(nub):
        ub.append(sparse_row(rng.randint(-4, 4) for _ in range(nv)))
        ub_rhs.append(F(rng.randint(0, 6)))  # rhs >= 0 keeps x = 0 feasible
    for j in range(nv):  # box rows keep the program bounded
        ub.append({j: F(1)})
        ub_rhs.append(F(1))
    return integer_program(objective, [], [], ub, ub_rhs, [False] * nv)


def test_agrees_with_scipy_on_random_programs():
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = Random(7)
    for _ in range(25):
        program = _random_bounded_program(rng)
        value, x = optimum(program)
        program = by_value(program)
        for row, b in zip(program.ub_rows, program.ub_rhs):
            assert sum(c * x[j] for j, c in row.items()) <= b
        ref = scipy_opt.linprog(
            [float(c) for c in program.objective],
            A_ub=[[float(c) for c in dense_row(row, program.num_vars)]
                  for row in program.ub_rows],
            b_ub=[float(b) for b in program.ub_rhs],
            bounds=[(0, None)] * program.num_vars,
            method="highs",
        )
        assert ref.success
        assert abs(float(value) - ref.fun) < 1e-7
