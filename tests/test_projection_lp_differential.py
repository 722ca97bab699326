"""The integer projection program against the `Fraction` one it replaced.

`minproj.build_projection_lp` writes its rows in the simplex's integer
format straight from B's integer rows b over one denominator db: every
equality and majorant row over db, every row-sum row and the objective over
1.  `projection_lp_reference` builds the former program, one `Fraction` per
entry.  Every entry must have the same value on both sides.  A row starts
over db rather than over the lcm of its own entries, and the solver must
not care: it returns the identical integer readout, as when each former
row is made into integers over its own lcm, as the solver did before.
Neither the builder's program nor the solve holds a `Fraction`, and
neither converts one: the builder reads B's integer rows off the basis
`Mat`, which stores them, as the former builder's conversion of the
`Fraction` basis made them, and `Mat.from_rows`, the one conversion of
`Fraction`s to numerators, is not called.  Needs nothing beyond pytest.
"""

import math
import sys
from fractions import Fraction as F
from pathlib import Path
from random import Random

import pytest
from linalg_reference import integer_row
from projection_lp_reference import reference_projection_lp
from simplex_reference import assignment, by_value, integer_program

from projconst.cli import load_subspace_document
from projconst.linalg import Mat, RankDeficientError, Subspace
from projconst.minproj import build_projection_lp, projection_constant
from projconst.simplex import solve_linear_program
from projconst.zerosum import coordinate_sum_kernel, sigma_subspace

GOLDEN = Path(__file__).parent / "golden"
RATIONAL_5X2 = [[1, F(1, 2), 0, -2, F(3, 4)], [0, 1, F(-2, 3), 1, 1]]


def own_lcms(program) -> list[int]:
    """The lcm of the denominators of each constraint row's values, its
    right-hand side included: the denominator the former solver gave it."""
    rows = program.eq_rows + program.ub_rows
    rhs = program.eq_rhs + program.ub_rhs
    dens = program.eq_dens + program.ub_dens
    return [math.lcm(*(F(x, den).denominator for x in [*row.values(), b]))
            for row, b, den in zip(rows, rhs, dens)]


def assert_same_program(space: Subspace) -> bool:
    """Compare the two programs and their solutions; return whether some row
    of the integer program stands over more than its own lcm."""
    n, k = space.ambient_dim, space.dim
    program = build_projection_lp(space)
    former = reference_projection_lp(space)
    assert by_value(program) == former
    _, db = integer_row(space.basis.entries)
    assert program.objective_den == 1
    assert program.eq_dens == [db] * (k * k)
    assert program.ub_dens == [db] * (2 * n * n) + [1] * n
    assert solve_linear_program(program) == solve_linear_program(integer_program(*former))
    return any(lcm < den for lcm, den in zip(own_lcms(program),
                                             program.eq_dens + program.ub_dens))


@pytest.mark.parametrize("space", [
    *(coordinate_sum_kernel(n) for n in range(2, 9)),
    sigma_subspace(coordinate_sum_kernel(3), 3).space,
    load_subspace_document(str(GOLDEN / "rational5.json")),
], ids=[*(f"ker{n}" for n in range(2, 9)), "sigma3-ker3", "rational5"])
def test_same_program(space):
    assert_same_program(space)


def test_same_program_on_seeded_rational_subspaces():
    # entries over denominators up to 4, so db is often above the lcm of
    # one column of B, and the majorant rows of that column start over more
    # than their own lcm
    rng = Random(20261026)
    seen = {"row over more than its lcm": 0, "db > 1": 0}
    cases = 0
    while cases < 36:
        n = rng.randint(2, 5)
        k = rng.randint(1, n - 1)
        try:
            space = Subspace.from_rows([[F(rng.randint(-3, 3), rng.randint(1, 4))
                                         for _ in range(n)] for _ in range(k)])
        except RankDeficientError:
            continue
        seen["row over more than its lcm"] += assert_same_program(space)
        seen["db > 1"] += integer_row(space.basis.entries)[1] > 1
        cases += 1
    assert seen["row over more than its lcm"] >= 20 and seen["db > 1"] >= 30, seen


def calls_during(function, run):
    """The number of calls of `function` while `run()` runs, under whatever
    name a module imported it, and what `run()` returned."""
    code, calls = function.__code__, 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call" and frame.f_code is code

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return calls, result


@pytest.mark.parametrize("space", [
    coordinate_sum_kernel(4),
    Subspace.from_rows(RATIONAL_5X2),
    sigma_subspace(Subspace.from_rows([[1, F(1, 3)]]), 3).space,
], ids=["ker4", "rational5x2", "sigma3-rational2"])
def test_no_fraction_in_the_program_and_no_integer_row_in_the_solve(space):
    # the builder reads B's integer rows off the subspace, converting
    # nothing; the program it returns is ints and bools only, and the solver
    # places them as they are
    # (Mat.from_rows is the one place where Fractions become integer rows)
    from_rows = Mat.from_rows.__func__
    calls, program = calls_during(from_rows, lambda: build_projection_lp(space))
    assert calls == 0
    b, db = space.integer_basis
    assert program.eq_rows[0] == {j: x for j, x in enumerate(b[0]) if x}
    assert program.eq_dens[0] == db
    numbers = [program.objective_den, *program.objective, *program.eq_rhs, *program.eq_dens,
               *program.ub_rhs, *program.ub_dens,
               *(x for row in program.eq_rows + program.ub_rows for x in (*row, *row.values()))]
    assert {type(x) for x in numbers} == {int}
    assert {type(x) for x in program.free} == {bool}
    calls, solution = calls_during(from_rows, lambda: solve_linear_program(program))
    assert calls == 0
    # the value is the bound t, the last variable
    assert solution.value == assignment(solution, program.num_vars)[-1] >= 1
    # nor do the certificate, its check and the result's C: the whole solve
    # converts nothing
    calls, result = calls_during(from_rows, lambda: projection_constant(space))
    assert (calls, result.value) == (0, solution.value)


def former_conversion(basis) -> tuple[list[list[int]], int]:
    """The rows of a `Fraction` basis over the lcm of all its denominators,
    as the builder took B apart before the basis `Mat` stored them."""
    den = math.lcm(*(x.denominator for x in basis.entries))
    return [[x.numerator * (den // x.denominator) for x in basis.row(i)]
            for i in range(basis.rows)], den


def assert_integer_basis(space: Subspace):
    rows, den = space.integer_basis
    assert type(rows) is tuple and {type(row) for row in rows} == {tuple}
    assert (space.basis.nums, space.basis.den) == (sum(rows, ()), den)
    assert ([list(row) for row in rows], den) == former_conversion(space.basis)


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*.json")
                                        if "basis" in p.read_text()))
def test_integer_basis_is_the_former_conversion_on_golden_documents(name):
    assert_integer_basis(load_subspace_document(str(GOLDEN / name)))


def test_integer_basis_is_the_former_conversion_on_seeded_rational_subspaces():
    rng = Random(20261028)
    cases = over_one = 0
    while cases < 32:
        n = rng.randint(1, 6)
        try:
            space = Subspace.from_rows([[F(rng.randint(-4, 4), rng.randint(1, 6))
                                         for _ in range(n)] for _ in range(rng.randint(1, n))])
        except RankDeficientError:
            continue
        assert_integer_basis(space)
        over_one += space.integer_basis[1] > 1
        cases += 1
    assert over_one >= 24


def test_integer_basis_is_read_off_the_basis_not_stored():
    # a subspace stores its basis alone; the integer rows are its numerators
    space = Subspace.from_rows(RATIONAL_5X2)
    again = Subspace.from_rows(RATIONAL_5X2)
    assert Subspace._fields == ("basis",)
    assert space.integer_basis == (space.basis.numerator_rows(), space.basis.den)
    assert space == again and hash(space) == hash(again)
    assert "integer_basis" not in repr(space)
