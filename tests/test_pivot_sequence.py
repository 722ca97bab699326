"""Every pivot of the condensed simplex, checked one by one.

The simplex keeps Bland's candidates in two sets of positions, updated only
where a pivot changed the objective row, and scans the entering column once
for the rows the kernel updates.  None of that may change a pivot.

* **Pivot sequence.**  At every pivot, the pair (entering variable, leaving
  variable) must be that of `tableau_reference`, the full-tableau solver,
  drive-out pivots included, on seeded random programs, ker_2 ... ker_8,
  Sigma_3(ker_3), seeded random subspaces and the hand cases, among them
  the phase-1 drive-out of a free column stored under its negative label.
* **Invariants.**  At every pivot the rows handed to `pivot_rows` are exactly
  the nonzero rows of the pivot column, objective included, and the
  positions it hands back are exactly those of the new pivot row's
  nonzeros, in increasing order; at every pivot
  Bland's rule takes, the entering variable is the one a full scan of the
  objective row picks, and the leaving row the one a full ratio test over
  every constraint row picks.  `_reduce` hands the kernel the nonzero rows
  of its pivot column as well.

The solver's labels and basis are read from the frame of its `pivot`,
which calls the kernel.
"""

import math
import sys
from collections import Counter
from fractions import Fraction as F
from random import Random

import pytest
import tableau_reference
from linalg_reference import integer_rows
from simplex_reference import assignment, slack_duals
from tableau_reference import nonzero_rows
from test_linalg_differential import random_square, random_system
from test_simplex_differential import _kernel, random_program
from test_tableau_differential import (
    HAND_CASES,
    drive_out_program,
    inequality_program,
    random_subspace,
)

from projconst import linalg, simplex
from projconst.linalg import invert_square, kernel_basis, rank_of_rows
from projconst.minproj import build_projection_lp
from projconst.simplex import SimplexError
from projconst.zerosum import coordinate_sum_kernel, sigma_subspace

KERNEL_PROGRAMS = {
    **{f"ker{n}": lambda n=n: build_projection_lp(_kernel(n)) for n in range(2, 9)},
    "sigma3-ker3": lambda: build_projection_lp(
        sigma_subspace(coordinate_sum_kernel(3), 3).space),
}


def outcome(solve, *args):
    try:
        return solve(*args)
    except SimplexError as exc:
        return type(exc)


def pivot_frame():
    """The frame of the simplex's `pivot`, called from a kernel wrapper that
    `pivot` called: its locals hold the solver's labels, twins and basis,
    and its caller is `run` for a pivot of Bland's rule."""
    return sys._getframe(2)


@pytest.fixture
def condensed_pivots(monkeypatch):
    """Record each pivot of `simplex.solve_linear_program` as (entering
    variable, leaving variable) in the returned list."""
    pivots = []
    kernel = simplex.pivot_rows

    def recorded(rows, dens, r, c, touched, exchange=False):
        state = pivot_frame().f_locals
        pivots.append((state["labels"][c], state["basis"][r]))
        return kernel(rows, dens, r, c, touched, exchange)

    monkeypatch.setattr(simplex, "pivot_rows", recorded)
    return pivots


@pytest.fixture
def same_pivots(condensed_pivots):
    """Solve with both tableaux and require the identical pivot sequence and
    outcome; returns the sequence."""
    def check(program):
        condensed_pivots.clear()
        full = []
        got = outcome(simplex.solve_linear_program, program)
        want = outcome(tableau_reference.solve_linear_program, program, None, full)
        assert condensed_pivots == full
        if isinstance(want, type):
            assert got is want
        else:
            assert (got.value, assignment(got, program.num_vars), slack_duals(got)) == want
        return full
    return check


def test_random_programs_pivot_alike(same_pivots):
    rng = Random(20261101)
    seen = Counter()
    for _ in range(500):
        seen["pivots"] += len(same_pivots(random_program(rng)))
    for _ in range(300):
        seen["pivots"] += len(same_pivots(inequality_program(rng)))
    assert seen["pivots"] >= 1000, seen


@pytest.mark.parametrize("name", KERNEL_PROGRAMS)
def test_kernel_programs_pivot_alike(same_pivots, name):
    assert len(same_pivots(KERNEL_PROGRAMS[name]())) > 0


def test_random_subspaces_pivot_alike(same_pivots):
    rng = Random(20261102)
    pivots = sum(len(same_pivots(build_projection_lp(random_subspace(rng))))
                 for _ in range(24))
    assert pivots >= 200, pivots


@pytest.mark.parametrize("program", [case for case, _ in HAND_CASES.values()],
                         ids=HAND_CASES)
def test_hand_cases_pivot_alike(same_pivots, program):
    same_pivots(program)


def test_drive_out_under_the_negative_label_pivots_alike(same_pivots):
    # the last pivot drives out an artificial by x3+, whose column is
    # stored under x3-
    pivots = same_pivots(drive_out_program())
    assert len(pivots) == 8 and pivots[-1][0] == 3, pivots


def full_bland_choice(objective: list[int], labels: list[int], twins: list) -> int:
    """The smallest label of a negative reduced cost, or twin of a positive one."""
    return min([label for x, label in zip(objective, labels) if x < 0]
               + [twin for x, twin in zip(objective, twins) if x > 0 and twin < math.inf])


def full_ratio_test(rows: list[list[int]], c: int, basis: list[int]) -> int:
    """The constraint row of least rhs / entry over the positive entries of
    column c, the smallest basic label among ties."""
    return min((i for i, row in enumerate(rows[:-1]) if row[c] > 0),
               key=lambda i: (F(rows[i][-1], rows[i][c]), basis[i]))


@pytest.fixture
def checked(monkeypatch):
    """Assert the invariants at each pivot of `simplex.solve_linear_program`;
    returns a tally of the pivots checked."""
    seen = Counter()
    kernel = simplex.pivot_rows

    def invariant(rows, dens, r, c, touched, exchange=False):
        assert touched == nonzero_rows(rows, c)
        frame = pivot_frame()
        state, caller = frame.f_locals, frame.f_back
        labels, twins, basis = state["labels"], state["twins"], state["basis"]
        if caller.f_code.co_name == "run":
            objective = rows[-1]
            assert objective[c] < 0
            assert labels[c] == full_bland_choice(objective, labels, twins)
            assert r == full_ratio_test(rows, c, basis)
            seen["Bland pivots"] += 1
            seen["twin enters"] += caller.f_locals["twin_enters"]
        else:
            seen["drive-out pivots"] += 1
        positions = kernel(rows, dens, r, c, touched, exchange)
        assert positions == [j for j, x in enumerate(rows[r]) if x]
        return positions

    monkeypatch.setattr(simplex, "pivot_rows", invariant)
    return seen


def test_invariants_hold_at_every_pivot(checked):
    rng = Random(20261103)
    programs = [*(random_program(rng) for _ in range(300)),
                *(inequality_program(rng) for _ in range(200)),
                *(build_projection_lp(random_subspace(rng)) for _ in range(12)),
                *(case for case, _ in HAND_CASES.values()), drive_out_program(),
                *(make() for make in KERNEL_PROGRAMS.values())]
    for program in programs:
        outcome(simplex.solve_linear_program, program)
    assert checked["Bland pivots"] >= 2000, checked
    assert checked["twin enters"] >= 300, checked
    assert checked["drive-out pivots"] >= 15, checked


def test_reduce_hands_the_kernel_the_nonzero_rows(monkeypatch):
    seen = Counter()
    kernel = linalg.pivot_rows

    def invariant(rows, dens, r, c, touched):
        assert touched == nonzero_rows(rows, c)
        seen["pivots"] += 1
        seen["rows above the pivot"] += touched[0] < r
        return kernel(rows, dens, r, c, touched)

    monkeypatch.setattr(linalg, "pivot_rows", invariant)
    for seed in range(60):
        rows = integer_rows(random_system(seed))
        rank_of_rows(rows)
        kernel_basis(rows)
        try:
            invert_square(random_square(seed))
        except linalg.RankDeficientError:
            seen["singular"] += 1
    assert seen["pivots"] >= 300 and seen["rows above the pivot"] >= 100, seen
