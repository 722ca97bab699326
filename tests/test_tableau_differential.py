"""The condensed-tableau simplex against the full-tableau simplex it replaced.

The condensed tableau drops the basic variables' identity columns, stores one
column per free variable under one of its two part labels, and keeps each
stored column at the position its label names.  Bland's rule picks by label,
the twin's label included, so both solvers must take the identical pivots:
on every program they must return the identical optimum (value, assignment
and slack duals, the condensed solver's as `Fraction` views of its integer
readout) after the identical number of pivots,
or raise the same exception after the identical number of pivots.  The slack duals and the
price-out of the objective row are read differently in the two tableaux,
so they are pinned here as well.  The reference tallies the free-variable
events that make the condensed solver negate a stored column, and each test
asserts that its programs reach them; two hand programs and a seeded
generator reach the phase-1 drive-out of a free column stored under its
negative label, where each solve is also compared with the rational
tableau of `simplex_reference`.  After phase 1
the condensed solver deletes the artificials' dead positions from its
labels and rows; hand programs put them first, last and side by side, and
drop a redundant equality, and each must delete exactly those positions.  On projection programs of bases
whose entries lie over primes between 2**10 and 2**15, where the kernel
keeps scaled rows unreduced below one CPython digit and reduces them at it,
the condensed solver must take the pivots of the full-tableau solver run
with the former kernel, which keeps every row in lowest terms.
"""

import sys
from collections import Counter
from fractions import Fraction as F
from random import Random

import linalg_reference
import pytest
import tableau_reference
from simplex_reference import (
    assignment,
    integer_program,
    reference_solve,
    slack_duals,
    sparse_row,
)
from test_linalg_differential import LARGE_PRIMES, pivot_checked
from test_simplex import lp
from test_simplex_differential import _entry, _kernel, random_program

from projconst import simplex
from projconst.linalg import Subspace
from projconst.minproj import DEFAULT_BUDGET, build_projection_lp
from projconst.simplex import LinearProgram, SimplexError
from projconst.zerosum import coordinate_sum_kernel, sigma_subspace


def outcome(solve, *args):
    try:
        return solve(*args)
    except SimplexError as exc:
        return type(exc)


def views(solution: simplex.LinearProgramSolution, program: LinearProgram
          ) -> tableau_reference.Optimum:
    """The `Fraction` views of a solution of `program`, in the reference's
    form; each entry must be a `Fraction`."""
    assert type(solution) is simplex.LinearProgramSolution
    got = tableau_reference.Optimum(solution.value, assignment(solution, program.num_vars),
                                    slack_duals(solution))
    assert all(type(x) is F for x in [got.value, *got.assignment, *got.slack_duals])
    return got


@pytest.fixture
def assert_same(monkeypatch):
    """Solve with both tableaux; require the same outcome after as many pivots.

    Returns the outcome and the number of pivots taken, and adds the
    reference's tallies, free-variable events included, to `check.events`.
    """
    condensed = Counter()
    kernel = simplex.pivot_rows

    def counted(rows, dens, r, c, touched, exchange=False):
        condensed["pivots"] += 1
        return kernel(rows, dens, r, c, touched, exchange)

    monkeypatch.setattr(simplex, "pivot_rows", counted)

    def check(program):
        condensed.clear()
        full = Counter()
        got = outcome(simplex.solve_linear_program, program)
        if not isinstance(got, type):
            got = views(got, program)
        want = outcome(tableau_reference.solve_linear_program, program, full)
        assert (got, condensed["pivots"]) == (want, full["pivots"])
        check.events.update(full)
        return got, full["pivots"]
    check.events = Counter()
    return check


def inequality_program(rng: Random) -> LinearProgram:
    """Inequalities only, with right-hand sides of either sign, so rows with
    b < 0 enter the tableau negated, carry an artificial, and keep their
    slack nonbasic until a pivot brings it in."""
    nv, n_ub = rng.randint(1, 5), rng.randint(1, 5)
    ub = [sparse_row(_entry(rng, 0.3) for _ in range(nv)) for _ in range(n_ub)]
    rhs = [_entry(rng, 0.3) for _ in range(n_ub)]
    objective = [_entry(rng, 0.3) for _ in range(nv)]
    free = [rng.random() < 0.3 for _ in range(nv)]
    return integer_program(objective, [], [], ub, rhs, free)


def test_identical_solutions_and_pivots_on_random_programs(assert_same):
    rng = Random(20261019)
    kinds = Counter()
    for _ in range(1200):
        solution, pivots = assert_same(random_program(rng))
        kinds[solution if isinstance(solution, type) else "optimal"] += 1
        kinds["pivots"] += pivots
    for _ in range(600):
        program = inequality_program(rng)
        solution, _ = assert_same(program)
        if isinstance(solution, type):
            continue
        kinds["inequality optimal"] += 1
        kinds["active negated row"] += any(
            u and b < 0 for u, b in zip(solution.slack_duals, program.ub_rhs))
    assert kinds["optimal"] >= 200, kinds
    assert kinds[simplex.InfeasibleProgram] >= 200, kinds
    assert kinds[simplex.UnboundedProgram] >= 200, kinds
    assert kinds["inequality optimal"] >= 150, kinds
    assert kinds["active negated row"] >= 30, kinds
    assert kinds["pivots"] >= 1500, kinds
    assert assert_same.events["negative part enters"] >= 300, assert_same.events
    assert assert_same.events["twin of a leaver enters"] >= 50, assert_same.events


# hand-built programs, by name, with the outcome each must reach
HAND_CASES = {
    # redundant equalities: two artificials end phase 1 basic at level 0
    "redundant": (lp([1, 2, -1], eq=[[1, 1, 0], [2, 2, 0], [0, 1, 1], [1, 2, 1]],
                     eq_rhs=[1, 2, F(3, 2), F(5, 2)], free=[False, False, True]), "optimal"),
    # two identical rows, and a negated inequality
    "duplicate": (lp([1, 1], eq=[[1, 0], [1, 0]], eq_rhs=[2, 2], ub=[[0, -1]], ub_rhs=[-1]),
                  "optimal"),
    # a zero-level artificial whose only legitimate entry is negative
    "negative-drive-out": (lp([2, 1, 1], eq=[[0, 0, -1], [2, 0, 0]], eq_rhs=[0, 3]), "optimal"),
    "infeasible-ub": (lp([1], ub=[[1]], ub_rhs=[-1]), simplex.InfeasibleProgram),
    "infeasible-eq": (lp([0, 0], eq=[[1, 1], [1, 1]], eq_rhs=[1, 2]), simplex.InfeasibleProgram),
    "unbounded": (lp([-1]), simplex.UnboundedProgram),
    "unbounded-free": (lp([1], free=[True]), simplex.UnboundedProgram),
    "unbounded-after-phase-1": (lp([-1, -1], ub=[[1, -1]], ub_rhs=[-2]),
                                simplex.UnboundedProgram),
    # phase 1 leaves artificials at condensed positions that are deleted
    # after it (see COMPACTIONS): the first, ...
    "dead-first": (lp([2, 2, 0], eq=[[1, 0, 0]], eq_rhs=[2],
                      ub=[[0, 1, 0], [1, 1, -2]], ub_rhs=[1, -1]), "optimal"),
    # ... the last, a negated inequality's slack before phase 1, ...
    "dead-last": (lp([2, 0, 1], eq=[[-2, 2, 1]], eq_rhs=[2],
                     ub=[[2, -1, -2], [-1, -2, -1]], ub_rhs=[1, -1]), "optimal"),
    # ... two adjacent ones, ...
    "dead-adjacent": (lp([1, -1, -1, 0], eq=[[0, 0, 2, 0], [-2, 2, -1, 2]], eq_rhs=[1, 0]),
                      "optimal"),
    # ... and two, the last equality being the sum of the first two, whose
    # row is dropped
    "redundant-dropped": (lp([1, 0, -1], eq=[[2, 0, 2], [2, 0, -1], [4, 0, 1]],
                             eq_rhs=[2, 2, 4], ub=[[0, 2, 0]], ub_rhs=[1]), "optimal"),
    # a second drive-out of a free column stored under its negative label,
    # after `drive_out_program`'s
    "drive-out-under-x1-": (lp([0, 2, 0, 2, 0],
                               eq=[[0, 0, -2, 0, -1], [-2, -1, -1, 0, 0], [0, -1, 1, 0, 0],
                                   [0, 1, 0, 0, 0]],
                               eq_rhs=[0] * 4, free=[False, True, True, False, False]),
                            "optimal"),
    # x2's column, stored under x2- once x2- has left the basis, has a
    # positive reduced cost and so offers x2+, until a pivot turns that cost
    # negative: the position must then leave the offered candidates as it
    # joins the falling ones
    "free-cost-turns-negative": (lp([1, F(-1, 2), 0, 2],
                                    ub=[[F(-1, 3), F(1, 2), 0, 5], [1, 0, 5, -2]],
                                    ub_rhs=[F(-4, 3), F(3, 2)],
                                    free=[False, False, True, True]),
                                 simplex.UnboundedProgram),
}

# name: (positions deleted after phase 1, the width before, the rows dropped)
COMPACTIONS = {
    "dead-first": ([0, 2], 4, []),
    "dead-last": ([1, 3], 4, []),
    "dead-adjacent": ([1, 2], 4, []),
    "redundant-dropped": ([0, 2], 3, [2]),
}


@pytest.mark.parametrize("program, expected", HAND_CASES.values(), ids=HAND_CASES)
def test_identical_outcomes_on_hand_cases(assert_same, program, expected):
    solution, _ = assert_same(program)
    assert (solution if isinstance(solution, type) else "optimal") == expected


def random_subspace(rng: Random) -> Subspace:
    """A seeded (n, k) subspace with small rational entries and full rank."""
    n = rng.randint(2, 5)
    k = rng.randint(1, n - 1)
    while True:
        rows = [[F(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.7 else F(0)
                 for _ in range(n)] for _ in range(k)]
        if linalg_reference.rank_of_rows(rows) == k:
            return Subspace.from_rows(rows)


def drive_out_program() -> LinearProgram:
    """x3 and x4 are free, the right-hand sides zero.  Phase 1 ends with x3-
    the last part of x3 to leave the basis and the artificial of the last
    row basic, and that row holds x3's column and x5's.  The drive-out
    ranks x3's column by x3+ < x5 < x3-, so the stored column is negated
    before the pivot; ranking it by x3-, and so taking x5, takes 9 pivots."""
    return lp([0, 0, 0, 2, 0, 1],
              eq=[[0, 0, -2, -2, -1, 0], [-2, -1, -2, -2, -1, -1],
                  [0, -2, -1, 1, -2, 1], [2, 2, -2, 2, 0, 0], [2, 0, -2, 2, -2, 0]],
              eq_rhs=[0] * 5, free=[False, False, False, True, True, False])


def test_drive_out_of_a_free_column_stored_under_its_negative_label(assert_same):
    solution, pivots = assert_same(drive_out_program())
    assert (solution.value, pivots) == (0, 8)
    assert assert_same.events["drive-out under the negative label"] == 1, assert_same.events


def test_second_drive_out_under_the_negative_label(assert_same):
    # x1 and x2 are free, the right-hand sides zero.  Phase 1 ends with x1-
    # the last part of x1 to leave the basis and the artificial of the third
    # row basic, and that row holds x1's column and x4's.  The drive-out
    # ranks x1's column by x1+ < x4 < x1-, so the stored column is negated
    # before the pivot; ranking it by x1- takes x4 first and x1 after it
    solution, pivots = assert_same(HAND_CASES["drive-out-under-x1-"][0])
    assert (solution.value, pivots) == (0, 5)
    assert assert_same.events["drive-out under the negative label"] == 1, assert_same.events


def zero_rhs_program(rng: Random) -> LinearProgram:
    """4-5 equalities with zero right-hand sides over 5-6 variables, about
    half of them free, with entries leaning negative and the last row the
    negation of another.  Phase 1 then often ends with two artificials basic
    at level 0, in rows that cancel, after a free variable's negative part
    has entered the basis and left it."""
    nv, n_eq = rng.randint(5, 6), rng.randint(4, 5)
    rows = [[rng.choice((-2, -1, -1, 0, 0, 1)) for _ in range(nv)] for _ in range(n_eq - 1)]
    rows.append([-x for x in rng.choice(rows)])
    free = [rng.random() < 0.5 for _ in range(nv)]
    return lp([rng.choice((0, 1, 2)) for _ in range(nv)], eq=rows, eq_rhs=[0] * n_eq, free=free)


def test_drive_out_under_the_negative_label_on_seeded_programs(assert_same):
    reached = 0
    for seed in range(6000):
        program = zero_rhs_program(Random(seed))
        before = assert_same.events["drive-out under the negative label"]
        solution, _ = assert_same(program)
        reached += assert_same.events["drive-out under the negative label"] > before
        want = outcome(reference_solve, program)
        assert (solution if isinstance(solution, type)
                else (solution.value, solution.assignment)) == want, seed
    assert reached >= 20


@pytest.fixture
def compaction(monkeypatch):
    """Record each solve's compaction after phase 1 as (the positions it
    deletes, in increasing order; the width before; the rows it dropped),
    read from the solver's frame as it reduces its first row."""
    seen = []
    reduce = simplex.lowest_terms

    def recorded(row, den):
        frame = sys._getframe(1)
        if frame.f_code.co_name == "solve_linear_program" and frame.f_locals["i"] == 0:
            state = frame.f_locals
            seen.append((sorted(state["dead"]), state["width"] + len(state["dead"]),
                         state["drop"]))
        return reduce(row, den)

    monkeypatch.setattr(simplex, "lowest_terms", recorded)
    return seen


@pytest.mark.parametrize("name", COMPACTIONS)
def test_dead_artificial_positions_are_deleted(assert_same, compaction, name):
    # the program pivots as the full tableau does, drops what it drops, and
    # has its rows and labels lose exactly the dead positions; deleting them
    # in increasing order would shift every later one and change the optimum
    program, _ = HAND_CASES[name]
    solution, _ = assert_same(program)
    assert not isinstance(solution, type)
    assert compaction == [COMPACTIONS[name]]


@pytest.mark.parametrize("n", range(2, 8))
def test_identical_solutions_on_kernel_programs(assert_same, n):
    solution, pivots = assert_same(build_projection_lp(_kernel(n)))
    assert solution.value == 2 - F(2, n) and pivots > 0
    assert assert_same.events["negative part enters"] >= 1, assert_same.events
    assert assert_same.events["twin of a leaver enters"] >= (n > 2), assert_same.events


def test_identical_solutions_on_random_subspace_programs(assert_same):
    rng = Random(20261020)
    shapes = Counter()
    for _ in range(24):
        space = random_subspace(rng)
        solution, _ = assert_same(build_projection_lp(space))
        assert solution.value >= 1
        shapes[space.ambient_dim, space.dim] += 1
    assert len(shapes) >= 6, shapes


def test_identical_solutions_on_sigma3_ker3(assert_same):
    # ell_inf^9, whose late pivots touch most rows of a dense tableau
    program = build_projection_lp(sigma_subspace(coordinate_sum_kernel(3), 3).space)
    solution, pivots = assert_same(program)
    assert (solution.value, pivots) == (F(16, 9), 454)


def test_pivot_limit_stops_both_alike(assert_same, monkeypatch):
    monkeypatch.setattr(simplex, "PIVOT_LIMIT", 5)
    assert assert_same(build_projection_lp(_kernel(4))) == (simplex.PivotLimitExceeded, 5)


def test_identical_pivots_and_solutions_past_one_digit(monkeypatch):
    # every entry of the basis over its own prime between 2**10 and 2**15, so
    # the programs' rows start over products of such primes and a scaled
    # row's denominator soon reaches ONE_DIGIT; each pivot is named by its
    # row and its column as rationals, which both tableaux hold alike
    branches = Counter()
    full = Counter()
    got, want = [], []

    def column(rows, dens, c):
        return [F(row[c], den) for row, den in zip(rows, dens)]

    def condensed(rows, dens, r, c, touched, exchange=False):
        got.append((r, column(rows, dens, c)))
        return pivot_checked(rows, dens, r, c, touched, exchange, branches)

    def former(rows, dens, r, c, touched):
        # pricing out the basis is a pivot too, but counts as none
        if full["pivots"] > len(want):
            want.append((r, column(rows, dens, c)))
        linalg_reference.reference_pivot_rows(rows, dens, r, c)

    monkeypatch.setattr(simplex, "pivot_rows", condensed)
    monkeypatch.setattr(tableau_reference, "pivot_rows", former)
    rng = Random(20261021)
    seen = Counter()
    for _ in range(24):
        n = rng.randint(3, 4)
        k = rng.randint(2, n - 1)
        while True:
            rows = [[F(rng.choice((1, -1)) * rng.randint(1, 5), rng.choice(LARGE_PRIMES))
                     if rng.random() < 0.85 else F(0) for _ in range(n)] for _ in range(k)]
            if linalg_reference.rank_of_rows(rows) == k:
                break
        space = Subspace.from_rows(rows)
        DEFAULT_BUDGET.require(space)
        program = build_projection_lp(space)
        full.clear()
        got.clear()
        want.clear()
        solution = views(simplex.solve_linear_program(program), program)
        assert solution == tableau_reference.solve_linear_program(program, full)
        assert got == want and len(got) == full["pivots"] > 0
        seen["lambda > 1"] += solution.value > 1
        seen["pivots"] += len(got)
    assert seen["lambda > 1"] >= 5 and seen["pivots"] >= 1000, seen
    assert len(branches) == 2 and min(branches.values()) >= 30, branches
