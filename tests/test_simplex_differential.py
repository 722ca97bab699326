"""The fraction-free simplex against the rational-tableau simplex it replaced.

Both run Bland's rule on the same rational tableau, so on every program they
must return the identical (value, assignment) or raise the same exception.
Identical assignments on degenerate programs, where many optima exist, pin
the pivot sequence as well.  The kernel updates tableau rows in place, so
every pivot must see distinct row lists, and the tableau is condensed, so
every row it sees holds only the nonbasic columns and the right-hand side.
"""

from collections import Counter
from fractions import Fraction as F
from pathlib import Path
from random import Random

import pytest
from simplex_reference import (
    assignment,
    integer_program,
    reference_solve,
    slack_duals,
    sparse_row,
)

from projconst import simplex
from projconst.cli import load_subspace_document
from projconst.linalg import Subspace, pivot_rows
from projconst.minproj import build_projection_lp
from projconst.simplex import LinearProgram, SimplexError, solve_linear_program
from projconst.zerosum import coordinate_sum_kernel, sigma_subspace

GOLDEN = Path(__file__).parent / "golden"


def outcome(solve, program):
    try:
        return solve(program)
    except SimplexError as exc:
        return type(exc)


def assert_same(program):
    """The (value, assignment) pair or the exception type, checked against the
    reference; the slack duals, which the reference does not return, are
    checked in `test_slack_duals_are_an_optimal_dual`."""
    got = outcome(solve_linear_program, program)
    want = outcome(reference_solve, program)
    if isinstance(got, tuple):
        x, u = assignment(got, program.num_vars), slack_duals(got)
        assert all(type(y) is F for y in [got.value, *x, *u])
        got = got.value, x
    assert got == want
    return got


def _entry(rng: Random, zero_share: float) -> F:
    if rng.random() < zero_share:
        return F(0)
    return F(rng.randint(-5, 5), rng.randint(1, 4))


def _with_redundant_row(rng: Random, rows, rhs):
    """Insert a rational combination of the rows, with the matching rhs."""
    coeffs = [F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in rows]
    width = len(rows[0])
    combo = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(width)]
    at = rng.randint(0, len(rows))
    rows.insert(at, combo)
    rhs.insert(at, sum(c * b for c, b in zip(coeffs, rhs)))


def random_program(rng: Random) -> LinearProgram:
    """Small programs with rational entries, free variables, right-hand sides
    of either sign (zero ones give degenerate vertices) and, in about a
    third of the programs with equalities, a redundant equality."""
    nv = rng.randint(1, 5)
    zero_share = rng.choice([0.2, 0.5])
    n_eq, n_ub = rng.randint(0, 3), rng.randint(0, 4)
    eq = [[_entry(rng, zero_share) for _ in range(nv)] for _ in range(n_eq)]
    eq_rhs = [_entry(rng, 0.4) for _ in range(n_eq)]
    if eq and rng.random() < 0.35:
        _with_redundant_row(rng, eq, eq_rhs)
    ub = [[_entry(rng, zero_share) for _ in range(nv)] for _ in range(n_ub)]
    ub_rhs = [_entry(rng, 0.4) for _ in range(n_ub)]
    objective = [_entry(rng, zero_share) for _ in range(nv)]
    free = [rng.random() < 0.3 for _ in range(nv)]
    return integer_program(objective, [sparse_row(row) for row in eq], eq_rhs,
                           [sparse_row(row) for row in ub], ub_rhs, free)


def test_identical_results_on_random_programs():
    rng = Random(20240601)
    kinds = Counter()
    for _ in range(1200):
        got = assert_same(random_program(rng))
        kinds[got if isinstance(got, type) else "optimal"] += 1
    assert kinds["optimal"] >= 200
    assert kinds[simplex.InfeasibleProgram] >= 200
    assert kinds[simplex.UnboundedProgram] >= 200


def test_slack_duals_are_an_optimal_dual():
    # inequality-only programs, so u alone is the dual: u >= 0, the reduced
    # costs objective + A^T u vanish on free and are >= 0 on other variables,
    # and the value is -u.b; rows with b < 0 enter the tableau negated
    rng = Random(20240603)
    optimal = negated = 0
    for _ in range(1500):
        nv, n_ub = rng.randint(1, 5), rng.randint(1, 5)
        ub = [[_entry(rng, 0.3) for _ in range(nv)] for _ in range(n_ub)]
        rhs = [_entry(rng, 0.3) for _ in range(n_ub)]
        objective = [_entry(rng, 0.3) for _ in range(nv)]
        free = [rng.random() < 0.3 for _ in range(nv)]
        program = integer_program(objective, [], [], [sparse_row(row) for row in ub], rhs, free)
        try:
            solution = solve_linear_program(program)
        except SimplexError:
            continue
        value, u = solution.value, slack_duals(solution)
        assert len(u) == n_ub and min(u, default=0) >= 0
        for j in range(nv):
            reduced = objective[j] + sum(ui * row[j] for ui, row in zip(u, ub))
            assert reduced == 0 if free[j] else reduced >= 0
        assert value == -sum(ui * b for ui, b in zip(u, rhs))
        optimal += 1
        negated += any(ui and b < 0 for ui, b in zip(u, rhs))
    assert optimal >= 300 and negated >= 50, (optimal, negated)


def phase_widths(program: LinearProgram) -> list[int]:
    """The number of tableau columns in each phase, the basic ones included:
    one per original variable, free or not, and one per slack, plus in
    phase 1 one artificial per equality and per negated inequality.  A free
    variable's two parts share one column: while both are nonbasic it is
    stored once, and while either is basic it is stored not at all."""
    n_vars = program.num_vars + program.num_inequalities
    n_art = program.num_equalities + sum(b < 0 for b in program.ub_rhs)
    return [n_vars + n_art, n_vars] if n_art else [n_vars]


def test_tableau_rows_are_distinct_lists(monkeypatch):
    # the kernel updates rows in place, so no two tableau rows may share a
    # list; and the tableau is condensed, so with m constraint rows over
    # ncols columns every row holds ncols - m columns and its rhs, the same
    # number after every pivot of a phase
    calls = Counter()
    phases = []

    def checked(rows, dens, r, c, touched, exchange=False):
        assert exchange
        assert len(set(map(id, rows))) == len(rows)
        m = len(rows) - 1
        if len(phases) > 1 and len(rows[0]) != phases[0] - m + 1:
            phases.pop(0)
        assert {len(row) for row in rows} == {phases[0] - m + 1}
        calls["pivots"] += 1
        return pivot_rows(rows, dens, r, c, touched, exchange)

    def check(program):
        phases[:] = phase_widths(program)
        assert_same(program)

    monkeypatch.setattr(simplex, "pivot_rows", checked)
    rng = Random(20240602)
    for _ in range(200):
        check(random_program(rng))
    # two identical constraint rows, and the projection program of ker_4
    check(integer_program([F(1), F(1)], [{0: F(1)}, {0: F(1)}], [F(2), F(2)],
                          [{1: F(-1)}], [F(-1)], [False, False]))
    check(build_projection_lp(_kernel(4)))
    assert calls["pivots"] >= 300, calls


def test_kernel_program_widths(monkeypatch):
    # ker_4's program: 12 free coefficients, 17 other variables, 36 slacks
    # and 9 equalities; its rows hold 29 columns in phase 1 and 20 in phase
    # 2 (with both parts of each free variable stored: 41 and 32)
    program = build_projection_lp(_kernel(4))
    assert phase_widths(program) == [74, 65]
    widths = Counter()

    def checked(rows, dens, r, c, touched, exchange=False):
        widths[len(rows) - 1, len(rows[0]) - 1] += 1
        return pivot_rows(rows, dens, r, c, touched, exchange)

    monkeypatch.setattr(simplex, "pivot_rows", checked)
    assert solve_linear_program(program).value == F(3, 2)
    assert widths == {(45, 29): 33, (45, 20): 19}


def test_redundant_equalities_are_dropped_alike():
    # the second and fourth rows are combinations of the others, so their
    # artificials end phase 1 at level 0 with no legitimate pivot left
    program = integer_program(
        [F(1), F(2), F(-1)],
        [sparse_row(row) for row in [[1, 1, 0], [2, 2, 0], [0, 1, 1], [1, 2, 1]]],
        [F(1), F(2), F(3, 2), F(5, 2)],
        [], [], [False, False, True])
    assert assert_same(program) == (F(-1, 2), [F(1), F(0), F(3, 2)])


def test_negative_pivot_in_artificial_drive_out():
    # min 2x + y + z with -z = 0 and 2x = 3: phase 1 leaves the artificial of
    # the first row basic at level 0, and its only legitimate entry is -1
    program = integer_program(
        [F(2), F(1), F(1)],
        [sparse_row([0, 0, -1]), sparse_row([2, 0, 0])],
        [F(0), F(3)],
        [], [], [False, False, False])
    assert assert_same(program) == (F(3), [F(3, 2), F(0), F(0)])


def test_pivot_limit_is_read_at_pivot_time(monkeypatch):
    program = build_projection_lp(_kernel(3))
    monkeypatch.setattr(simplex, "PIVOT_LIMIT", 3)
    assert assert_same(program) is simplex.PivotLimitExceeded


def test_sigma3_ker3_takes_454_pivots(monkeypatch):
    # the ell_inf^9 program of Sigma_3(ker_3): Bland's rule on the rational
    # tableau fixes the pivot count, whatever the row format
    program = build_projection_lp(sigma_subspace(coordinate_sum_kernel(3), 3).space)
    monkeypatch.setattr(simplex, "PIVOT_LIMIT", 453)
    with pytest.raises(simplex.PivotLimitExceeded):
        solve_linear_program(program)
    monkeypatch.setattr(simplex, "PIVOT_LIMIT", 454)
    assert solve_linear_program(program)[0] == F(16, 9)


def _kernel(n: int) -> Subspace:
    rows = [[F(0)] * n for _ in range(n - 1)]
    for i in range(n - 1):
        rows[i][i], rows[i][i + 1] = F(1), F(-1)
    return Subspace.from_rows(rows)


@pytest.mark.parametrize("space, expected", [
    *(pytest.param(_kernel(n), 2 - F(2, n), id=f"ker{n}") for n in range(2, 7)),
    pytest.param(sigma_subspace(_kernel(3), 2).space, F(4, 3), id="sigma2-ker3"),
    # a basis with denominators 2 and 3, so rows start over a nontrivial lcm
    pytest.param(load_subspace_document(str(GOLDEN / "rational5.json")), F(216, 181),
                 id="rational5"),
])
def test_identical_results_on_projection_programs(space, expected):
    value, _ = assert_same(build_projection_lp(space))
    assert value == expected
