"""The rational-tableau simplex that `projconst.simplex` replaced, kept as a test oracle.

`reference_solve` is the two-phase Bland simplex with one `Fraction` per
tableau entry.  It is the former `solve_linear_program` verbatim, apart from
its name, from reading `projconst.simplex.PIVOT_LIMIT` at pivot time, and
from reading the program's integer rows by value (`by_value`) and turning
them into dense lists on entry.  Nothing after that step changes.  The
fraction-free kernel must return the identical (value, assignment), or
raise the same exception, on every program.

`sparse_row` and `dense_row` convert between the two row formats for tests
that write or read rows densely.  `integer_program` writes a program given
in `Fraction` rows in the simplex's integer format, and `by_value` reads it
back.  `assignment` and `slack_duals` read a `LinearProgramSolution` as
`Fraction`s: x, given the program's `num_vars`, and u.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from linalg_reference import integer_row

from projconst import simplex
from projconst.simplex import (
    InfeasibleProgram,
    LinearProgram,
    LinearProgramSolution,
    PivotLimitExceeded,
    UnboundedProgram,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


def sparse_row(values) -> dict[int, Fraction]:
    """The nonzero entries of a dense row, as {column: value}."""
    return {j: Fraction(x) for j, x in enumerate(values) if x}


def dense_row(row: dict[int, Fraction], width: int) -> list[Fraction]:
    """The sparse row as a list of `width` entries."""
    out = [_ZERO] * width
    for j, x in row.items():
        out[j] = x
    return out


def assignment(solution: LinearProgramSolution, num_vars: int) -> list[Fraction]:
    """The optimal x, one `Fraction` per variable of the program."""
    return [Fraction(*solution.basic[j]) if j in solution.basic else _ZERO
            for j in range(num_vars)]


def slack_duals(solution: LinearProgramSolution) -> list[Fraction]:
    """The optimal dual u, one `Fraction` per inequality."""
    return [Fraction(x, solution.cost_den) if x else _ZERO for x in solution.slack_costs]


def integer_program(objective, eq_rows, eq_rhs, ub_rows, ub_rhs, free) -> LinearProgram:
    """The program with these `Fraction` rows, in the simplex's format: each
    constraint row with its right-hand side, and the objective, as
    numerators over the lcm of their denominators (`integer_row`)."""
    def integer_rows(rows, rhs):
        parts = [integer_row([*row.values(), b]) for row, b in zip(rows, rhs)]
        return ([dict(zip(row, num)) for row, (num, _) in zip(rows, parts)],
                [num[-1] for num, _ in parts], [den for _, den in parts])

    return LinearProgram(*integer_row(objective), *integer_rows(eq_rows, eq_rhs),
                         *integer_rows(ub_rows, ub_rhs), list(free))


class RationalProgram(NamedTuple):
    """A `LinearProgram` read by value: every entry a `Fraction`."""

    objective: list[Fraction]
    eq_rows: list[dict[int, Fraction]]
    eq_rhs: list[Fraction]
    ub_rows: list[dict[int, Fraction]]
    ub_rhs: list[Fraction]
    free: list[bool]

    @property
    def num_vars(self) -> int:
        return len(self.objective)

    @property
    def num_equalities(self) -> int:
        return len(self.eq_rows)

    @property
    def num_inequalities(self) -> int:
        return len(self.ub_rows)


def by_value(lp: LinearProgram) -> RationalProgram:
    """The program's rows as `Fraction`s: numerator x of a row over den reads
    Fraction(x, den)."""
    def rows(rows, dens):
        return [{j: Fraction(x, den) for j, x in row.items()} for row, den in zip(rows, dens)]

    def entries(values, dens):
        return [Fraction(x, den) for x, den in zip(values, dens)]

    return RationalProgram([Fraction(x, lp.objective_den) for x in lp.objective],
                           rows(lp.eq_rows, lp.eq_dens), entries(lp.eq_rhs, lp.eq_dens),
                           rows(lp.ub_rows, lp.ub_dens), entries(lp.ub_rhs, lp.ub_dens),
                           list(lp.free))


def reference_solve(lp: LinearProgram) -> tuple[Fraction, list[Fraction]]:
    """Optimal (objective value, assignment) of the program.

    Raises InfeasibleProgram / UnboundedProgram when the program has no
    optimum; callers that construct programs which are feasible and bounded
    by design should treat either as an integrity failure.
    """
    lp.check_shapes()
    lp = by_value(lp)
    nv = lp.num_vars
    eq_rows = [dense_row(row, nv) for row in lp.eq_rows]
    ub_rows = [dense_row(row, nv) for row in lp.ub_rows]

    # Column layout: originals, then negative parts of free variables,
    # then slacks, then artificials.  Fixed layout keeps solves deterministic.
    neg_part = {}
    for j in range(nv):
        if lp.free[j]:
            neg_part[j] = nv + len(neg_part)
    n_split = nv + len(neg_part)
    n_ub = len(ub_rows)
    slack_start = n_split
    art_start = n_split + n_ub

    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    negated: list[bool] = []
    for row, b in zip(eq_rows, lp.eq_rhs):
        flip = b < 0
        sign = -_ONE if flip else _ONE
        rows.append([sign * x for x in row])
        rhs.append(sign * b)
        negated.append(flip)
    for row, b in zip(ub_rows, lp.ub_rhs):
        flip = b < 0
        sign = -_ONE if flip else _ONE
        rows.append([sign * x for x in row])
        rhs.append(sign * b)
        negated.append(flip)

    m = len(rows)
    basis: list[int] = [-1] * m
    artificial_of_row: dict[int, int] = {}
    n_art = 0
    for i in range(m):
        if i >= len(eq_rows):
            # inequality row: slack coefficient is +1 unless the row was negated
            if not negated[i]:
                basis[i] = slack_start + (i - len(eq_rows))
                continue
        artificial_of_row[i] = art_start + n_art
        n_art += 1
    ncols = art_start + n_art

    tableau: list[list[Fraction]] = []
    for i in range(m):
        full = [_ZERO] * (ncols + 1)
        row = rows[i]
        for j in range(nv):
            x = row[j]
            if x:
                full[j] = x
                if j in neg_part:
                    full[neg_part[j]] = -x
        if i >= len(eq_rows):
            sidx = slack_start + (i - len(eq_rows))
            full[sidx] = -_ONE if negated[i] else _ONE
        if i in artificial_of_row:
            full[artificial_of_row[i]] = _ONE
            basis[i] = artificial_of_row[i]
        full[ncols] = rhs[i]
        tableau.append(full)

    pivots = 0

    def pivot(row_i: int, col_j: int):
        nonlocal pivots
        pivots += 1
        if pivots > simplex.PIVOT_LIMIT:
            raise PivotLimitExceeded(f"exceeded {simplex.PIVOT_LIMIT} pivots")
        prow = tableau[row_i]
        piv = prow[col_j]
        if piv != 1:
            inv = 1 / piv
            tableau[row_i] = prow = [x * inv if x else x for x in prow]
        nz = [j for j, x in enumerate(prow) if x]
        for i in range(len(tableau)):
            if i == row_i:
                continue
            r = tableau[i]
            f = r[col_j]
            if f:
                for j in nz:
                    r[j] -= f * prow[j]
        obj = objective_row
        f = obj[col_j]
        if f:
            for j in nz:
                obj[j] -= f * prow[j]
        basis[row_i] = col_j

    def reduced_costs(cost: list[Fraction]) -> list[Fraction]:
        out = list(cost) + [_ZERO]
        for i, b in enumerate(basis):
            cb = cost[b]
            if cb:
                row = tableau[i]
                for j, x in enumerate(row):
                    if x:
                        out[j] -= cb * x
        return out

    def run(eligible_end: int):
        while True:
            enter = -1
            for j in range(eligible_end):
                if objective_row[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return
            leave = -1
            best_ratio = None
            for i in range(m):
                a = tableau[i][enter]
                if a > 0:
                    ratio = tableau[i][ncols] / a
                    if (best_ratio is None or ratio < best_ratio
                            or (ratio == best_ratio and basis[i] < basis[leave])):
                        best_ratio = ratio
                        leave = i
            if leave < 0:
                raise UnboundedProgram("objective unbounded below")
            pivot(leave, enter)

    # ---- phase 1 -------------------------------------------------------
    if n_art:
        phase1_cost = [_ZERO] * ncols
        for j in range(art_start, ncols):
            phase1_cost[j] = _ONE
        objective_row = reduced_costs(phase1_cost)
        run(ncols)
        residue = sum((tableau[i][ncols] for i in range(m) if basis[i] >= art_start),
                      _ZERO)
        if residue:
            raise InfeasibleProgram("phase 1 terminated with positive artificial mass")
        # Drive any zero-level artificial out of the basis; a row with no
        # remaining legitimate pivot is redundant and dropped.
        drop: list[int] = []
        for i in range(m):
            if basis[i] >= art_start:
                col = next((j for j in range(art_start) if tableau[i][j]), None)
                if col is None:
                    drop.append(i)
                else:
                    pivot(i, col)
        for i in reversed(drop):
            del tableau[i]
            del basis[i]
        m = len(tableau)
        for i in range(m):
            tableau[i] = tableau[i][:art_start] + [tableau[i][ncols]]
        ncols = art_start

    # ---- phase 2 -------------------------------------------------------
    phase2_cost = [_ZERO] * ncols
    for j in range(nv):
        phase2_cost[j] = lp.objective[j]
    for j, nj in neg_part.items():
        phase2_cost[nj] = -lp.objective[j]
    objective_row = reduced_costs(phase2_cost)
    run(ncols)

    x_std = [_ZERO] * ncols
    for i, b in enumerate(basis):
        x_std[b] = tableau[i][ncols]
    assignment = []
    for j in range(nv):
        val = x_std[j]
        if j in neg_part:
            val -= x_std[neg_part[j]]
        assignment.append(val)
    value = sum((c * x for c, x in zip(lp.objective, assignment) if c and x), _ZERO)
    return value, assignment
