"""The full-tableau simplex that the condensed `projconst.simplex` replaced, kept as a test oracle.

`solve_linear_program` is the former solver verbatim, apart from reading
the program's integer rows by value on entry (`simplex_reference.by_value`),
from reading `projconst.simplex.PIVOT_LIMIT` at pivot time and from
tallying, when a counter is passed, each pivot taken and the free-variable
events that make the condensed solver negate a stored column (see
`solve_linear_program`), and, when a list is passed, recording each pivot's
entering and leaving variable.  Its tableau keeps every column, the basic
variables' identity columns and both parts of each free variable included,
and pivots with `linalg.pivot_rows` in its Gauss-Jordan form, handed the
rows with a nonzero in the pivot column by a scan of that column.  It
returns (value, assignment, slack duals) in `Fraction`s, and the condensed
solver's `Fraction` views of its integer optimum must equal them, or both
solvers raise the same exception, after the identical number of pivots.
"""

from __future__ import annotations

import operator
from collections import Counter
from fractions import Fraction
from itertools import compress, repeat
from typing import NamedTuple

from linalg_reference import integer_row
from simplex_reference import by_value

from projconst import simplex
from projconst.linalg import lowest_terms, pivot_rows
from projconst.simplex import (
    InfeasibleProgram,
    LinearProgram,
    PivotLimitExceeded,
    UnboundedProgram,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


class Optimum(NamedTuple):
    value: Fraction
    assignment: list[Fraction]
    slack_duals: list[Fraction]


def nonzero_rows(rows: list[list[int]], c: int) -> list[int]:
    """The rows with a nonzero in column c, the rows a pivot on it updates."""
    return [i for i, row in enumerate(rows) if row[c]]


def solve_linear_program(lp: LinearProgram, counter: Counter | None = None,
                         trace: list | None = None) -> Optimum:
    """Optimal (objective value, assignment, slack duals) of the program.

    When a counter is given, each pivot taken adds one to `counter["pivots"]`,
    and a pivot whose entering variable is part of a free variable to
    - `counter["negative part enters"]` when that part is x-;
    - `counter["twin of a leaver enters"]` when the other part is the one
      that left the basis last;
    - `counter["drive-out under the negative label"]` when it drives out an
      artificial and x- left the basis last.
    The condensed tableau stores a free variable's column under the part that
    left the basis last, x+ before either did, so each of the last two
    events makes it negate that column.  When a list is given as `trace`,
    each pivot taken appends its pair (entering variable, leaving
    variable), pivots that drive out an artificial included.

    Raises InfeasibleProgram / UnboundedProgram when the program has no
    optimum; callers that construct programs which are feasible and bounded
    by design should treat either as an integrity failure.
    """
    lp.check_shapes()
    lp = by_value(lp)
    nv = lp.num_vars
    n_eq = lp.num_equalities

    # Column layout: originals, then negative parts of free variables,
    # then slacks, then artificials.  Fixed layout keeps solves deterministic.
    neg_part = {}
    for j in range(nv):
        if lp.free[j]:
            neg_part[j] = nv + len(neg_part)
    n_split = nv + len(neg_part)
    n_ub = lp.num_inequalities
    slack_start = n_split
    art_start = n_split + n_ub

    # Rows with a negative right-hand side are negated so that b >= 0.
    constraints = list(zip(lp.eq_rows + lp.ub_rows, lp.eq_rhs + lp.ub_rhs))
    negated = [b < 0 for _, b in constraints]
    m = len(constraints)
    basis: list[int] = [-1] * m
    artificial_of_row: dict[int, int] = {}
    n_art = 0
    for i in range(m):
        if i >= n_eq:
            # inequality row: slack coefficient is +1 unless the row was negated
            if not negated[i]:
                basis[i] = slack_start + (i - n_eq)
                continue
        artificial_of_row[i] = art_start + n_art
        n_art += 1
    ncols = art_start + n_art
    twin = {**neg_part, **{nj: j for j, nj in neg_part.items()}}
    # free variable (its x+ label) -> the part that left the basis last
    last_left: dict[int, int] = {}

    tableau: list[list[int]] = []
    dens: list[int] = []
    for i, (row, b) in enumerate(constraints):
        num, den = integer_row([*row.values(), b])
        sign = -1 if negated[i] else 1
        full = [0] * (ncols + 1)
        for j, x in zip(row, num):
            if x:
                full[j] = sign * x
                if j in neg_part:
                    full[neg_part[j]] = -sign * x
        if i >= n_eq:
            full[slack_start + (i - n_eq)] = sign * den
        if i in artificial_of_row:
            full[artificial_of_row[i]] = den
            basis[i] = artificial_of_row[i]
        full[ncols] = sign * num[-1]
        tableau.append(full)
        dens.append(den)

    # the objective row, written by `set_objective`, is the last row
    tableau.append([])
    dens.append(1)
    pivots = 0

    def pivot(row_i: int, col_j: int, drive_out: bool = False):
        nonlocal pivots
        pivots += 1
        if pivots > simplex.PIVOT_LIMIT:
            raise PivotLimitExceeded(f"exceeded {simplex.PIVOT_LIMIT} pivots")
        if trace is not None:
            trace.append((col_j, basis[row_i]))
        if counter is not None:
            counter["pivots"] += 1
            if col_j in twin:
                plus = min(col_j, twin[col_j])
                stored = last_left.get(plus, plus)
                counter["negative part enters"] += col_j != plus
                counter["twin of a leaver enters"] += plus in last_left and col_j != stored
                counter["drive-out under the negative label"] += drive_out and stored != plus
            if basis[row_i] in twin:
                last_left[min(basis[row_i], twin[basis[row_i]])] = basis[row_i]
        pivot_rows(tableau, dens, row_i, col_j, nonzero_rows(tableau, col_j))
        basis[row_i] = col_j

    def set_objective(cost: list[Fraction]):
        """Make the objective row the reduced costs of `cost`.

        Each basic column reads 1 in its own row and 0 in the other
        constraint rows, so pricing it out is a pivot on that entry which
        changes the objective row alone.
        """
        tableau[-1], dens[-1] = integer_row(cost + [_ZERO])
        for i, b in enumerate(basis):
            if tableau[-1][b]:
                pivot_rows(tableau, dens, i, b, nonzero_rows(tableau, b))

    def run(eligible_end: int):
        while True:
            enter = next(compress(range(eligible_end),
                                  map(operator.lt, tableau[-1], repeat(0))), -1)
            if enter < 0:
                return
            leave = -1
            best_a = best_b = 0
            column = map(operator.itemgetter(enter), tableau)
            for i in compress(range(m), map(operator.gt, column, repeat(0))):
                row = tableau[i]
                a, b = row[enter], row[ncols]
                # sign of b / a - best_b / best_a, with a, best_a > 0
                cross = b * best_a - best_b * a
                if (leave < 0 or cross < 0
                        or (cross == 0 and basis[i] < basis[leave])):
                    best_a, best_b = a, b
                    leave = i
            if leave < 0:
                raise UnboundedProgram("objective unbounded below")
            pivot(leave, enter)

    # ---- phase 1 -------------------------------------------------------
    if n_art:
        phase1_cost = [_ZERO] * ncols
        for j in range(art_start, ncols):
            phase1_cost[j] = _ONE
        set_objective(phase1_cost)
        run(ncols)
        # Right-hand sides stay nonnegative, so their sum is zero exactly
        # when each one is.
        if any(tableau[i][ncols] for i in range(m) if basis[i] >= art_start):
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
                    pivot(i, col, drive_out=True)
        for i in reversed(drop):
            del tableau[i]
            del dens[i]
            del basis[i]
        m = len(basis)
        for i in range(m):
            row = tableau[i]
            del row[art_start:ncols]
            dens[i] = lowest_terms(row, dens[i])
        ncols = art_start

    # ---- phase 2 -------------------------------------------------------
    phase2_cost = [_ZERO] * ncols
    for j in range(nv):
        phase2_cost[j] = lp.objective[j]
    for j, nj in neg_part.items():
        phase2_cost[nj] = -lp.objective[j]
    set_objective(phase2_cost)
    run(ncols)

    x_std = [_ZERO] * ncols
    for i, b in enumerate(basis):
        x_std[b] = Fraction(tableau[i][ncols], dens[i])
    assignment = []
    for j in range(nv):
        val = x_std[j]
        if j in neg_part:
            val -= x_std[neg_part[j]]
        assignment.append(val)
    value = sum((c * x for c, x in zip(lp.objective, assignment) if c and x), _ZERO)
    costs, cost_den = tableau[-1], dens[-1]
    slack_duals = [Fraction(x, cost_den) if x else _ZERO
                   for x in costs[slack_start:slack_start + n_ub]]
    return Optimum(value, assignment, slack_duals)
