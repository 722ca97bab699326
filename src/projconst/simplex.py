"""Exact two-phase simplex over the rationals.

Problems arrive as

    minimize c.x  subject to  A_eq x = b_eq,  A_ub x <= b_ub,

with each variable either nonnegative or free, each constraint row a sparse
map {column: coefficient} and c dense, every row in the tableau's format:
int numerators over one positive int denominator.  A free variable
x = x+ - x- has two labels but at most one column: one, labelled by the
part that last left the basis, while both parts are nonbasic, and none
while either is basic (the other's column is then -e_r, with reduced cost
0).  Inequalities get slack variables, and equalities artificial variables
for phase 1.

The tableau is condensed and fraction-free.  It keeps the nonbasic columns
only (the basic ones are identity columns, half or more of a full row):
labels[q] names the variable at position q and basis[i] that of row i.  A
row is a list of Python ints over one positive denominator, in the sense of
`linalg`, and need not be in lowest terms: the kernel reduces the pivot row
on every pivot, but another row only once its denominator reaches
`linalg.ONE_DIGIT`, and every row is reduced after phase 1, once the
artificials' dead positions are deleted from it, from the last down.  The m
constraint rows come first, as the program wrote them, and the objective
row last.  Every pivot is `linalg.pivot_rows` in its exchange form, the
package's one elimination kernel: a pivot on (r, q) swaps labels[q] with
basis[r], and position q then holds the leaving variable's column, 1/p in
row r and -a_iq/p in every other row i, objective included, in work
proportional to the nonzeros.

Pivoting uses Bland's smallest-index rule for both the entering and the
leaving choice, by variable label, not by position; a stored free column
with a positive reduced cost offers its twin's label, and is negated in
every row, objective included, when the twin enters.  That precludes
cycling, so termination is guaranteed, and it makes every solve
deterministic: identical input programs produce the identical pivot
sequence and the identical optimal assignment.  The condensed integer rows
do not change that sequence.  Each row stands for exactly the nonbasic part
of the rational row of the textbook tableau, and denominators are
positive, so a sign test reads the numerator.  The ratio test compares
rhs_i / a_i by cross-multiplying numerators, since a row's denominator
cancels in its own ratio.  Neither test changes when a row is scaled by a
positive factor, whichever denominator the kernel leaves it over.  Hence
every entering variable, every leaving row, every redundant row dropped
after phase 1 and the returned assignment are those of the full rational
tableau.

A pivot is chosen by reading only what the last pivot changed.  Each phase
keeps Bland's candidates as two sets of positions, built from the
objective row when the phase starts: the negative reduced costs, and the
positive ones whose column has a twin.  A pivot changes the objective row
only at the nonzeros of the new pivot row, the entering position among
them, and scaling a row by a positive factor keeps its signs, so only those
positions are tested again: the kernel hands back the pivot row's nonzero
positions from the one scan of that row it makes anyway.  One C-level scan
of the entering column finds its nonzero rows, objective included; the
ratio test reads the positive ones, and the kernel updates exactly those
rows.

The optimum is read off the final tableau in its own integers: each basic
variable's level is its row's right-hand side over the row's denominator,
the value is minus the objective row's right-hand side over that row's
denominator, and the dual is the objective row's numerators at the slacks'
positions, 0 for a basic slack, over the same denominator.  Entry i of the
dual is u_i = -y_i >= 0, where y_i <= 0 is the optimal multiplier of
inequality i.  A reduced cost does not change when a row is scaled, so a
row negated for its right-hand side needs no sign correction.  The value
is the only `Fraction` made.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from itertools import chain, compress
from typing import Iterable, NamedTuple

from .linalg import lowest_terms, pivot_rows

PIVOT_LIMIT = 2_000_000


class SimplexError(RuntimeError):
    pass


class InfeasibleProgram(SimplexError):
    pass


class UnboundedProgram(SimplexError):
    pass


class PivotLimitExceeded(SimplexError):
    pass


class LinearProgram(NamedTuple):
    """min objective . x, A_eq x = b_eq, A_ub x <= b_ub; free[j] marks sign-free x_j.

    Every row is int numerators over one positive int denominator, not
    necessarily in lowest terms: constraint row i is a sparse map
    {j: numerator of A[i][j]}, 0 <= j < num_vars and unlisted entries 0, over
    dens[i] with its right-hand side rhs[i]; the objective is dense, over
    `objective_den`.
    """

    objective: list[int]
    objective_den: int
    eq_rows: list[dict[int, int]]
    eq_rhs: list[int]
    eq_dens: list[int]
    ub_rows: list[dict[int, int]]
    ub_rhs: list[int]
    ub_dens: list[int]
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

    def check_shapes(self):
        nv = self.num_vars
        if len(self.free) != nv:
            raise ValueError("free-variable mask length mismatch")
        if not (len(self.eq_rows) == len(self.eq_rhs) == len(self.eq_dens)
                and len(self.ub_rows) == len(self.ub_rhs) == len(self.ub_dens)):
            raise ValueError("constraint row/rhs/denominator count mismatch")
        # types, not values: a set would merge True, 1.0 or Fraction(1) into
        # an int 1, and a Fraction read as a numerator changes the program
        rows = self.eq_rows + self.ub_rows
        if not set(map(type, chain.from_iterable(rows))) <= {int}:
            raise ValueError("constraint row column is not an int")
        columns = set().union(*rows)
        if columns and not (min(columns) >= 0 and max(columns) < nv):
            raise ValueError("constraint row column out of range")
        if not set(map(type, chain(self.objective, self.eq_rhs, self.ub_rhs,
                                   chain.from_iterable(map(dict.values, rows))))) <= {int}:
            raise ValueError("a numerator is not an int")
        dens = [self.objective_den, *self.eq_dens, *self.ub_dens]
        if not (set(map(type, dens)) <= {int} and min(dens) > 0):
            raise ValueError("a denominator is not a positive int")


class LinearProgramSolution(NamedTuple):
    """An optimum in the integers of the final tableau.

    `value` is the optimal value.  `basic` maps each variable j of the
    program with a basic part to (numerator, denominator) of its level x_j:
    that part's row's right-hand side over the row's denominator, negated
    when the part is x-, the negative part of a free x_j; every variable not
    listed is 0.  `slack_costs` holds, for each inequality, the numerator of the
    final objective row at its slack, 0 for a basic slack, over the row's
    denominator `cost_den`.  Denominators are positive and need not be in
    lowest terms.

    The slack duals u_i = slack_costs[i] / cost_den form, with some equality
    multipliers v, an optimal dual: u >= 0, objective + A_ub^T u + A_eq^T v
    vanishes on free variables and is nonnegative on the others, and
    value = -(u . ub_rhs) - (v . eq_rhs).
    """

    value: Fraction
    basic: dict[int, tuple[int, int]]
    slack_costs: list[int]
    cost_den: int


def solve_linear_program(lp: LinearProgram) -> LinearProgramSolution:
    """The optimum of the program: its value, levels and slack duals.

    Raises InfeasibleProgram / UnboundedProgram when the program has no
    optimum; callers that construct programs which are feasible and bounded
    by design should treat either as an integrity failure.
    """
    lp.check_shapes()
    nv = lp.num_vars
    n_eq = lp.num_equalities

    # Column layout: originals, then negative parts of free variables,
    # then slacks, then artificials.  Fixed layout keeps solves deterministic.
    neg_part = {j: nv + i for i, j in enumerate(compress(range(nv), lp.free))}
    twin = {**neg_part, **{nj: j for j, nj in neg_part.items()}}
    n_ub = lp.num_inequalities
    slack_start = nv + len(neg_part)
    art_start = slack_start + n_ub

    # Rows with a negative right-hand side are negated so that b >= 0.
    constraints = list(zip(lp.eq_rows + lp.ub_rows, lp.eq_rhs + lp.ub_rhs))
    negated = [b < 0 for _, b in constraints]
    m = len(constraints)
    basis: list[int] = [-1] * m
    n_art = 0
    for i in range(m):
        if i >= n_eq:
            # inequality row: slack coefficient is +1 unless the row was negated
            if not negated[i]:
                basis[i] = slack_start + (i - n_eq)
                continue
        basis[i] = art_start + n_art
        n_art += 1
    ncols = art_start + n_art

    # The tableau keeps nonbasic columns only: position q holds variable
    # labels[q], whose twin is twins[q] (inf if none), and the rhs follows.
    # At the start the artificials and the slacks of rows kept as written
    # are basic, and free columns read x+.
    labels = [j for j in range(art_start) if j < nv or j >= slack_start
              and negated[n_eq + j - slack_start]]
    twins = [twin.get(j, math.inf) for j in labels]
    position = {j: q for q, j in enumerate(labels)}
    width = len(labels)
    tableau: list[list[int]] = []
    dens = lp.eq_dens + lp.ub_dens
    for i, (row, b) in enumerate(constraints):
        full = [0] * (width + 1)
        if negated[i]:
            for j, x in row.items():
                full[position[j]] = -x
            if i >= n_eq:
                full[position[slack_start + (i - n_eq)]] = -dens[i]
            full[width] = -b
        else:
            for j, x in row.items():
                full[position[j]] = x
            full[width] = b
        tableau.append(full)

    # the objective row, written by `set_objective`, is the last row
    tableau.append([])
    dens.append(1)
    pivots = 0

    def column_rows(q: int) -> list[int]:
        """The rows with a nonzero at position q, objective included: one scan."""
        return list(compress(range(len(tableau)), map(operator.itemgetter(q), tableau)))

    def pivot(row_i: int, q: int, touched: list[int]) -> list[int]:
        """Pivot on (row_i, q); return the new pivot row's nonzero positions,
        its rhs included."""
        nonlocal pivots
        pivots += 1
        if pivots > PIVOT_LIMIT:
            raise PivotLimitExceeded(f"exceeded {PIVOT_LIMIT} pivots")
        positions = pivot_rows(tableau, dens, row_i, q, touched, exchange=True)
        labels[q], basis[row_i] = basis[row_i], labels[q]
        twins[q] = twin.get(labels[q], math.inf)
        return positions

    def flip(q: int, touched: list[int]):
        """Store the twin's column at q: negate it in its nonzero rows, objective included."""
        for i in touched:
            row = tableau[i]
            row[q] = -row[q]
        labels[q], twins[q] = twins[q], labels[q]

    def set_objective(num: list[int], den: int):
        """Make the objective row the reduced costs of the cost num / den:
        cost at the nonbasic positions less cost[basis[i]] times row i, for
        every row, one integer combination over the lcm of the rows'
        denominators, brought to lowest terms."""
        priced = [i for i, b in enumerate(basis) if num[b]]
        scale = functools.reduce(math.lcm, (dens[i] for i in priced), 1)
        obj = [num[j] * scale for j in labels] + [0]
        for i in priced:
            row = tableau[i]
            f = num[basis[i]] * (scale // dens[i])
            for j in compress(range(width + 1), row):
                obj[j] -= f * row[j]
        tableau[-1], dens[-1] = obj, lowest_terms(obj, den * scale)

    def run():
        # Bland's candidates: `falling` holds the positions of negative
        # reduced costs, `offered` those of positive ones whose column has
        # a twin; a pivot changes the objective row only at the nonzeros of
        # its new pivot row, so only those are retested
        obj = tableau[-1]
        falling: set[int] = set()
        offered: set[int] = set()

        def retest(positions: Iterable[int]):
            for j in positions:
                x = obj[j]
                if x < 0:
                    falling.add(j)
                    offered.discard(j)
                elif x > 0 and twins[j] < math.inf:
                    offered.add(j)
                    falling.discard(j)
                else:
                    falling.discard(j)
                    offered.discard(j)

        retest(range(width))
        while True:
            enter = min(falling, key=labels.__getitem__, default=-1)
            # a positive reduced cost offers the twin, whose cost is its negative
            q = min(offered, key=twins.__getitem__, default=-1)
            twin_enters = q >= 0 and (enter < 0 or twins[q] < labels[enter])
            if twin_enters:
                enter = q
            elif enter < 0:
                return
            touched = column_rows(enter)
            if twin_enters:
                flip(q, touched)
            # the ratio test reads the positive entries; the objective row's
            # entry is negative, so it never takes part
            leave = -1
            best_a = best_b = 0
            for i in touched:
                row = tableau[i]
                a = row[enter]
                if a <= 0:
                    continue
                b = row[width]
                # sign of b / a - best_b / best_a, with a, best_a > 0
                cross = b * best_a - best_b * a
                if (leave < 0 or cross < 0
                        or (cross == 0 and basis[i] < basis[leave])):
                    best_a, best_b = a, b
                    leave = i
            if leave < 0:
                raise UnboundedProgram("objective unbounded below")
            # the kernel's positions end with the rhs's when it is nonzero
            positions = pivot(leave, enter, touched)
            if positions[-1] == width:
                positions.pop()
            retest(positions)

    # ---- phase 1 -------------------------------------------------------
    if n_art:
        set_objective([0] * art_start + [1] * n_art, 1)
        run()
        # Right-hand sides stay nonnegative, so their sum is zero exactly
        # when each one is.
        if any(tableau[i][width] for i in range(m) if basis[i] >= art_start):
            raise InfeasibleProgram("phase 1 terminated with positive artificial mass")
        # Drive any zero-level artificial out of the basis by the smallest
        # legitimate label, a free column's twin included; a row with none
        # left is redundant and dropped.
        drop: list[int] = []
        for i in range(m):
            if basis[i] >= art_start:
                q = min((q for q in compress(range(width), tableau[i])
                         if labels[q] < art_start),
                        key=lambda q: min(labels[q], twins[q]), default=-1)
                if q < 0:
                    drop.append(i)
                else:
                    touched = column_rows(q)
                    if twins[q] < labels[q]:
                        flip(q, touched)
                    pivot(i, q, touched)
        for i in reversed(drop):
            del tableau[i]
            del dens[i]
            del basis[i]
        m = len(basis)
        # the artificials' positions are dead: delete them from the last
        # down, so that each deletion leaves the positions before it, and
        # reduce each row once its positions are gone
        dead = [q for q in reversed(range(width)) if labels[q] >= art_start]
        for q in dead:
            del labels[q]
            del twins[q]
        width = len(labels)
        for i in range(m):
            row = tableau[i]
            for q in dead:
                del row[q]
            dens[i] = lowest_terms(row, dens[i])
        ncols = art_start

    # ---- phase 2 -------------------------------------------------------
    phase2_cost = lp.objective + [0] * (ncols - nv)
    for j, nj in neg_part.items():
        phase2_cost[nj] = -lp.objective[j]
    set_objective(phase2_cost, lp.objective_den)
    run()

    # at most one part of a free variable is basic: the other has no column
    basic = {}
    for i, b in enumerate(basis):
        if b < nv:
            basic[b] = tableau[i][width], dens[i]
        elif b < slack_start:
            basic[twin[b]] = -tableau[i][width], dens[i]
    costs = dict(zip(labels, tableau[-1]))
    return LinearProgramSolution(Fraction(-tableau[-1][width], dens[-1]), basic,
                                 [costs.get(s, 0) for s in range(slack_start, art_start)],
                                 dens[-1])
