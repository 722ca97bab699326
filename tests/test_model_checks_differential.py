"""Differential tests: the clause-keyed model checks against the former row-by-row ones.

`operator_norm_window` computes the absolute row sum and the sorted shape
once per clause key, and `verify_inverse` reads the columns of the two
composites.  Both read every index below T + L (T + 2L for the inverse
check), with T the largest residue and L the lcm of the moduli, and past it
only the residue classes mod L fed by two or more clauses.
`seqop_reference` keeps the former checks, which build every row with `row`
and apply both operators to each unit vector.  Both results must be equal on
seeded random clause sets (offsets R >= M and D >= C, zero coefficients, and
inputs that two clauses read at once, with equal or with different slopes,
also past T + L), on windows and counts that T + L reaches, on true inverse
pairs, on the exact models, on models with one clause changed, on mutants
whose first wrong column lies in their second period, and on classes fed by
four clauses whose first wrong column lies past T + 2L.
"""

import math
import random
from fractions import Fraction as F

import pytest

import seqop_reference as ref
from projconst.banach_mazur import (
    Clause,
    SeqOperator,
    build_model,
    operator_norm_window,
    verify_inverse,
)

WINDOW_SETS = 3000
LONG_WINDOW = 4096
# root = sqrt(2a + 1) for the five exact models a = 3/2, 4, 12, 24, 40
MODEL_ROOTS = (F(2), F(3), F(5), F(7), F(9))


def fields(cl: Clause):
    return cl.out_modulus, cl.out_residue, cl.in_modulus, cl.in_residue


def coefficient(rng) -> F:
    return F(0) if rng.random() < 0.12 else F(rng.randint(-4, 4), rng.randint(1, 3))


def random_window_clause(rng, earlier: list) -> Clause:
    kind = rng.random()
    if earlier and kind < 0.25:
        # equal slope: k -> t*k + s on an earlier clause's map, which reads
        # the same input as that clause on every row both feed
        m, r, c, d = fields(rng.choice(earlier))
        t = rng.randint(1, 3)
        s = rng.randrange(2 * t) if t > 1 else rng.randint(1, 2)
        return Clause(t * m, r + s * m, t * c, d + s * c, coefficient(rng))
    if kind < 0.45:
        # a clause through (i0, j0); two of them of different slope meet there
        i0, j0 = rng.randrange(40), rng.randrange(40)
        m, c = rng.randint(1, 6), rng.randint(1, 6)
        k = rng.randint(0, min(i0 // m, j0 // c))
        return Clause(m, i0 - m * k, c, j0 - c * k, coefficient(rng))
    m, c = rng.randint(1, 6), rng.randint(1, 6)
    return Clause(m, rng.randrange(3 * m), c, rng.randrange(3 * c), coefficient(rng))


def random_window_operator(rng, name: str) -> SeqOperator:
    clauses: list[Clause] = []
    for _ in range(rng.randint(1, 4)):
        clauses.append(random_window_clause(rng, clauses))
    return SeqOperator(tuple(clauses), name)


def settled_from(classes: list[tuple[int, int]], periods: int) -> int:
    """T + periods * L for (modulus, residue) pairs: T the largest residue, L the lcm."""
    return max((r for _, r in classes), default=0) + periods * math.lcm(*(m for m, _ in classes))


def row_classes(op: SeqOperator) -> list[tuple[int, int]]:
    return [(cl.out_modulus, cl.out_residue) for cl in op.clauses]


def collisions(op: SeqOperator, window: int, start: int = 0) -> set[str]:
    """Which kinds of shared input ("equal", "different" slope) occur in [start, window).

    Found by brute force over the rows, independently of the clause keys.
    """
    kinds = set()
    for i in range(start, window):
        fed = []
        for cl in op.clauses:
            m, r, c, d = fields(cl)
            if i >= r and (i - r) % m == 0:
                fed.append((c * ((i - r) // m) + d, c, m))
        for n, (j1, c1, m1) in enumerate(fed):
            for j2, c2, m2 in fed[n + 1:]:
                if j1 == j2:
                    kinds.add("equal" if c1 * m2 == c2 * m1 else "different")
    return kinds


def test_random_clause_sets_give_the_former_window():
    rng = random.Random(11_4096)
    seen = {"equal": 0, "different": 0, "offset": 0, "zero": 0,
            "stabilized": 0, "unstabilized": 0, "long": 0,
            "read whole": 0, "equal past T + L": 0, "different past T + L": 0}
    for n in range(WINDOW_SETS):
        op = random_window_operator(rng, f"W{n}")
        window = LONG_WINDOW if n % 100 == 0 else rng.choice([2, 3, rng.randint(2, 300)])
        got = operator_norm_window(op, window)
        assert got == ref.operator_norm_window(op, window), (op, window)
        for kind in collisions(op, min(window, 300)):
            seen[kind] += 1
        # T + L >= window: every row is read; else a row past T + L where
        # two clauses read one input lies in a class read in full
        settled = settled_from(row_classes(op), 1)
        seen["read whole"] += settled >= window
        for kind in collisions(op, min(window, 300), settled):
            seen[f"{kind} past T + L"] += 1
        seen["offset"] += any(r >= m or d >= c for m, r, c, d in map(fields, op.clauses))
        seen["zero"] += any(cl.coeff == 0 for cl in op.clauses)
        seen["stabilized" if got.stabilized else "unstabilized"] += 1
        seen["long"] += window == LONG_WINDOW
    assert min(seen.values()) >= 30, seen


@pytest.mark.parametrize("root", MODEL_ROOTS)
def test_models_give_the_former_window(root):
    model = build_model((root * root - 1) / 2)
    for op in (model.forward, model.inverse, *model.stages, *model.inverse_stages):
        for window in (2, 3, 97, LONG_WINDOW):
            assert operator_norm_window(op, window) == ref.operator_norm_window(op, window)


def test_window_merges_shared_inputs_of_both_slopes():
    # Rows 4k read in[2k] through two clauses of slope 1/2: 3/2 - 1/2 = 1.
    # Row 6 reads in[3] through k -> k (k = 3) and k -> 3k + 3 (k = 0):
    # 3/2 - 5 = -7/2.  Unmerged, row 6 would weigh 13/2 and not row 7's 5.
    op = SeqOperator((Clause(2, 0, 1, 0, F(3, 2)), Clause(4, 0, 2, 0, F(-1, 2)),
                      Clause(1, 6, 3, 3, F(-5))), "shared")
    assert operator_norm_window(op, 8) == (F(5), False)
    assert ref.operator_norm_window(op, 8) == (F(5), False)


def random_partition(rng, pieces: int) -> list[tuple[int, int]]:
    """Residue classes (M, R) with R < M that partition the indices >= 0."""
    classes = [(1, 0)]
    while len(classes) < pieces:
        m, r = classes.pop(rng.randrange(len(classes)))
        t = rng.choice([2, 2, 3])
        classes.extend((t * m, r + s * m) for s in range(t))
    return classes


def random_inverse_pair(rng, name: str) -> tuple[SeqOperator, SeqOperator]:
    """A bijection between two partitions into residue classes, and its inverse."""
    pieces = rng.randint(1, 6)
    while True:
        outs, ins = random_partition(rng, pieces), random_partition(rng, pieces)
        if len(outs) == len(ins):
            break
    rng.shuffle(ins)
    coeffs = [F(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 4)) for _ in outs]
    forward = tuple(Clause(m, r, c, d, x) for (m, r), (c, d), x in zip(outs, ins, coeffs))
    inverse = tuple(Clause(c, d, m, r, 1 / x) for (m, r), (c, d), x in zip(outs, ins, coeffs))
    return SeqOperator(forward, name), SeqOperator(inverse, f"{name}^-1")


def mutated(op: SeqOperator, rng) -> SeqOperator:
    """`op` with one clause's coefficient or residue changed."""
    clauses = list(op.clauses)
    n = rng.randrange(len(clauses))
    m, r, c, d = fields(clauses[n])
    coeff = clauses[n].coeff
    change = rng.randrange(4)
    if change == 0:
        coeff = coeff + rng.choice([-1, 1]) * F(1, rng.randint(1, 4))
    elif change == 1:
        coeff = F(0)
    elif change == 2:
        coeff = -coeff
    else:
        r = r + rng.randint(1, 2)
    clauses[n] = Clause(m, r, c, d, coeff)
    return SeqOperator(tuple(clauses), f"{op.descriptor}'")


def composites(f: SeqOperator, g: SeqOperator) -> tuple[SeqOperator, SeqOperator]:
    return SeqOperator.compose(g, f), SeqOperator.compose(f, g)


def column_classes(op: SeqOperator) -> list[tuple[int, int]]:
    return [(cl.in_modulus, cl.in_residue) for cl in op.clauses]


def test_inverse_pairs_and_their_mutants():
    rng = random.Random(256_11)
    outcomes = []
    reads = {"read whole": 0, "read in part": 0}
    for n in range(300):
        forward, inverse = random_inverse_pair(rng, f"P{n}")
        count = rng.choice([1, 2, rng.randint(1, 300)])
        cases = [(forward, inverse), (inverse, forward),
                 (mutated(forward, rng), inverse), (forward, mutated(inverse, rng))]
        for f, g in cases:
            got = verify_inverse(f, g, count)
            assert got == ref.verify_inverse(f, g, count), (f, g, count)
            outcomes.append(got)
            # T + 2L >= count: every column of the composite is read
            for composite in composites(f, g):
                whole = settled_from(column_classes(composite), 2) >= count
                reads["read whole" if whole else "read in part"] += 1
        assert outcomes[-4] and outcomes[-3]
    assert outcomes.count(False) >= 300
    assert min(reads.values()) >= 30, reads


def twisted_identity(rng) -> SeqOperator | None:
    """Identity clauses on a random partition into residue classes, one of them twisted.

    The class of the largest residue T must have the modulus L = lcm of all
    moduli, or None is returned.  Its clause maps column L*k + T to
    t*L*k + T (t = 2 or 3): column T is e_T, and column T + L, the first of
    the second period, is not.
    """
    classes = random_partition(rng, rng.randint(2, 7))
    period = math.lcm(*(m for m, _ in classes))
    top = max(r for _, r in classes)
    if (period, top) not in classes:
        return None
    t = rng.choice([2, 3])
    return SeqOperator(tuple(Clause(t * m if r == top else m, r, m, r, F(1))
                             for m, r in classes), "H")


def first_wrong_column(composite: SeqOperator, count: int) -> int | None:
    """The first j < count whose column is not e_j, found by reading every column."""
    return next((j for j in range(count) if composite.col(j) != ((j, F(1)),)), None)


def test_mutants_that_fail_only_in_their_second_period():
    # Counted below: cases where each composite is e_j on every column below
    # its T + L and some composite's first wrong column lies in
    # [T + L, T + 2L).  A check that read past T + L only the classes fed by
    # two or more clauses would pass them.
    rng = random.Random(2 * 256)
    second_period = 0
    for n in range(200):
        twisted = twisted_identity(rng)
        if twisted is None:
            continue
        forward, inverse = random_inverse_pair(rng, f"P{n}")
        identity = SeqOperator.compose(inverse, forward)
        for f, g in ((identity, twisted), (twisted, identity),
                     (forward, SeqOperator.compose(inverse, twisted))):
            count = rng.randint(1, 400)
            got = verify_inverse(f, g, count)
            assert got == ref.verify_inverse(f, g, count), (f, g, count)
            wrong = [(first_wrong_column(c, count), settled_from(column_classes(c), 1),
                      settled_from(column_classes(c), 2)) for c in composites(f, g)]
            if (all(j is None or j >= one for j, one, _ in wrong)
                    and any(j is not None and j < two for j, _, two in wrong)):
                assert not got
                second_period += 1
    assert second_period >= 30


def shared_class_operator(period: int, a: int, b: int, x: F) -> SeqOperator:
    """Identity mod `period`, but four clauses on the class of T = period - 1.

    On column j = T + period*t they write x at j (the identity), 1 - x at
    T + a*t, 1 - x at T + period - b + b*t and x - 1 at
    T + period - b + (a - period + b)*t.  At t = 0 the second meets the
    first and the fourth the third; at t = 1 the third meets the first and
    the fourth the second.  So columns T and T + period are e_j, and column
    T + 2 * period, past T + 2L, is not.
    """
    top = period - 1
    clauses = [Clause(period, r, period, r, F(1)) for r in range(top)]
    clauses += [Clause(period, top, period, top, x),
                Clause(a, top, period, top, 1 - x),
                Clause(b, top + period - b, period, top, 1 - x),
                Clause(a - period + b, top + period - b, period, top, x - 1)]
    return SeqOperator(tuple(clauses), "shared")


def test_inverse_check_reads_shared_classes_past_the_second_period():
    # The one column that fails lies in a class fed by four clauses, so only
    # reading the shared classes past T + 2L finds it.
    identity = SeqOperator((Clause(1, 0, 1, 0, F(1)),), "I")
    cases = 0
    for period in (2, 3, 4):
        for a in range(1, 2 * period + 1):
            for b in range(1, 2 * period):
                if period in (a, b) or a - period + b < 1:
                    continue
                for x in (F(1, 2), F(0), F(-3, 2)):
                    op = shared_class_operator(period, a, b, x)
                    wrong = period - 1 + 2 * period
                    for f, g in ((identity, op), (op, identity)):
                        assert first_wrong_column(SeqOperator.compose(g, f), 64) == wrong
                        for count in (wrong, wrong + 1, 64):
                            got = verify_inverse(f, g, count)
                            assert got == ref.verify_inverse(f, g, count) == (count <= wrong)
                    cases += 1
    assert cases >= 30


@pytest.mark.parametrize("root", MODEL_ROOTS)
def test_models_and_mutated_models_give_the_former_inverse_check(root):
    model = build_model((root * root - 1) / 2)
    rng = random.Random(int(root))
    assert verify_inverse(model.forward, model.inverse)
    assert ref.verify_inverse(model.forward, model.inverse)
    for stage, inverse in zip(model.stages, reversed(model.inverse_stages)):
        assert verify_inverse(stage, inverse, 64) == ref.verify_inverse(stage, inverse, 64)
    caught = 0
    for _ in range(12):
        f, g = mutated(model.forward, rng), model.inverse
        if rng.random() < 0.5:
            f, g = model.forward, mutated(model.inverse, rng)
        got = verify_inverse(f, g)
        assert got == ref.verify_inverse(f, g)
        caught += not got
    assert caught == 12
