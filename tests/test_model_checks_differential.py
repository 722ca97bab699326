"""Differential tests: the clause-keyed model checks against the former row-by-row ones.

`operator_norm_window` computes the absolute row sum and the sorted shape
once per clause key, and `verify_inverse` reads the columns of the two
composites.  `seqop_reference` keeps the former checks, which build every row
with `row` and apply both operators to each unit vector.  Both results must
be equal on seeded random clause sets (offsets R >= M and D >= C, zero
coefficients, and inputs that two clauses read at once, with equal or with
different slopes), on true inverse pairs, on the exact models and on models
with one clause changed.
"""

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


def collisions(op: SeqOperator, window: int) -> set[str]:
    """Which kinds of shared input ("equal", "different" slope) occur below `window`.

    Found by brute force over the rows, independently of the clause keys.
    """
    kinds = set()
    for i in range(window):
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
            "stabilized": 0, "unstabilized": 0, "long": 0}
    for n in range(WINDOW_SETS):
        op = random_window_operator(rng, f"W{n}")
        window = LONG_WINDOW if n % 100 == 0 else rng.choice([2, 3, rng.randint(2, 300)])
        got = operator_norm_window(op, window)
        assert got == ref.operator_norm_window(op, window), (op, window)
        for kind in collisions(op, min(window, 300)):
            seen[kind] += 1
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


def test_inverse_pairs_and_their_mutants():
    rng = random.Random(256_11)
    outcomes = []
    for n in range(300):
        forward, inverse = random_inverse_pair(rng, f"P{n}")
        count = rng.choice([1, 2, rng.randint(1, 300)])
        cases = [(forward, inverse), (inverse, forward),
                 (mutated(forward, rng), inverse), (forward, mutated(inverse, rng))]
        for f, g in cases:
            got = verify_inverse(f, g, count)
            assert got == ref.verify_inverse(f, g, count), (f, g, count)
            outcomes.append(got)
        assert outcomes[-4] and outcomes[-3]
    assert outcomes.count(False) >= 300


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
