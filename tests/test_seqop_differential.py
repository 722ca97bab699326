"""Differential tests: the clause-tuple SeqOperator against the former closure pair.

`seqop_reference.ReferenceSeqOperator` composes operators index by index
through row/column closures.  The clause-tuple operator composes the clauses
themselves, so every row, column and application must agree with it: on the
three sequence models, on seeded random clause sets with every residue below
its modulus (where the two clause readings coincide) and their compositions,
and on random sets with offsets (residue >= modulus), read for k >= 0 by a
closure pair, whose compositions need the s >= 0 lift.
"""

import random
from fractions import Fraction as F

import pytest

from projconst.banach_mazur import Clause, SeqOperator, build_model
from seqop_reference import ReferenceSeqOperator

RANDOM_SETS = 240
WINDOW = 96


def reference(op: SeqOperator) -> ReferenceSeqOperator:
    return ReferenceSeqOperator.from_clauses(op.clauses, "reference")


def reference_model(stages) -> ReferenceSeqOperator:
    first, mid, last = (reference(s) for s in stages)
    return ReferenceSeqOperator.compose(last, ReferenceSeqOperator.compose(mid, first))


def clause_fields(op: SeqOperator):
    return [(c.out_modulus, c.out_residue, c.in_modulus, c.in_residue, c.coeff)
            for c in op.clauses]


def assert_agree(op, ref, rows=WINDOW, cols=WINDOW, vectors=()):
    for i in range(rows):
        assert op.row(i) == ref.row(i), ("row", i)
    for j in range(cols):
        assert op.col(j) == ref.col(j), ("col", j)
    for vec in vectors:
        assert op.apply(vec) == ref.apply(vec), vec


def random_vector(rng, size=WINDOW):
    return {rng.randrange(size): F(rng.randint(-4, 4), rng.randint(1, 3))
            for _ in range(rng.randint(1, 5))}


MODELS = [F(3, 2), F(4), F(12)]


@pytest.mark.parametrize("a", MODELS)
def test_models_agree_with_reference(a):
    model = build_model(a)
    rng = random.Random(int(a * 2))
    vectors = [random_vector(rng, 256) for _ in range(20)]
    assert_agree(model.forward, reference_model(model.stages), 4096, 256, vectors)
    assert_agree(model.inverse, reference_model(model.inverse_stages), 4096, 256, vectors)


@pytest.mark.parametrize("a,root,nu,b", [
    (F(3, 2), F(2), F(4, 3), F(3, 4)),
    (F(4), F(3), F(3, 4), F(4, 3)),
    (F(12), F(5), F(5, 12), F(12, 5)),
])
def test_model_clauses_are_pinned(a, root, nu, b):
    model = build_model(a)
    assert clause_fields(model.forward) == [
        (2, 1, 8, 4, nu), (4, 0, 8, 0, root), (8, 2, 4, 2, 1 / root), (8, 6, 2, 1, b)]
    assert clause_fields(model.inverse) == [
        (2, 1, 8, 6, nu), (4, 2, 8, 2, root), (8, 0, 4, 0, 1 / root), (8, 4, 2, 1, b)]


def random_operator(rng, offsets=False) -> SeqOperator:
    """1-3 clauses with moduli up to 4; residues below the moduli unless `offsets`."""
    clauses = []
    for _ in range(rng.randint(1, 3)):
        out_m, in_m = rng.randint(1, 4), rng.randint(1, 4)
        reach = 3 if offsets else 1
        coeff = F(rng.randint(-3, 3), rng.randint(1, 3))
        clauses.append(Clause(out_m, rng.randrange(reach * out_m), in_m,
                              rng.randrange(reach * in_m), coeff))
    return SeqOperator(tuple(clauses))


def offset_reference(op: SeqOperator) -> ReferenceSeqOperator:
    """A closure-pair operator reading each clause for k >= 0 directly.

    `from_clauses` reads i % M == R, which never matches an offset R >= M.
    """
    def pairs(index, side):
        found = []
        for cl in op.clauses:
            m, r, c, d = ((cl.out_modulus, cl.out_residue, cl.in_modulus, cl.in_residue)
                          if side == "row" else
                          (cl.in_modulus, cl.in_residue, cl.out_modulus, cl.out_residue))
            if index >= r and (index - r) % m == 0:
                found.append((c * ((index - r) // m) + d, cl.coeff))
        return found

    return ReferenceSeqOperator(lambda i: pairs(i, "row"), lambda j: pairs(j, "col"),
                                "offset reference")


def needs_lift(outer: Clause, inner: Clause) -> bool:
    """Whether the least t >= 0 meeting `inner`'s outputs lands below them (s < 0).

    Found by search, independently of the congruence solver under test.
    """
    for t in range(inner.out_modulus):
        mid = outer.in_modulus * t + outer.in_residue
        if (mid - inner.out_residue) % inner.out_modulus == 0:
            return mid < inner.out_residue
    return False


def test_random_clause_sets_and_compositions():
    rng = random.Random(20261018)
    ops = [random_operator(rng) for _ in range(RANDOM_SETS)]
    for n, op in enumerate(ops):
        vectors = [random_vector(rng) for _ in range(3)]
        assert_agree(op, reference(op), vectors=vectors)
        outer, inner = ops[n - 1], ops[n - 2]
        pair = SeqOperator.compose(outer, op)
        ref_pair = ReferenceSeqOperator.compose(reference(outer), reference(op))
        assert_agree(pair, ref_pair, vectors=vectors)
        triple = SeqOperator.compose(inner, pair)
        assert_agree(triple, ReferenceSeqOperator.compose(reference(inner), ref_pair),
                     vectors=vectors)


def test_random_offset_clause_sets_and_compositions():
    # Composites of clauses with residues below their moduli keep that form,
    # so the s >= 0 lift only acts once offsets (R >= M) are in play.
    rng = random.Random(1018)
    ops = [random_operator(rng, offsets=True) for _ in range(RANDOM_SETS)]
    lifted = 0
    for n, op in enumerate(ops):
        vectors = [random_vector(rng) for _ in range(3)]
        ref = offset_reference(op)
        assert_agree(op, ref, vectors=vectors)
        outer = ops[n - 1]
        pair = SeqOperator.compose(outer, op)
        assert_agree(pair, ReferenceSeqOperator.compose(offset_reference(outer), ref),
                     vectors=vectors)
        lifted += sum(needs_lift(c1, c2) for c1 in outer.clauses for c2 in op.clauses)
    assert lifted >= 100


def test_lift_to_nonnegative_inner_index():
    # inner: mid[k + 5] += in[k]; outer: out[k] += mid[k].  The congruence
    # t = s + 5 has least solution t = 0, s = -5, lifted to t = 5, s = 0.
    inner = SeqOperator((Clause(1, 5, 1, 0, F(1)),))
    outer = SeqOperator((Clause(1, 0, 1, 0, F(2)),))
    composed = SeqOperator.compose(outer, inner)
    assert composed.clauses == (Clause(1, 5, 1, 0, F(2)),)
    assert composed.row(4) == ()
    assert composed.apply({0: F(1)}) == {5: F(2)}


def test_zero_and_cancelling_clauses_are_dropped():
    plus = SeqOperator((Clause(2, 0, 2, 0, F(1)), Clause(2, 1, 2, 1, F(0))))
    minus = SeqOperator((Clause(1, 0, 1, 0, F(-1)),))
    both = SeqOperator((Clause(1, 0, 1, 0, F(1)),))
    assert SeqOperator.compose(minus, plus).clauses == (Clause(2, 0, 2, 0, F(-1)),)
    summed = SeqOperator((*minus.clauses, *both.clauses))
    assert SeqOperator.compose(summed, plus).clauses == ()
