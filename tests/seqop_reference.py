"""The closure-pair `SeqOperator` that `projconst.banach_mazur` replaced, kept as a test oracle.

`ReferenceSeqOperator` is the former `SeqOperator` verbatim, apart from its
name.  It stores one `row_fn`/`col_fn` closure pair per operator; a clause
matches output i when i % out_modulus == out_residue, which agrees with the
clause-tuple operator whenever every residue lies below its modulus.
`compose` chains the two operators' rows and columns index by index, so it
needs no congruence solving at all.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Mapping

from projconst.banach_mazur import Clause, Vector

_ZERO = Fraction(0)
_ONE = Fraction(1)


class ReferenceSeqOperator:
    """A column- and row-finite linear operator on finitely supported sequences.

    `row(i)` lists the (input index, coefficient) pairs feeding output i;
    `col(j)` lists the (output index, coefficient) pairs fed by input j.
    Both directions are kept so that application (column-driven) and row-sum
    norms (row-driven) are each direct.
    """

    def __init__(self, row_fn: Callable[[int], list], col_fn: Callable[[int], list],
                 descriptor: str):
        self._row_fn = row_fn
        self._col_fn = col_fn
        self.descriptor = descriptor

    def __repr__(self):
        return f"SeqOperator({self.descriptor})"

    @staticmethod
    def _merge(pairs) -> tuple[tuple[int, Fraction], ...]:
        acc: dict[int, Fraction] = {}
        for idx, coeff in pairs:
            acc[idx] = acc.get(idx, _ZERO) + coeff
        return tuple(sorted((i, c) for i, c in acc.items() if c))

    def row(self, i: int) -> tuple[tuple[int, Fraction], ...]:
        return self._merge(self._row_fn(i))

    def col(self, j: int) -> tuple[tuple[int, Fraction], ...]:
        return self._merge(self._col_fn(j))

    def apply(self, vec: Mapping[int, Fraction]) -> Vector:
        out: dict[int, Fraction] = {}
        for j, x in vec.items():
            if not x:
                continue
            for i, coeff in self.col(j):
                out[i] = out.get(i, _ZERO) + coeff * x
        return {i: v for i, v in out.items() if v}

    @classmethod
    def identity(cls) -> "ReferenceSeqOperator":
        return cls.from_clauses([Clause(1, 0, 1, 0, _ONE)], "I")

    @classmethod
    def from_clauses(cls, clauses, descriptor: str) -> "ReferenceSeqOperator":
        clauses = tuple(clauses)

        def row_fn(i: int):
            pairs = []
            for cl in clauses:
                if i % cl.out_modulus == cl.out_residue:
                    k = i // cl.out_modulus
                    pairs.append((cl.in_modulus * k + cl.in_residue, cl.coeff))
            return pairs

        def col_fn(j: int):
            pairs = []
            for cl in clauses:
                if j % cl.in_modulus == cl.in_residue:
                    k = j // cl.in_modulus
                    pairs.append((cl.out_modulus * k + cl.out_residue, cl.coeff))
            return pairs

        return cls(row_fn, col_fn, descriptor)

    @classmethod
    def compose(cls, outer: "ReferenceSeqOperator",
                inner: "ReferenceSeqOperator") -> "ReferenceSeqOperator":
        def row_fn(i: int):
            pairs = []
            for mid, c1 in outer.row(i):
                for j, c2 in inner.row(mid):
                    pairs.append((j, c1 * c2))
            return pairs

        def col_fn(j: int):
            pairs = []
            for mid, c1 in inner.col(j):
                for i, c2 in outer.col(mid):
                    pairs.append((i, c1 * c2))
            return pairs

        return cls(row_fn, col_fn, f"{outer.descriptor}∘{inner.descriptor}")
