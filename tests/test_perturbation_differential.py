"""The integer `feasible_perturbation` against its former `Fraction` self.

`perturbation_reference.feasible_perturbation` is the former version.  On
seeded subspaces with integer and rational bases, on zero-sum spaces
Sigma_N(E) and on full-dimensional spaces, both must return the same matrix
(the reference at the package's one spread, 2) from generators seeded
alike, and leave them in the same state, so that
`zerosum.random_projection_onto` returns the projection it returned before.
Needs nothing beyond pytest.
"""

from collections import Counter
from fractions import Fraction as F
from random import Random

import pytest
from linalg_reference import identity
from perturbation_reference import feasible_perturbation as reference

from projconst.linalg import Mat, RankDeficientError, Subspace, invert_square
from projconst.minproj import feasible_perturbation, projection_constant
from projconst.zerosum import coordinate_sum_kernel, random_projection_onto, sigma_subspace


def _random_space(rng: Random, n: int, k: int, rational: bool) -> Subspace:
    while True:
        rows = [[F(rng.randint(-3, 3), rng.randint(1, 4) if rational else 1)
                 for _ in range(n)] for _ in range(k)]
        try:
            return Subspace.from_rows(rows)
        except RankDeficientError:
            continue


def _base_solution(space: Subspace) -> Mat:
    b = space.basis
    return invert_square(b @ b.transpose()) @ b


def _assert_same(space: Subspace, coeffs: Mat, seed: str) -> Mat:
    new_rng, old_rng = Random(seed), Random(seed)
    got = feasible_perturbation(space, coeffs, new_rng)
    want = reference(space, coeffs, old_rng, 2)
    assert got == want
    assert new_rng.getstate() == old_rng.getstate()
    assert new_rng.random() == old_rng.random()
    return got


def test_seeded_subspaces_with_integer_and_rational_bases():
    seen = Counter()
    for trial in range(60):
        rng = Random(f"perturbation differential {trial}")
        n = rng.randint(2, 6)
        k = rng.randint(1, n)
        space = _random_space(rng, n, k, rational=trial % 2 == 1)
        got = _assert_same(space, _base_solution(space), f"draws {trial}")
        assert got @ space.basis.transpose() == identity(k)
        seen["rational"] += space.basis.den > 1
        seen["full"] += k == n
        seen["moved"] += got != _base_solution(space)
    assert min(seen.values()) >= 3, seen


@pytest.mark.parametrize("d, copies", [(1, 2), (1, 4), (2, 3), (3, 2)])
def test_zero_sum_spaces(d, copies):
    for trial in range(6):
        rng = Random(f"perturbation sigma {d} {copies} {trial}")
        base = _random_space(rng, d, rng.randint(1, d), rational=trial % 2 == 1)
        space = sigma_subspace(base, copies).space
        _assert_same(space, _base_solution(space), f"sigma draws {trial}")


def test_from_the_lp_minimizer_and_on_the_kernel_hyperplanes():
    for n in range(2, 6):
        space = coordinate_sum_kernel(n)
        _assert_same(space, projection_constant(space).minimizer_c, f"ker {n}")


def test_random_projection_onto_draws_as_before():
    # the same projection and the same next draw as through the former perturbation
    for d, copies in ((1, 3), (2, 2), (2, 4)):
        zs = sigma_subspace(Subspace.from_rows([[1, F(1, 2)][:d]]), copies)
        new_rng, old_rng = Random(d * copies), Random(d * copies)
        p = random_projection_onto(zs, new_rng)
        g = zs.space.basis
        q = g.transpose() @ reference(zs.space, _base_solution(zs.space), old_rng, 2)
        assert p == q and new_rng.random() == old_rng.random()
