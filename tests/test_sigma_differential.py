"""Tensored certificates against full-space LP solves of the zero-sum levels.

`sigma_steps` proves lambda(Sigma_N^k(E)) by tensoring the base's LP
certificate with the closed form of ker_N and checking the result in
ell_inf^{d N^k}; `sigma_reference.sigma_steps_by_lp` solves each level's
own program there.  Both must give the same value on every level, and the
tensored side may solve no LP above the base.  Needs nothing beyond pytest.
"""

from random import Random

import pytest
from sigma_reference import sigma_steps_by_lp

from projconst import minproj
from projconst.acceptance import _law_instances
from projconst.linalg import RankDeficientError, Subspace
from projconst.minproj import projection_certificate
from projconst.zerosum import amplification_factor, coordinate_sum_kernel, sigma_steps


def tensored_levels(monkeypatch, base: Subspace, copies: int, steps: int) -> list:
    """The levels of `sigma_steps`, asserting that only the base solves an LP."""
    solves = []
    solve = minproj.solve_linear_program

    def counted(program):
        solves.append(program.num_vars)
        return solve(program)

    with monkeypatch.context() as patch:
        patch.setattr(minproj, "solve_linear_program", counted)
        certificate = projection_certificate(base)
        base_solves = len(solves)
        assert base_solves == (base.dim < base.ambient_dim)
        levels = list(sigma_steps(base, certificate, copies, steps))
        assert len(solves) == base_solves, "a level above the base solved an LP"
    return levels


def _random_space(rng: Random, n: int, k: int) -> Subspace:
    while True:
        try:
            return Subspace.from_rows([[rng.randint(-3, 3) for _ in range(n)]
                                       for _ in range(k)])
        except RankDeficientError:
            continue


# (d, dim E, N, steps) of the seeded bases: every level lies in ell_inf^12
# or below and inside the default LP budget
SEEDED_SHAPES = ((2, 1, 2, 1), (2, 1, 3, 1), (2, 1, 4, 1), (2, 1, 2, 2),
                 (3, 1, 2, 1), (3, 2, 2, 1), (3, 1, 3, 1), (3, 1, 4, 1),
                 (3, 1, 2, 2), (4, 1, 2, 1), (4, 2, 2, 1), (4, 1, 3, 1),
                 (4, 3, 2, 1), (5, 1, 2, 1), (5, 2, 2, 1), (6, 1, 2, 1))


def _instances():
    cases = [pytest.param(coordinate_sum_kernel(3), 3, 1, id="sigma3-ker3-in-ell_inf^9"),
             pytest.param(Subspace.from_rows([[1, 2], [0, 3]]), 3, 1, id="full-plane-N3"),
             pytest.param(Subspace.from_rows([[1]]), 2, 3, id="line-N2x3")]
    cases += [pytest.param(base, copies, 1, id=f"law:{name}")
              for name, base, copies in _law_instances()]
    rng = Random(20261019)
    cases += [pytest.param(_random_space(rng, d, k), copies, steps,
                           id=f"seeded{i}:d{d}k{k}N{copies}x{steps}")
              for i, (d, k, copies, steps) in enumerate(SEEDED_SHAPES)]
    return cases


@pytest.mark.parametrize("base, copies, steps", _instances())
def test_tensored_levels_equal_full_space_solves(monkeypatch, base, copies, steps):
    levels = tensored_levels(monkeypatch, base, copies, steps)
    assert levels == list(sigma_steps_by_lp(base, copies, steps))
    lam = projection_certificate(base).value
    assert levels == [(base.ambient_dim * copies ** k, amplification_factor(copies) ** k * lam)
                      for k in range(1, steps + 1)]

