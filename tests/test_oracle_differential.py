"""Differential tests: the batched float oracle against the former per-restart loop.

`oracle_reference.reference_restart_bests` runs the restarts one at a time
in a Python loop.  The batched descent advances them together, and its
stacked products must round exactly as the loop's, so the per-restart bests
must agree bit for bit: on ker_2..ker_16, the selftest's multiplication-law
instances and their zero-sum spaces, the benchmark's oracle inputs, a line,
a plane whose first restart stops at once, the n = k short-circuit, seeded
random subspaces and seeded hyperplanes ker f (where the verdict, value or
inconclusive message, must also agree) and small restart and iteration
budgets.  With n - k = 1 the descent forms its rank-one products with
np.multiply, so the hyperplanes with non-symmetric integer f, zeros among
them, test that branch beyond ker_n.
"""

from random import Random

import pytest
from linalg_reference import kernel_fractions
from oracle_reference import reference_restart_bests, reference_verdict

from projconst.acceptance import _law_instances
from projconst.linalg import Subspace, kernel_basis, rank_of_rows
from projconst.minproj import OracleConfig, OracleInconclusive, _restart_bests, float_oracle
from projconst.zerosum import coordinate_sum_kernel, sigma_subspace

RANDOM_SPACES = 30
RANDOM_ITERATIONS = 500
HYPERPLANES = 30


def bits(values: list[float]) -> list[str]:
    return [v.hex() for v in values]


def assert_same_bests(space: Subspace, config: OracleConfig) -> list[float]:
    expected = reference_restart_bests(space, config)
    assert bits(_restart_bests(space, config)) == bits(expected)
    return expected


def verdict(call):
    try:
        return call()
    except OracleInconclusive as exc:
        return str(exc)


def random_space(rng: Random) -> Subspace:
    n = rng.randint(3, 8)
    k = rng.randint(1, n - 1)
    while True:
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        if rank_of_rows(rows) == k:
            return Subspace.from_rows(rows)


def random_hyperplane(rng: Random) -> Subspace:
    """ker f in ell_inf^n for an integer f with entries of at least two absolute values."""
    n = rng.randint(3, 10)
    while True:
        f = [rng.randint(-5, 5) for _ in range(n)]
        if len({abs(x) for x in f}) > 1 and sum(x != 0 for x in f) >= 2:
            return Subspace.from_rows(kernel_fractions(kernel_basis([f])))


def law_spaces():
    for name, base, copies in _law_instances():
        yield pytest.param(base, id=f"base of {name}")
        yield pytest.param(sigma_subspace(base, copies).space, id=f"sigma of {name}")


@pytest.mark.parametrize("n", range(2, 17))
def test_kernels(n):
    assert_same_bests(coordinate_sum_kernel(n), OracleConfig())


@pytest.mark.parametrize("space", law_spaces())
def test_law_instances(space):
    assert_same_bests(space, OracleConfig(seed=3))


# The no-lp benchmark workload's four oracle spaces, at 31-bit seeds like the
# ones it draws.
@pytest.mark.parametrize("space, seed", [
    pytest.param(coordinate_sum_kernel(2), 1_893_775_404, id="ker2"),
    pytest.param(coordinate_sum_kernel(9), 2_147_483_647, id="ker9"),
    pytest.param(coordinate_sum_kernel(16), 905_226_137, id="ker16"),
    pytest.param(sigma_subspace(coordinate_sum_kernel(3), 3).space, 407_941_312,
                 id="sigma3-ker3"),
])
def test_benchmark_inputs(space, seed):
    assert_same_bests(space, OracleConfig(seed=seed))


@pytest.mark.parametrize("rows", [
    # the diagonal line: at Theta = 0 the gradient is ~1e-16 off zero
    pytest.param([[1, 1]], id="line"),
    # span{e1, e2 + e3}: at Theta = 0 the gradient is exactly zero, so
    # restart 0 stops after one step while the others keep moving
    pytest.param([[1, 1, 1], [1, 0, 0]], id="plane-stops-at-once"),
])
def test_vanishing_gradient(rows):
    space = Subspace.from_rows(rows)
    bests = assert_same_bests(space, OracleConfig())
    assert assert_same_bests(space, OracleConfig(restarts=1)) == bests[:1]


def test_full_dimension_short_circuit():
    space = Subspace.from_rows([[2, 0], [0, 3]])
    assert assert_same_bests(space, OracleConfig()) == [1.0]


def test_random_subspaces():
    rng = Random(2024)
    verdicts = []
    for seed in range(RANDOM_SPACES):
        space = random_space(rng)
        config = OracleConfig(seed=seed, iterations=RANDOM_ITERATIONS)
        bests = assert_same_bests(space, config)
        expected = verdict(lambda: reference_verdict(bests))
        got = verdict(lambda: float_oracle(space, config=config))
        assert got == expected, seed
        verdicts.append(type(got))
    # both outcomes occur, so the inconclusive messages are compared too
    assert {float, str} <= set(verdicts)


def test_random_hyperplanes():
    rng = Random(1974)
    verdicts = []
    for seed in range(HYPERPLANES):
        space = random_hyperplane(rng)
        assert space.ambient_dim - space.dim == 1
        config = OracleConfig(seed=seed, iterations=RANDOM_ITERATIONS)
        bests = assert_same_bests(space, config)
        expected = verdict(lambda: reference_verdict(bests))
        got = verdict(lambda: float_oracle(space, config=config))
        assert got == expected, seed
        verdicts.append(type(got))
    assert {float, str} <= set(verdicts)


@pytest.mark.parametrize("restarts", [1, 2])
@pytest.mark.parametrize("iterations", [1, 500])
@pytest.mark.parametrize("space", [
    pytest.param(coordinate_sum_kernel(3), id="ker3"),
    pytest.param(Subspace.from_rows([[1, 2, 0, -1], [0, 1, 3, 1]]), id="random-4x2"),
    pytest.param(sigma_subspace(Subspace.from_rows([[1, 1]]), 2).space, id="sigma2-line"),
])
def test_small_budgets(space, restarts, iterations):
    assert_same_bests(space, OracleConfig(seed=7, restarts=restarts, iterations=iterations))
