"""Index-map and Kronecker block constructions against the code they replaced.

`extract_r` must return the decomposition of the former dense `extract_r`
(`blocks_reference.reference_extract_r`), whose blocks a and b, read on
access, are the ones the reference reads itself, or raise the same
exception type, on symmetrized projections, on mutants built to fail each
of its checks, and on seeded random block pairs.  The
Kronecker-product zero-sum spaces, sum kernels, centring maps and witnesses
must equal the former index loops entry for entry.
"""

from fractions import Fraction as F
from random import Random

import pytest
from blocks_reference import (
    reference_centring_projection,
    reference_centring_witness,
    reference_coordinate_sum_kernel,
    reference_extract_r,
    reference_sigma_subspace,
)

from linalg_reference import entry, identity, integer_add, integer_scale, rows_of, zeros

from projconst.linalg import Mat, Subspace, invert_square
from projconst.minproj import feasible_perturbation
from projconst.zerosum import (
    DecompositionIntegrityError,
    NotSymmetrizedError,
    SymmetrizationDecomposition,
    centring_projection,
    centring_witness,
    coordinate_sum_kernel,
    extract_r,
    random_projection_onto,
    sigma_subspace,
    symmetrize,
)


def random_mat(rng: Random, size: int) -> Mat:
    return Mat.from_rows([[F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(size)]
                          for _ in range(size)])


def outcome(base: Subspace, copies: int, m: Mat):
    """The decompositions, or exception types, of both implementations.

    Where both decompose, the blocks a and b that the reference reads
    itself must be the decomposition's."""
    try:
        new = extract_r(m, base, copies)
    except ValueError as exc:
        new = type(exc)
    try:
        old, a, b = reference_extract_r(m, base, copies)
    except ValueError as exc:
        old = type(exc)
    else:
        if new == old:
            assert (new.a, new.b) == (a, b)
    return [new, old]


def from_blocks(a: Mat, b: Mat, n: int) -> Mat:
    """The permutation-invariant matrix with `a` on every diagonal block and `b` elsewhere."""
    d = a.rows
    return Mat.from_rows([[entry(a if i == j else b, r, c) for j in range(n) for c in range(d)]
                          for i in range(n) for r in range(d)])


def with_blocks_swapped(m: Mat, d: int, first: tuple[int, int], second: tuple[int, int]) -> Mat:
    rows = rows_of(m)
    for r in range(d):
        for c in range(d):
            (i, j), (k, l) = first, second
            rows[i * d + r][j * d + c], rows[k * d + r][l * d + c] = (
                rows[k * d + r][l * d + c], rows[i * d + r][j * d + c])
    return Mat.from_rows(rows)


def invariant(r: Mat, n: int) -> Mat:
    """lift(r) o centring: blocks (1 - 1/N) r on the diagonal and -r/N off it."""
    return from_blocks(integer_scale(r, F(n - 1, n)), integer_scale(r, F(-1, n)), n)


BASES = [
    Subspace.from_rows([[1]]),
    Subspace.from_rows([[1, 0], [0, 1]]),
    Subspace.from_rows([[1, 2]]),
    Subspace.from_rows([[1, 0, -1], [0, 1, 1]]),
]


@pytest.mark.parametrize("base", BASES, ids=["line", "plane", "line-in-plane", "plane-in-3"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_extract_r_matches_dense_reference(base, n):
    d = base.ambient_dim
    rng = Random(10 * d + n + base.dim)
    zs = sigma_subspace(base, n)
    for _ in range(3):
        p = random_projection_onto(zs, rng)
        p_tilde = symmetrize(p, d, n)
        new, old = outcome(base, n, p_tilde)
        assert new == old
        r = new.r

        # the raw projection, one entry changed, and block swaps
        new, old = outcome(base, n, p)
        assert new == old
        k, l = rng.randrange(d * n), rng.randrange(d * n)
        rows = rows_of(p_tilde)
        rows[k][l] += 1
        new, old = outcome(base, n, Mat.from_rows(rows))
        assert new == old == NotSymmetrizedError
        new, old = outcome(base, n, with_blocks_swapped(p, d, (0, 0), (1, 1)))
        assert new == old
        new, old = outcome(base, n, with_blocks_swapped(p_tilde, d, (0, 0), (1, 1)))
        assert new == old and isinstance(new, SymmetrizationDecomposition)
        new, old = outcome(base, n, with_blocks_swapped(p_tilde, d, (0, 0), (1, 0)))
        assert new == old == NotSymmetrizedError

        # invariant matrices that break the trace, idempotence, or the base
        a, b = integer_scale(r, F(n - 1, n)), integer_scale(r, F(-1, n))
        new, old = outcome(base, n, from_blocks(integer_add(a, identity(d)), b, n))
        assert new == old == DecompositionIntegrityError
        new, old = outcome(base, n, invariant(integer_scale(r, 2), n))
        assert new == old == DecompositionIntegrityError


def random_projection(base: Subspace, rng: Random) -> Mat:
    """A random exact projection of ell_inf^d onto `base`: B^T C with C B^T = I."""
    g = base.basis
    c0 = invert_square(g @ g.transpose()) @ g
    return g.transpose() @ feasible_perturbation(base, c0, rng)


@pytest.mark.parametrize("base", BASES, ids=["line", "plane", "line-in-plane", "plane-in-3"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_random_block_pairs(base, n):
    # a on every diagonal block and b elsewhere: b random, b = -a/(N-1) with
    # a random (the trace holds, r rarely projects), or a = (1 - 1/N) r with
    # r a random projection onto the base (a genuine decomposition)
    d = base.ambient_dim
    rng = Random(1000 + 10 * d + n + base.dim)
    decomposed = 0
    for trial in range(12):
        a = random_mat(rng, d)
        if trial % 3 == 0:
            b = random_mat(rng, d)
        elif trial % 3 == 1:
            b = integer_scale(a, F(-1, n - 1))
        else:
            r = random_projection(base, rng)
            a, b = integer_scale(r, F(n - 1, n)), integer_scale(r, F(-1, n))
        new, old = outcome(base, n, from_blocks(a, b, n))
        assert new == old
        decomposed += isinstance(new, SymmetrizationDecomposition)
    assert decomposed >= 4
    # lift(r) for a projection r onto the base: for N = 2 the norm identity
    # reads norm(r) = norm(r), so only the trace condition rejects it
    lift = from_blocks(random_projection(base, rng), zeros(d, d), n)
    assert outcome(base, n, lift) == [DecompositionIntegrityError] * 2


@pytest.mark.parametrize("n", [2, 3, 4])
def test_block_map_outside_the_base(n):
    plane = Subspace.from_rows([[1, 0], [0, 1]])
    line = Subspace.from_rows([[1, 1]])
    first = Mat.from_rows([[1, 0], [0, 0]])
    # r = identity is idempotent and fixes the line, but its range leaves it
    assert outcome(line, n, invariant(identity(2), n)) == [DecompositionIntegrityError] * 2
    # r = first-coordinate projection moves the line
    assert outcome(line, n, invariant(first, n)) == [DecompositionIntegrityError] * 2
    # over the subspaces they project onto, both are genuine decompositions
    for base, r in ((plane, identity(2)), (Subspace.from_rows([[1, 0]]), first)):
        new, old = outcome(base, n, invariant(r, n))
        assert new == old and new.r == r


def test_shape_and_copy_errors():
    line = Subspace.from_rows([[1]])
    assert outcome(line, 2, identity(3)) == [ValueError] * 2
    assert outcome(line, 1, identity(1)) == [ValueError] * 2
    rng = Random(7)
    for _ in range(20):
        assert outcome(line, 3, random_mat(rng, 3)) == [NotSymmetrizedError] * 2


KRON_BASES = [
    Subspace.from_rows([[1]]),
    Subspace.from_rows([["-2/3"]]),
    Subspace.from_rows([[1, 2]]),
    Subspace.from_rows([["1/2", "-3/5"], [0, 7]]),
    Subspace.from_rows([[1, 0, -1], [0, 1, 1]]),
    Subspace.from_rows([["3/4", 0, "-5/2"]]),
    Subspace.from_rows([[1, "1/3", 0], [0, "-2/7", 4], [2, 0, "9/5"]]),
]


@pytest.mark.parametrize("n", range(2, 13))
def test_kron_constructions_match_the_former_loops(n):
    for base in KRON_BASES:
        new, old = sigma_subspace(base, n).space, reference_sigma_subspace(base, n)
        assert new == old
        assert new.basis.entries == old.basis.entries
    assert coordinate_sum_kernel(n) == reference_coordinate_sum_kernel(n)
    for d in (1, 2, 3):
        assert centring_projection(d, n) == reference_centring_projection(d, n)
        assert centring_witness(d, n) == reference_centring_witness(d, n)


def raised(fn, *args) -> str:
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


@pytest.mark.parametrize("d, n", [(0, 3), (2, 1), (0, 1), (1, 0)])
def test_kron_constructions_reject_what_the_loops_rejected(d, n):
    for new, old in ((centring_projection, reference_centring_projection),
                     (centring_witness, reference_centring_witness)):
        assert raised(new, d, n) == raised(old, d, n)
    if n < 2:
        assert raised(coordinate_sum_kernel, n) == raised(reference_coordinate_sum_kernel, n)
        line = Subspace.from_rows([[1]])
        assert raised(sigma_subspace, line, n) == raised(reference_sigma_subspace, line, n)
