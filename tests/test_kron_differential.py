"""Tensored integer certificates against the `Fraction` Kronecker product they replaced.

`ProjectionCertificate.kron` multiplies numerators and denominators;
`certificate_reference.FractionCertificate.kron` is the former product of
`Mat`s and `Fraction` weights.  Tensored with ker_N's closed form, both must
give every part the same value, compared by value because integer rows need
not be in lowest terms, and the integer product must pass `check_certificate`
in the zero-sum space.  Needs nothing beyond pytest.
"""

from fractions import Fraction as F
from random import Random

import pytest
from certificate_reference import (
    as_fractions,
    reference_certificate,
    reference_sum_kernel,
)

from projconst.linalg import RankDeficientError, Subspace
from projconst.minproj import check_certificate, projection_certificate
from projconst.zerosum import amplification_factor, sigma_subspace, sum_kernel_certificate


def _rational_space(rng: Random, n: int, k: int) -> Subspace:
    while True:
        try:
            return Subspace.from_rows([[F(rng.randint(-3, 3), rng.randint(1, 3))
                                        for _ in range(n)] for _ in range(k)])
        except RankDeficientError:
            continue


def _has_fractions(cert) -> bool:
    return any(x.denominator > 1 for x in (*cert.coeffs.entries, *cert.dual.entries,
                                            *cert.weights, *cert.restriction.entries))


@pytest.mark.parametrize("copies", range(2, 9))
def test_sum_kernel_closed_forms_agree(copies):
    assert as_fractions(sum_kernel_certificate(copies)) == reference_sum_kernel(copies)


def test_tensored_with_the_sum_kernel_on_seeded_rational_bases():
    rng = Random(20261021)
    with_fractions = 0
    for case in range(24):
        copies = 2 + case % 4
        n = rng.randint(2, 4)
        base = _rational_space(rng, n, n if case % 8 == 7 else rng.randint(1, n - 1))
        cert, want = projection_certificate(base), reference_certificate(base)
        tensored = sum_kernel_certificate(copies).kron(cert)
        assert as_fractions(tensored) == reference_sum_kernel(copies).kron(want)
        check_certificate(sigma_subspace(base, copies).space.integer_basis, tensored)
        assert tensored.value == amplification_factor(copies) * want.value
        with_fractions += _has_fractions(want)
    assert with_fractions >= 20


def test_two_level_nesting():
    base = Subspace.from_rows([[1, F(1, 2), 0], [0, F(-2, 3), 1]])
    level, want = projection_certificate(base), reference_certificate(base)
    assert _has_fractions(want)
    lam, level_basis = want.value, base
    for copies in (3, 2):
        level = sum_kernel_certificate(copies).kron(level)
        want = reference_sum_kernel(copies).kron(want)
        level_basis = sigma_subspace(level_basis, copies).space
        assert as_fractions(level) == want
        check_certificate(level_basis.integer_basis, level)
    # mu_3 * mu_2 = 4/3 * 1
    assert level.value == F(4, 3) * lam


def test_two_solved_certificates():
    e = Subspace.from_rows([[1, F(1, 2), -1]])
    f = Subspace.from_rows([[F(2, 3), 1], [0, 1]])
    tensored = projection_certificate(e).kron(projection_certificate(f))
    assert as_fractions(tensored) == reference_certificate(e).kron(reference_certificate(f))
    check_certificate(Subspace(e.basis.kron(f.basis)).integer_basis, tensored)
