"""Integer-built certificates against the `Fraction`-built ones they replaced.

`minproj` reads C and the slack duals off the simplex's integer readout and
builds W, w and Lambda = B W C^T as integer rows; `certificate_reference`
builds them from the solver's `Fraction` views with `Mat` products, as the
module did before.  Every part must have the same value on both sides, and
`projection_constant` must form no matrix product at all and convert no
`Fraction` to numerators (`Mat.from_rows`).  Needs nothing beyond pytest.
"""

from fractions import Fraction as F
from pathlib import Path
from random import Random

import pytest
from certificate_reference import as_fractions, reference_certificate

from projconst import linalg
from projconst.cli import load_subspace_document
from projconst.linalg import Mat, RankDeficientError, Subspace
from projconst.minproj import projection_certificate, projection_constant
from projconst.zerosum import coordinate_sum_kernel

GOLDEN = Path(__file__).parent / "golden"
FULL_PLANE = [[1, 2], [0, 3]]


def assert_same_certificate(space: Subspace):
    # by value: the integer parts need not be in lowest terms
    got = projection_certificate(space)
    assert as_fractions(got) == reference_certificate(space)
    value, (c, dc), (dual, dd), (w, dw), (lam, dl) = got
    assert type(value) is F
    assert all(type(x) is int for x in [dc, dd, dw, dl, *w, *sum(c + dual + lam, [])])
    return as_fractions(got)


@pytest.mark.parametrize("space", [
    *(coordinate_sum_kernel(n) for n in range(2, 9)),
    *(load_subspace_document(str(GOLDEN / f"{name}.json"))
      for name in ("diag3", "ker3", "rational5")),
    Subspace.from_rows(FULL_PLANE),
], ids=[*(f"ker{n}" for n in range(2, 9)), "diag3", "ker3-doc", "rational5", "full-plane"])
def test_identical_certificates(space):
    assert_same_certificate(space)


def test_identical_certificates_on_seeded_rational_subspaces():
    # entries over denominators up to 3, so C, the slack duals and Lambda
    # are over denominators above 1 and the integer rows are scaled
    rng = Random(20261020)
    seen = {"den > 1": 0, "lambda > 1": 0, "full": 0}
    cases = 0
    while cases < 48:
        n = rng.randint(2, 5)
        k = n if rng.random() < 0.1 else rng.randint(1, n - 1)
        try:
            space = Subspace.from_rows([[F(rng.randint(-3, 3), rng.randint(1, 3))
                                         for _ in range(n)] for _ in range(k)])
        except RankDeficientError:
            continue
        cert = assert_same_certificate(space)
        cases += 1
        dens = [x.denominator for x in (*cert.coeffs.entries, *cert.dual.entries,
                                         *cert.weights, *cert.restriction.entries)]
        seen["den > 1"] += max(dens) > 1
        seen["lambda > 1"] += cert.value > 1
        seen["full"] += k == n
    assert seen["den > 1"] >= 40 and seen["lambda > 1"] >= 10 and seen["full"] >= 2, seen


@pytest.mark.parametrize("space", [
    coordinate_sum_kernel(4),
    Subspace.from_rows([[1, F(1, 2), 0, -2, F(3, 4)], [0, 1, F(-2, 3), 1, 1]]),
    Subspace.from_rows(FULL_PLANE),
], ids=["ker4", "rational5x2", "full-plane"])
def test_projection_constant_forms_no_fraction_product(monkeypatch, space):
    # the certificate is built and checked in integer rows, and the result's
    # C is a `Mat` of them, so nothing is converted; only a caller that asks
    # for result.projection forms B^T C as a `Mat` product
    calls, conversions = [], []
    compose, from_rows = linalg.mat_compose, Mat.from_rows.__func__

    def counted(a, b):
        calls.append((a.rows, a.cols, b.cols))
        return compose(a, b)

    def counted_from_rows(cls, rows):
        conversions.append(len(rows))
        return from_rows(cls, rows)

    monkeypatch.setattr(linalg, "mat_compose", counted)
    monkeypatch.setattr(Mat, "from_rows", classmethod(counted_from_rows))
    result = projection_constant(space)
    assert calls == conversions == []
    result.projection
    assert len(calls) == 1 and conversions == []
