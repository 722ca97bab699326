"""The acceptance gate: every shipped claim, one test per criterion.

Run with -v (or -s to see the detail lines) to get a pass/fail line per
criterion; the same registry backs `projconst selftest`.
"""

import pytest

from projconst import acceptance, linalg, zerosum
from projconst.acceptance import CRITERIA, FAULT_ENV, Context, CriterionFailure, run_all


def test_registry_is_complete():
    keys = [c.key for c in CRITERIA]
    assert len(keys) == len(set(keys))
    assert len(keys) == 11


def test_run_all_reports_every_criterion():
    results = run_all(Context(), only={"centring-witness"})
    assert [r.key for r in results] == ["centring-witness"]
    assert results[0].passed
    doc = results[0].to_json_dict()
    assert doc["key"] == "centring-witness"
    assert doc["passed"] is True


def test_oracle_agreement_takes_a_negative_seed():
    [result] = run_all(Context(seed=-1), only={"oracle-agreement"})
    assert result.passed, result.to_json_dict()


@pytest.mark.parametrize("criterion", CRITERIA, ids=[c.key for c in CRITERIA])
def test_criterion(criterion):
    try:
        detail = criterion.run(Context())
    except CriterionFailure as exc:
        print(f"[FAIL] {criterion.key}: {exc}")
        pytest.fail(f"{criterion.key}: {exc}")
    print(f"[PASS] {criterion.key}: {detail}")


@pytest.mark.parametrize("criterion", CRITERIA, ids=[c.key for c in CRITERIA])
def test_fault_fails_its_own_criterion(criterion, monkeypatch):
    # negative control: the corrupted constant must fail the criterion's own
    # comparison, which raises CriterionFailure rather than some other error
    monkeypatch.setenv(FAULT_ENV, criterion.key)
    with pytest.raises(CriterionFailure):
        criterion.run(Context())
    [result] = run_all(Context(), only={criterion.key})
    assert not result.passed


def test_multiplication_law_fault_fails_a_named_dual_check(monkeypatch):
    # the key corrupts ker_N's dual W, not the expected constant: the
    # tensored certificate's check must fail, and name the failed check
    monkeypatch.setenv(FAULT_ENV, "multiplication-law")
    [result] = run_all(Context(), only={"multiplication-law"})
    assert not result.passed
    assert result.detail == ("SolverIntegrityError: certificate check 'B W = Lambda B' fails: "
                             "W does not act on E as Lambda (scalar line, N=3)")


def test_symmetrization_fails_without_averaging(monkeypatch):
    # negative control for the invariance check: an unaveraged projection is
    # still a projection with no larger norm, but extract_r must reject it
    monkeypatch.setattr("projconst.acceptance.symmetrize", lambda p, d, n: p)
    [result] = run_all(Context(), only={"symmetrization"})
    assert not result.passed
    assert "NotSymmetrizedError" in result.detail


def test_symmetrization_takes_each_norm_once(monkeypatch):
    # per draw: the norm of p in the criterion, and those of p_tilde and r
    # inside extract_r, which the decomposition carries; 60 draws in all
    calls = []

    def counted(m):
        calls.append(m)
        return linalg.inf_op_norm(m)

    for module in (acceptance, zerosum):
        monkeypatch.setattr(module, "inf_op_norm", counted)
    [result] = run_all(Context(), only={"symmetrization"})
    assert result.passed
    assert len(calls) == 3 * 60
