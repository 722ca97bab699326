"""End-to-end command tests, run in process through `main(argv)`.

Each command must put exactly one JSON payload on stdout and one run-report
line on stderr, and identical inputs must produce byte-identical stdout.
"""

import json
import sys

import pytest
from pivot_limits import fewest_pivots

from projconst import simplex, zerosum
from projconst.cli import entry_point, load_subspace_document, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def payload(out: str) -> dict:
    return json.loads(out)


def report(err: str) -> dict:
    return json.loads(err.strip().splitlines()[-1])


@pytest.fixture
def kernel3(tmp_path):
    doc = {"ambient_dim": 3, "basis": [["1", "-1", "0"], ["0", "1", "-1"]]}
    path = tmp_path / "kernel3.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def kernel5(tmp_path):
    basis = [["0"] * 5 for _ in range(4)]
    for i in range(4):
        basis[i][i], basis[i][i + 1] = "1", "-1"
    doc = {"ambient_dim": 5, "basis": basis}
    path = tmp_path / "kernel5.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def scalar_line(tmp_path):
    path = tmp_path / "line.json"
    path.write_text(json.dumps({"ambient_dim": 1, "basis": [["1"]]}))
    return str(path)


class TestMinproj:
    def test_happy_path(self, capsys, kernel3):
        code, out, err = run(capsys, "minproj", kernel3)
        assert code == 0
        doc = payload(out)
        assert doc["lambda"] == "4/3"
        assert doc["attained"] is True
        assert len(doc["projection"]) == 3
        rep = report(err)
        assert rep["command"] == "minproj"
        assert rep["status"] == "ok"
        assert isinstance(rep["wall_time_ms"], int)
        assert len(rep["inputs_digest"]) == 64

    def test_stdout_is_deterministic(self, capsys, kernel3):
        _, first, _ = run(capsys, "minproj", kernel3)
        _, second, _ = run(capsys, "minproj", kernel3)
        assert first == second

    def test_oracle_agreement(self, capsys, kernel3):
        code, out, _ = run(capsys, "minproj", kernel3, "--oracle")
        assert code == 0
        doc = payload(out)
        assert doc["oracle"]["agrees"] is True
        assert abs(doc["oracle"]["estimate"] - 4 / 3) <= doc["oracle"]["tol"]

    def test_oracle_takes_a_negative_seed(self, capsys, kernel3):
        code, out, err = run(capsys, "--seed", "-1", "minproj", kernel3, "--oracle")
        assert code == 0, err
        assert payload(out)["oracle"]["agrees"] is True

    def test_budget_exceeded(self, capsys, kernel3):
        code, _, err = run(capsys, "--budget", "2", "minproj", kernel3)
        assert code == 5
        assert report(err)["status"] == "inconclusive"

    def test_custom_budget_pair(self, capsys, kernel3):
        code, _, _ = run(capsys, "--budget", "3,2", "minproj", kernel3)
        assert code == 0

    def test_pivot_limit_is_inconclusive(self, capsys, monkeypatch, kernel3):
        monkeypatch.setattr(simplex, "PIVOT_LIMIT", 1)
        code, out, err = run(capsys, "minproj", kernel3)
        assert code == 5
        assert out == ""
        assert report(err)["status"] == "inconclusive"


class TestInputValidation:
    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "minproj", str(tmp_path / "nope.json"))
        assert code == 2
        assert "error:" in err

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run(capsys, "minproj", str(path))[0] == 2

    def test_missing_keys(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"basis": [["1"]]}))
        assert run(capsys, "minproj", str(path))[0] == 2

    def test_bad_rational(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"ambient_dim": 1, "basis": [["1.5"]]}))
        code, _, err = run(capsys, "minproj", str(path))
        assert code == 2
        assert err.splitlines()[0] == "error: malformed rational literal '1.5'"

    def test_boolean_ambient_dim(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"ambient_dim": True, "basis": [["1"]]}))
        code, _, err = run(capsys, "minproj", str(path))
        assert code == 2
        assert report(err)["status"] == "error"

    def test_ragged_rows(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"ambient_dim": 2, "basis": [["1"], ["1", "2"]]}))
        assert run(capsys, "minproj", str(path))[0] == 2

    def test_rows_shorter_than_ambient_dim(self, capsys, tmp_path):
        # every row has the same length, but not the document's ambient_dim
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"ambient_dim": 3, "basis": [["1", "0"], ["0", "1"]]}))
        code, _, err = run(capsys, "minproj", str(path))
        assert code == 2
        assert err.splitlines()[0] == "error: basis rows must all have length 3"

    def test_rank_deficient(self, capsys, tmp_path):
        path = tmp_path / "dependent.json"
        path.write_text(json.dumps(
            {"ambient_dim": 2, "basis": [["1", "1"], ["2", "2"]]}))
        code, _, err = run(capsys, "minproj", str(path))
        assert code == 3
        assert report(err)["status"] == "error"

    def test_bad_budget_string(self, capsys, kernel3):
        assert run(capsys, "--budget", "a,b", "minproj", kernel3)[0] == 2

    def test_empty_budget_is_malformed_not_the_default(self, capsys, kernel3):
        code, out, err = run(capsys, "--budget", "", "zerosum", kernel3, "--copies", "2")
        assert code == 2
        assert out == ""
        assert "budget must be 'AMBIENT' or 'AMBIENT,DIM', got ''" in err
        assert report(err)["status"] == "error"

    @pytest.mark.parametrize("budget", ["--budget=0", "--budget=3,0", "--budget=-1"])
    def test_nonpositive_budget(self, capsys, kernel3, budget):
        code, out, err = run(capsys, budget, "minproj", kernel3)
        assert code == 2
        assert out == ""
        assert report(err)["status"] == "error"

    @pytest.mark.parametrize("flags", [
        *(pytest.param(["--oracle", "--tol", tol], id=tol) for tol in ["-1", "0", "nan", "inf"]),
        pytest.param(["--tol", "nan"], id="nan-without-oracle"),
    ])
    def test_oracle_tolerance_must_be_finite_and_positive(self, capsys, kernel3, flags):
        code, out, err = run(capsys, "minproj", kernel3, *flags)
        assert code == 2
        assert out == ""
        assert report(err)["status"] == "error"

    def test_usage_errors(self, capsys):
        assert main([]) == 2
        capsys.readouterr()
        assert main(["frobnicate"]) == 2
        capsys.readouterr()


class TestZerosum:
    def test_law_holds(self, capsys, scalar_line):
        code, out, _ = run(capsys, "zerosum", scalar_line, "--copies", "3")
        assert code == 0
        doc = payload(out)
        assert doc["equal"] is True
        assert doc["sigma_lambda"] == "4/3"
        assert doc["mu_N"] == "4/3"
        assert doc["N"] == 3

    @pytest.mark.parametrize("copies", ["1", "0"])
    def test_copies_out_of_range(self, capsys, scalar_line, copies):
        assert run(capsys, "zerosum", scalar_line, "--copies", copies)[0] == 2

    def test_more_than_six_copies(self, capsys, scalar_line):
        code, out, _ = run(capsys, "zerosum", scalar_line, "--copies", "7")
        assert code == 0
        doc = payload(out)
        assert doc["sigma_lambda"] == "12/7"
        assert doc["equal"] is True

    def test_budget_is_checked_before_the_space_is_built(
            self, capsys, monkeypatch, scalar_line):
        def refuse(*args):
            raise AssertionError("zero-sum space built beyond the budget")

        monkeypatch.setattr(zerosum, "sigma_subspace", refuse)
        code, out, _ = run(capsys, "zerosum", scalar_line, "--copies", "100000")
        assert code == 5
        doc = payload(out)
        assert (doc["status"], doc["base_lambda"], doc["ambient_dim"]) == (
            "inconclusive", "1", 100000)

    def test_pivot_limit_on_the_base(self, capsys, monkeypatch, kernel3):
        monkeypatch.setattr(simplex, "PIVOT_LIMIT", 1)
        code, out, err = run(capsys, "zerosum", kernel3, "--copies", "2")
        assert code == 5
        doc = payload(out)
        assert (doc["status"], doc["base_lambda"]) == ("inconclusive", None)
        assert report(err)["status"] == "inconclusive"

    def test_pivot_limit_on_the_zero_sum_side(self, capsys, monkeypatch,
                                              scalar_line):
        # the line needs no LP and the zero-sum side ker_3 = Sigma_3(line) is
        # proven by a tensored certificate, so no pivot limit can stop either
        monkeypatch.setattr(simplex, "PIVOT_LIMIT", 1)
        code, out, _ = run(capsys, "zerosum", scalar_line, "--copies", "3")
        assert code == 0
        doc = payload(out)
        assert (doc["status"], doc["base_lambda"], doc["sigma_lambda"]) == (
            "ok", "1", "4/3")

    def test_budget_inconclusive(self, capsys, kernel3):
        # the amplified side lives in ell_inf^6, beyond this budget
        code, out, err = run(capsys, "--budget", "3", "zerosum", kernel3,
                             "--copies", "2")
        assert code == 5
        assert payload(out)["status"] == "inconclusive"
        assert report(err)["status"] == "inconclusive"


class TestPlan:
    def test_plain_plan(self, capsys):
        code, out, _ = run(capsys, "plan", "--lambda", "3")
        assert code == 0
        doc = payload(out)
        assert (doc["m"], doc["N"], doc["alpha"]) == (1, 5, "15/8")
        assert doc["schedule"][-1]["lambda_k"] == "3"

    def test_no_amplification_needed(self, capsys):
        code, out, _ = run(capsys, "plan", "--lambda", "3/2")
        assert code == 0
        doc = payload(out)
        assert doc["m"] == 0
        assert "N" not in doc

    @pytest.mark.parametrize("lam,message", [
        ("1", "target constant must exceed 1, got 1"),
        ("2/3", "target constant must exceed 1, got 2/3"),
        ("junk", "malformed rational literal 'junk'"),
        ("-4", "target constant must exceed 1, got -4"),
        ("x", "malformed rational literal 'x'"),
        ("1_0", "malformed rational literal '1_0'"),
    ], ids=["1", "2/3", "junk", "-4", "x", "1_0"])
    def test_rejects_bad_targets(self, capsys, lam, message):
        code, out, err = run(capsys, "plan", "--lambda", lam)
        assert (code, out) == (2, "")
        assert err.splitlines()[0] == f"error: {message}"
        assert report(err)["status"] == "error"

    def test_demo_base_mismatch(self, capsys, scalar_line):
        # a target of 5/2 plans alpha = 15/8, but the line has constant 1
        code, _, _ = run(capsys, "plan", "--lambda", "5/2",
                         "--demo", scalar_line)
        assert code == 6

    def test_demo_pivot_limit_truncates(self, capsys, monkeypatch, kernel5):
        # target 32/15 plans N = 3 and alpha = 8/5 = lambda(ker_5); the base's
        # LP is the only one, so the pivots it needs certify the step in
        # ell_inf^15 too, and one pivot fewer stops the demonstration at its base
        argv = ["--budget", "15,8", "plan", "--lambda", "32/15", "--demo", kernel5]
        limit = fewest_pivots(monkeypatch, load_subspace_document(kernel5))
        code, out, _ = run(capsys, *argv)
        assert code == 0
        demo = payload(out)["demo"]
        assert (demo["status"], demo["truncated"]) == ("ok", False)
        assert demo["steps"] == [{"k": 1, "ambient_dim": 15, "expected": "32/15",
                                  "computed": "32/15", "certified": True}]
        monkeypatch.setattr(simplex, "PIVOT_LIMIT", limit - 1)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (5, "")
        assert report(err)["status"] == "inconclusive"

    @pytest.mark.parametrize("steps", ["5", "0", "-1"])
    def test_steps_needs_demo(self, capsys, steps):
        code, out, err = run(capsys, "plan", "--lambda", "3", "--steps", steps)
        assert (code, out) == (2, "")
        assert err.splitlines()[0] == f"error: --steps needs --demo and a count >= 0, got {steps}"
        assert report(err)["status"] == "error"

    def test_negative_steps(self, capsys, kernel3):
        code, out, err = run(capsys, "plan", "--lambda", "4/3",
                             "--demo", kernel3, "--steps", "-1")
        assert (code, out) == (2, "")
        assert err.splitlines()[0] == "error: --steps needs --demo and a count >= 0, got -1"

    def test_demo_zero_steps(self, capsys, kernel3):
        # lambda = 4/3 needs no amplification, so the demo just certifies it
        code, out, _ = run(capsys, "plan", "--lambda", "4/3",
                           "--demo", kernel3, "--steps", "0")
        assert code == 0
        doc = payload(out)
        assert doc["demo"]["base_lambda"] == "4/3"
        assert doc["demo"]["status"] == "ok"


class TestBM:
    def test_optimize(self, capsys):
        code, out, _ = run(capsys, "bm", "--optimize")
        assert code == 0
        doc = payload(out)
        assert abs(doc["g_star"] - 19.392304845413264) < 1e-12
        assert doc["strict"] is True

    def test_params(self, capsys):
        code, out, _ = run(capsys, "bm", "--params", "4")
        assert code == 0
        assert payload(out)["K"] == "9/2"

    def test_params_reject_nonpositive(self, capsys):
        code, out, err = run(capsys, "bm", "--params", "-1")
        assert (code, out) == (2, "")
        assert err.splitlines()[0] == "error: shape parameter must be positive, got '-1'"

    def test_params_reject_malformed(self, capsys):
        code, out, err = run(capsys, "bm", "--params", "x")
        assert (code, out) == (2, "")
        assert err.splitlines()[0] == "error: malformed rational literal 'x'"

    def test_model(self, capsys):
        code, out, _ = run(capsys, "bm", "--model", "4")
        assert code == 0
        doc = payload(out)
        assert doc == {"a": "4", "K": "9/2", "inverse_ok": True,
                       "W_norm_lower": "3", "Winv_norm_lower": "3",
                       "stabilized": True}

    def test_model_rejects_inexact(self, capsys):
        code, _, err = run(capsys, "bm", "--model", "5")
        assert code == 7
        assert report(err)["status"] == "error"

    def test_model_rejects_nonpositive(self, capsys):
        code, out, err = run(capsys, "bm", "--model", "0")
        assert (code, out) == (2, "")
        assert err.splitlines()[0] == "error: shape parameter must be positive, got 0"

    def test_flags_are_exclusive(self, capsys):
        assert run(capsys, "bm", "--optimize", "--params", "4")[0] == 2

    def test_window_is_not_an_option(self, capsys):
        # the norm window is the fixed default of operator_norm_window
        assert run(capsys, "bm", "--optimize", "--window", "-3")[0] == 2


class TestSelftest:
    def test_single_criterion(self, capsys):
        code, out, _ = run(capsys, "selftest", "--only", "kernel-constants")
        assert code == 0
        assert "[PASS] kernel-constants" in out
        assert out.strip().endswith("OK (1 criteria)")

    def test_console_script_exits_with_the_command_code(self, capsys, monkeypatch):
        # `entry_point` is what the installed `projconst` script calls
        monkeypatch.setattr(sys, "argv", ["projconst", "selftest", "--only", "centring-witness"])
        with pytest.raises(SystemExit) as exc:
            entry_point()
        assert exc.value.code == 0
        assert capsys.readouterr().out.endswith("OK (1 criteria)\n")

    def test_json_form(self, capsys):
        code, out, _ = run(capsys, "--json", "selftest",
                           "--only", "centring-witness,kernel-constants")
        assert code == 0
        doc = payload(out)
        assert doc["passed"] is True
        assert {c["key"] for c in doc["criteria"]} == {
            "centring-witness", "kernel-constants"}
        assert all(c["passed"] for c in doc["criteria"])

    def test_fault_injection_is_detected(self, capsys, monkeypatch):
        monkeypatch.setenv("PROJCONST_SELFTEST_FAULT", "centring-norm")
        code, out, _ = run(capsys, "selftest", "--only", "centring-norm")
        assert code == 1
        assert "[FAIL] centring-norm" in out

    def test_raising_criterion_does_not_hide_the_others(self, capsys):
        # the amplification demo needs ell_inf^9, so this budget makes it raise
        code, out, _ = run(capsys, "--budget", "2,1", "selftest",
                           "--only", "centring-norm,amplification-demo")
        assert code == 1
        assert "[PASS] centring-norm" in out
        assert "[FAIL] amplification-demo: BudgetExceededError: " in out
        assert out.strip().endswith("FAILED (1): amplification-demo")

    def test_budget_gates_every_exact_solve(self, capsys):
        # ker_3 lives in ell_inf^3, beyond this budget, so both criteria
        # that solve it stop there instead of solving outside the budget
        code, out, _ = run(capsys, "--budget", "2", "selftest",
                           "--only", "kernel-constants,oracle-agreement")
        assert code == 1
        lines = out.splitlines()
        assert [line.split(": ", 2)[:2] for line in lines[:2]] == [
            ["[FAIL] kernel-constants", "BudgetExceededError"],
            ["[FAIL] oracle-agreement", "BudgetExceededError"]]
        assert lines[2:] == ["FAILED (2): kernel-constants, oracle-agreement"]

    @pytest.mark.parametrize("only, named", [
        ("bogus", "'bogus'"),
        ("kernel-constants,centring-nrom", "'centring-nrom'"),
        ("", "''"),
    ], ids=["unknown", "known-and-unknown", "empty"])
    def test_unknown_criterion_is_malformed_input(self, capsys, only, named):
        # a misspelt key must not turn selftest into a vacuous pass
        code, out, err = run(capsys, "selftest", "--only", only)
        assert code == 2
        assert out == ""
        assert f"error: unknown selftest criteria: {named}\n" in err
        assert report(err)["status"] == "error"

    def test_fault_leaves_other_criteria_alone(self, capsys, monkeypatch):
        monkeypatch.setenv("PROJCONST_SELFTEST_FAULT", "centring-norm")
        code, out, _ = run(capsys, "selftest", "--only", "kernel-constants")
        assert code == 0
        assert "[PASS] kernel-constants" in out
