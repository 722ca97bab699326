from fractions import Fraction as F
from random import Random

import pytest
from pivot_limits import fewest_pivots

from projconst import simplex, zerosum
from projconst.linalg import Subspace
from projconst.planner import (
    AmplificationPlan,
    BaseConstantMismatch,
    PlanRangeError,
    ScheduleEntry,
    ad_hoc_plan,
    demonstrate_schedule,
    plan_parameters,
)
from projconst.zerosum import amplification_factor, coordinate_sum_kernel

SCALAR_LINE = Subspace.from_rows([[1]])


class TestPlanParameters:
    def test_target_three(self):
        plan = plan_parameters(F(3))
        assert (plan.m, plan.copies) == (1, 5)
        assert plan.mu == F(8, 5)
        assert plan.alpha == F(15, 8)
        assert [e.lambda_k for e in plan.schedule] == [F(15, 8), F(3)]

    def test_target_five_halves(self):
        plan = plan_parameters(F(5, 2))
        assert (plan.m, plan.copies) == (1, 3)
        assert plan.alpha == F(15, 8)

    def test_target_five(self):
        plan = plan_parameters(F(5))
        assert (plan.m, plan.copies) == (2, 5)
        assert plan.alpha == F(125, 64)
        assert plan.schedule[-1].lambda_k == F(5)

    @pytest.mark.parametrize("lam", [F(3, 2), F(2), F(101, 100)])
    def test_small_targets_need_no_amplification(self, lam):
        plan = plan_parameters(lam)
        assert plan.m == 0
        assert plan.copies is None
        assert plan.alpha == lam
        assert len(plan.schedule) == 1

    @pytest.mark.parametrize("lam", [F(1), F(1, 2), F(0), F(-3)])
    def test_rejects_targets_at_most_one(self, lam):
        with pytest.raises(PlanRangeError):
            plan_parameters(lam)

    def test_sweep_invariants(self):
        rng = Random(2)
        seen_multi_step = 0
        for _ in range(250):
            den = rng.randint(1, 64)
            num = rng.randint(2 * den + 1, 32 * den)
            lam = F(num, den)
            plan = plan_parameters(lam)
            m, n = plan.m, plan.copies
            assert m >= 1 and n >= 3
            assert 2 ** m <= lam < 2 ** (m + 1)
            mu = amplification_factor(n)
            assert mu ** m > lam / 2          # bracket placing alpha in (1, 2]
            if n > 3:                          # minimality of the block count
                assert amplification_factor(n - 1) ** m <= lam / 2
            assert 1 < plan.alpha <= 2
            assert plan.alpha * mu ** m == lam
            assert [e.lambda_k for e in plan.schedule] == [
                plan.alpha * mu ** k for k in range(m + 1)
            ]
            assert plan.schedule[0].ambient == "ℓ∞"
            if m >= 2:
                seen_multi_step += 1
                assert plan.schedule[2].ambient == f"(ℓ∞)^({n}^2)"
        assert seen_multi_step > 0

    def test_json_document(self):
        doc = plan_parameters(F(3)).to_json_dict()
        assert doc["lambda"] == "3"
        assert doc["m"] == 1
        assert doc["N"] == 5
        assert doc["mu_N"] == "8/5"
        assert doc["alpha"] == "15/8"
        assert doc["schedule"][1] == {"k": 1, "lambda_k": "3", "ambient": "(ℓ∞)^(5^1)"}
        no_amp = plan_parameters(F(3, 2)).to_json_dict()
        assert "N" not in no_amp and "mu_N" not in no_amp


class TestAdHocPlan:
    def test_prescribed_route(self):
        plan = ad_hoc_plan(F(4, 3), 3, 1)
        assert plan.lambda_target == F(16, 9)
        assert plan.m == 1
        assert plan.copies == 3
        assert [e.lambda_k for e in plan.schedule] == [F(4, 3), F(16, 9)]

    def test_unit_base(self):
        plan = ad_hoc_plan(F(1), 3, 2)
        assert plan.lambda_target == F(16, 9)
        assert plan.schedule[1].lambda_k == F(4, 3)

    def test_zero_steps(self):
        plan = ad_hoc_plan(F(7, 5), 4, 0)
        assert plan.m == 0
        assert plan.copies is None

    def test_validation(self):
        with pytest.raises(PlanRangeError):
            ad_hoc_plan(F(1, 2), 3, 1)
        with pytest.raises(ValueError):
            ad_hoc_plan(F(3, 2), 3, -1)
        with pytest.raises(ValueError):
            ad_hoc_plan(F(1), 1, 1)


class TestAmplificationPlan:
    def test_derived_from_m_copies_alpha(self):
        plan = AmplificationPlan(1, 3, F(4, 3))
        assert plan.mu == F(4, 3)
        assert plan.lambda_target == F(16, 9)
        assert plan.schedule == (ScheduleEntry(0, F(4, 3), "ℓ∞"),
                                 ScheduleEntry(1, F(16, 9), "(ℓ∞)^(3^1)"))

    def test_no_amplification(self):
        plan = AmplificationPlan(0, None, F(3, 2))
        assert (plan.mu, plan.lambda_target) == (None, F(3, 2))
        assert plan.schedule == (ScheduleEntry(0, F(3, 2), "ℓ∞"),)

    @pytest.mark.parametrize("m, copies", [(1, None), (0, 3), (-1, None), (2, 1)])
    def test_rejects_inconsistent_fields(self, m, copies):
        with pytest.raises(ValueError):
            AmplificationPlan(m, copies, F(3, 2))


class TestDemonstrateSchedule:
    def test_scalar_line_one_step(self):
        plan = ad_hoc_plan(F(1), 3, 1)
        report = demonstrate_schedule(SCALAR_LINE, plan, 1)
        assert report.status == "ok"
        assert report.base_lambda == F(1)
        step = report.steps[0]
        assert (step.expected, step.computed) == (F(4, 3), F(4, 3))
        assert step.ambient_dim == 3
        assert step.certified

    def test_two_steps_on_the_scalar_line(self):
        plan = ad_hoc_plan(F(1), 2, 2)
        report = demonstrate_schedule(SCALAR_LINE, plan, 2)
        assert report.status == "ok"
        # mu_2 = 1, so the constant stays put while the ambient grows
        assert [s.computed for s in report.steps] == [F(1), F(1)]
        assert [s.ambient_dim for s in report.steps] == [2, 4]

    def test_base_mismatch(self):
        plan = ad_hoc_plan(F(4, 3), 3, 1)  # needs a base with lambda = 4/3
        with pytest.raises(BaseConstantMismatch):
            demonstrate_schedule(SCALAR_LINE, plan, 1)

    def test_matched_base(self):
        plan = ad_hoc_plan(F(4, 3), 3, 0)
        report = demonstrate_schedule(coordinate_sum_kernel(3), plan, 0)
        assert report.status == "ok"
        assert report.base_lambda == F(4, 3)
        assert report.steps == ()

    def test_step_count_validation(self):
        plan = ad_hoc_plan(F(1), 3, 1)
        with pytest.raises(ValueError):
            demonstrate_schedule(SCALAR_LINE, plan, 2)
        with pytest.raises(ValueError):
            demonstrate_schedule(SCALAR_LINE, plan, -1)

    def test_budget_truncates_midway(self, monkeypatch):
        plan = ad_hoc_plan(F(1), 3, 2)
        monkeypatch.setattr(zerosum, "CHECK_LIMIT", 8)
        report = demonstrate_schedule(SCALAR_LINE, plan, 2)
        assert report.truncated
        assert report.status == "inconclusive"
        assert report.steps[0].certified
        last = report.steps[-1]
        assert last.computed is None and not last.certified
        assert last.ambient_dim == 9

    def test_pivot_limit_truncates(self, monkeypatch):
        # the base's LP is the only one: the pivots it needs certify the step
        # to ell_inf^9 as well, and one pivot fewer stops the base itself
        base = coordinate_sum_kernel(3)
        plan = ad_hoc_plan(F(4, 3), 3, 1)
        limit = fewest_pivots(monkeypatch, base)
        report = demonstrate_schedule(base, plan, 1)
        assert (report.truncated, report.status) == (False, "ok")
        [step] = report.steps
        assert (step.ambient_dim, step.computed) == (9, F(16, 9))
        monkeypatch.setattr(simplex, "PIVOT_LIMIT", limit - 1)
        with pytest.raises(simplex.PivotLimitExceeded):
            demonstrate_schedule(base, plan, 1)

    def test_json_document(self):
        plan = ad_hoc_plan(F(1), 3, 1)
        doc = demonstrate_schedule(SCALAR_LINE, plan, 1).to_json_dict()
        assert doc["status"] == "ok"
        assert doc["truncated"] is False
        assert doc["steps"][0]["expected"] == "4/3"
