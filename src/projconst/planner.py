"""Planning staged amplification towards a prescribed projection constant.

Every rational target lambda > 1 factors as mu_N^m * alpha with
alpha in (1, 2], where mu_N = 2 - 2/N is the zero-sum amplification factor.
For lambda in (1, 2] no amplification is needed (m = 0, alpha = lambda).
Otherwise m is the unique exponent with 2^m <= lambda < 2^{m+1} and N is the
smallest block count >= 3 with mu_N^m > lambda / 2, which makes the
remaining factor alpha = lambda / mu_N^m land in (1, 2].

`demonstrate_schedule` executes a plan on an actual base subspace: it
certifies the base constant with one exact LP solve, then compares each
level of `zerosum.sigma_steps`, proven by a tensored certificate and weak
duality, with the staged constant mu_N^k * alpha.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .linalg import Subspace, format_rational
from .minproj import DEFAULT_BUDGET, LPBudget, projection_certificate
from .zerosum import amplification_factor, sigma_steps

_ONE = Fraction(1)
_TWO = Fraction(2)


class PlanRangeError(ValueError):
    """Target constant outside (1, infinity)."""


class BaseConstantMismatch(ValueError):
    """Demonstration base space does not have the planned alpha."""


class ScheduleEntry(NamedTuple):
    step: int
    lambda_k: Fraction
    ambient: str

    def to_json_dict(self) -> dict:
        return {
            "k": self.step,
            "lambda_k": format_rational(self.lambda_k),
            "ambient": self.ambient,
        }


class _PlanFields(NamedTuple):
    m: int
    copies: int | None
    alpha: Fraction


class AmplificationPlan(_PlanFields):
    """A staged route lambda_k = mu_N^k * alpha of m steps with N blocks.

    A plan is (m, N, alpha); mu_N, the target and the schedule follow from
    it.  `copies` is None exactly when no amplification is needed (m = 0).
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.m < 0 or (self.copies is None) != (self.m == 0):
            raise ValueError(f"a plan of {self.m} steps cannot have block count {self.copies}")
        if self.copies is not None:
            amplification_factor(self.copies)  # rejects N < 2
        return self

    @property
    def mu(self) -> Fraction | None:
        return None if self.copies is None else amplification_factor(self.copies)

    @property
    def lambda_target(self) -> Fraction:
        return self.alpha if self.copies is None else self.alpha * self.mu ** self.m

    @property
    def schedule(self) -> tuple[ScheduleEntry, ...]:
        mu = self.mu
        return (ScheduleEntry(0, self.alpha, "ℓ∞"),) + tuple(
            ScheduleEntry(k, self.alpha * mu ** k, f"(ℓ∞)^({self.copies}^{k})")
            for k in range(1, self.m + 1))

    def to_json_dict(self) -> dict:
        doc = {
            "lambda": format_rational(self.lambda_target),
            "m": self.m,
            "alpha": format_rational(self.alpha),
            "schedule": [e.to_json_dict() for e in self.schedule],
        }
        if self.copies is not None:
            doc["N"] = self.copies
            doc["mu_N"] = format_rational(self.mu)
        return doc


def plan_parameters(lambda_target: Fraction) -> AmplificationPlan:
    """Factor a rational target > 1 into its canonical amplification plan.

    Invariants for m >= 1: 2^m <= lambda < 2^{m+1}, mu_N^m > lambda / 2 with
    N minimal >= 3, alpha = lambda / mu_N^m in (1, 2], and the schedule ends
    exactly at lambda.
    """
    lam = Fraction(lambda_target)
    if lam <= 1:
        raise PlanRangeError(f"target constant must exceed 1, got {lam}")
    m, copies, mu = 0, None, _ONE
    if lam > 2:
        power = _ONE
        while power * 2 <= lam:
            power *= 2
            m += 1
        # now 2^m <= lam < 2^{m+1}, m >= 1
        half = lam / 2
        copies = 3
        while amplification_factor(copies) ** m <= half:
            copies += 1
        mu = amplification_factor(copies)
    alpha = lam / mu ** m
    assert _ONE < alpha <= _TWO
    return AmplificationPlan(m, copies, alpha)


def ad_hoc_plan(alpha: Fraction, copies: int, steps: int) -> AmplificationPlan:
    """A demonstration plan with prescribed block count and step count.

    Unlike `plan_parameters` this does not insist on the canonical bracket
    2^m <= lambda < 2^{m+1} or on minimality of N; it just records the route
    lambda_k = mu_N^k * alpha, which is what a staged demonstration needs.
    """
    alpha = Fraction(alpha)
    if alpha < 1:
        raise PlanRangeError(f"base constant must be >= 1, got {alpha}")
    if steps < 0:
        raise ValueError(f"negative step count {steps}")
    return AmplificationPlan(steps, copies if steps else None, alpha)


class DemoStep(NamedTuple):
    step: int
    ambient_dim: int
    expected: Fraction
    computed: Fraction | None

    @property
    def certified(self) -> bool:
        return self.computed == self.expected

    def to_json_dict(self) -> dict:
        return {
            "k": self.step,
            "ambient_dim": self.ambient_dim,
            "expected": format_rational(self.expected),
            "computed": None if self.computed is None else format_rational(self.computed),
            "certified": self.certified,
        }


class ScheduleReport(NamedTuple):
    base_lambda: Fraction
    steps: tuple[DemoStep, ...]

    @property
    def truncated(self) -> bool:
        return bool(self.steps) and self.steps[-1].computed is None

    @property
    def status(self) -> str:
        if self.truncated:
            return "inconclusive"
        return "ok" if all(s.certified for s in self.steps) else "error"

    def to_json_dict(self) -> dict:
        return {
            "base_lambda": format_rational(self.base_lambda),
            "steps": [s.to_json_dict() for s in self.steps],
            "truncated": self.truncated,
            "status": self.status,
        }


def demonstrate_schedule(base: Subspace, plan: AmplificationPlan, max_steps: int,
                         budget: LPBudget = DEFAULT_BUDGET) -> ScheduleReport:
    """Execute up to `max_steps` zero-sum amplification steps of a plan.

    Certifies lambda(base) by one exact LP solve and checks it equals
    plan.alpha first (mismatch is a hard error).  Then it compares each level
    of `sigma_steps`, which tensors the base's primal-dual certificate with
    that of ker_N and proves the level by weak duality without an LP, with
    the plan's staged constant lambda_k = mu_N^k * alpha.  A step beyond the
    LP budget truncates the report rather than raising; the base's LP is the
    only one that can run into the simplex pivot limit.
    """
    if max_steps < 0:
        raise ValueError(f"negative step count {max_steps}")
    if max_steps > plan.m:
        raise ValueError(f"plan has {plan.m} steps, asked for {max_steps}")
    budget.require(base)
    certificate = projection_certificate(base)
    if certificate.value != plan.alpha:
        raise BaseConstantMismatch(
            f"lambda(base) = {certificate.value}, plan needs alpha = {plan.alpha}"
        )
    levels = sigma_steps(base, certificate, plan.copies, max_steps, budget)
    steps = tuple(DemoStep(entry.step, ambient, entry.lambda_k, computed)
                  for entry, (ambient, computed) in zip(plan.schedule[1:], levels))
    return ScheduleReport(certificate.value, steps)
