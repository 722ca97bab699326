"""Planning staged amplification towards a prescribed projection constant.

Every rational target lambda > 1 factors as mu_N^m * alpha with
alpha in (1, 2], where mu_N = 2 - 2/N is the zero-sum amplification factor.
For lambda in (1, 2] no amplification is needed (m = 0, alpha = lambda).
Otherwise m is the unique exponent with 2^m <= lambda < 2^{m+1} and N is the
smallest block count >= 3 with mu_N^m > lambda / 2, which makes the
remaining factor alpha = lambda / mu_N^m land in (1, 2].

`demonstrate_schedule` executes a plan on an actual base subspace: it
certifies the base constant, then compares each level of
`zerosum.sigma_steps` with the staged constant mu_N^k * alpha.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import Subspace, format_rational
from .minproj import DEFAULT_BUDGET, LPBudget, projection_constant
from .zerosum import amplification_factor, sigma_steps

_ONE = Fraction(1)
_TWO = Fraction(2)


class PlanRangeError(ValueError):
    """Target constant outside (1, infinity)."""


class BaseConstantMismatch(ValueError):
    """Demonstration base space does not have the planned alpha."""


@dataclass(frozen=True, slots=True)
class ScheduleEntry:
    step: int
    lambda_k: Fraction
    ambient: str

    def to_json_dict(self) -> dict:
        return {
            "k": self.step,
            "lambda_k": format_rational(self.lambda_k),
            "ambient": self.ambient,
        }


@dataclass(frozen=True, slots=True)
class AmplificationPlan:
    """A staged route lambda_k = mu_N^k * alpha ending at the target.

    `copies` is None exactly when no amplification is needed (m = 0).
    """

    lambda_target: Fraction
    m: int
    copies: int | None
    mu: Fraction | None
    alpha: Fraction
    schedule: tuple[ScheduleEntry, ...]

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


def _ambient_descriptor(copies: int | None, step: int) -> str:
    if step == 0 or copies is None:
        return "ℓ∞"
    return f"(ℓ∞)^({copies}^{step})"


def _build_schedule(alpha: Fraction, mu: Fraction | None, copies: int | None,
                    m: int) -> tuple[ScheduleEntry, ...]:
    entries = []
    lam = alpha
    for k in range(m + 1):
        entries.append(ScheduleEntry(k, lam, _ambient_descriptor(copies, k)))
        if mu is not None:
            lam = lam * mu
    return tuple(entries)


def plan_parameters(lambda_target: Fraction) -> AmplificationPlan:
    """Factor a rational target > 1 into its canonical amplification plan.

    Invariants for m >= 1: 2^m <= lambda < 2^{m+1}, mu_N^m > lambda / 2 with
    N minimal >= 3, alpha = lambda / mu_N^m in (1, 2], and the schedule ends
    exactly at lambda.
    """
    lam = Fraction(lambda_target)
    if lam <= 1:
        raise PlanRangeError(f"target constant must exceed 1, got {lam}")
    if lam <= 2:
        return AmplificationPlan(lam, 0, None, None, lam,
                                 _build_schedule(lam, None, None, 0))
    m = 0
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
    plan = AmplificationPlan(lam, m, copies, mu, alpha,
                             _build_schedule(alpha, mu, copies, m))
    assert _ONE < alpha <= _TWO
    return plan


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
    if steps == 0:
        return AmplificationPlan(alpha, 0, None, None, alpha,
                                 _build_schedule(alpha, None, None, 0))
    mu = amplification_factor(copies)
    target = alpha * mu ** steps
    return AmplificationPlan(target, steps, copies, mu, alpha,
                             _build_schedule(alpha, mu, copies, steps))


@dataclass(frozen=True, slots=True)
class DemoStep:
    step: int
    ambient_dim: int
    expected: Fraction
    computed: Fraction | None
    certified: bool

    def to_json_dict(self) -> dict:
        return {
            "k": self.step,
            "ambient_dim": self.ambient_dim,
            "expected": format_rational(self.expected),
            "computed": None if self.computed is None else format_rational(self.computed),
            "certified": self.certified,
        }


@dataclass(frozen=True, slots=True)
class ScheduleReport:
    base_lambda: Fraction
    steps: tuple[DemoStep, ...]
    truncated: bool

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

    Checks lambda(base) == plan.alpha first (mismatch is a hard error), then
    compares each level of `sigma_steps` with the staged constant
    mu_N^k * alpha.  A step beyond the LP budget or the simplex pivot limit
    truncates the report rather than raising.
    """
    if max_steps < 0:
        raise ValueError(f"negative step count {max_steps}")
    if max_steps > plan.m:
        raise ValueError(f"plan has {plan.m} steps, asked for {max_steps}")
    if max_steps > 0 and plan.copies is None:
        raise ValueError("plan has no block count; nothing to demonstrate")
    budget.require(base)
    base_lambda = projection_constant(base).value
    if base_lambda != plan.alpha:
        raise BaseConstantMismatch(
            f"lambda(base) = {base_lambda}, plan needs alpha = {plan.alpha}"
        )
    steps: list[DemoStep] = []
    expected = base_lambda
    for k, (ambient, computed) in enumerate(
            sigma_steps(base, plan.copies, max_steps, budget), start=1):
        expected *= plan.mu
        steps.append(DemoStep(k, ambient, expected, computed, computed == expected))
    truncated = bool(steps) and steps[-1].computed is None
    return ScheduleReport(base_lambda, tuple(steps), truncated)
