"""The package's acceptance criteria, shared by the test suite and `selftest`.

Each criterion is a named, self-contained check with exact expected values
(or pinned float tolerances where a numeric path is itself under test).
`run_all` executes them in order and reports one result per criterion, even
when a criterion raises; the CLI selftest exits nonzero when any fails.

Setting the environment variable PROJCONST_SELFTEST_FAULT to a criterion key
corrupts that criterion's expected constant by 1/1000.  This is a negative
control: it must make the named criterion (and only that one) fail, proving
the harness actually compares against the constants it claims to.  The key
multiplication-law corrupts a certificate instead: it lowers ker_N's W_00,
1/N, to (1000 - N) / 1000 N before the tensored check, which must then
fail on its dual check 'B W = Lambda B'.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from random import Random
from typing import Callable, NamedTuple

from .banach_mazur import (
    build_model,
    bound_g,
    compare_with_prior_bound,
    operator_norm_window,
    optimize_closed_form,
    optimize_numeric,
    verify_inverse,
)
from .linalg import Subspace, format_rational, inf_op_norm
from .minproj import (
    DEFAULT_BUDGET,
    LPBudget,
    OracleConfig,
    ProjectionCertificate,
    SolverIntegrityError,
    float_oracle,
    projection_constant,
)
from .planner import ad_hoc_plan, demonstrate_schedule, plan_parameters
from .zerosum import (
    amplification_factor,
    centring_projection,
    centring_witness,
    coordinate_sum_kernel,
    extract_r,
    random_projection_onto,
    sigma_subspace,
    sum_kernel_certificate,
    symmetrize,
    verify_multiplication_law,
)

FAULT_ENV = "PROJCONST_SELFTEST_FAULT"


class CriterionFailure(AssertionError):
    pass


class Context(NamedTuple):
    seed: int = 0
    budget: LPBudget = DEFAULT_BUDGET


def _fault(key: str) -> Fraction:
    """1/1000 corruption when the fault-injection control targets `key`."""
    if os.environ.get(FAULT_ENV) == key:
        return Fraction(1, 1000)
    return Fraction(0)


def _require(condition: bool, message: str):
    if not condition:
        raise CriterionFailure(message)


# ---------------------------------------------------------------------------


def _check_centring_norm(ctx: Context) -> str:
    for d in (1, 2, 3):
        for n in range(2, 9):
            expected = amplification_factor(n) + _fault("centring-norm")
            s = centring_projection(d, n)
            norm = inf_op_norm(s).value
            _require(norm == expected,
                     f"centring norm for d={d}, N={n}: got {norm}, expected {expected}")
            _require(s.is_idempotent(), f"centring map not idempotent for d={d}, N={n}")
    return "norm of the centring map is exactly 2-2/N and idempotent for d<=3, N<=8"


def _check_centring_witness(ctx: Context) -> str:
    x, image = centring_witness(1, 3)
    s = centring_projection(1, 3)
    expected = (Fraction(4, 3) + _fault("centring-witness"),
                Fraction(-2, 3), Fraction(-2, 3))
    _require(s.apply(x) == expected, f"witness image {s.apply(x)} != {expected}")
    _require(image == expected, f"stored witness image {image} != {expected}")
    _require(max(abs(v) for v in image) == Fraction(4, 3), "witness image norm != 4/3")
    return "witness (1,-1,-1) maps to exactly (4/3, -2/3, -2/3) under the N=3 centring map"


def _check_kernel_constants(ctx: Context) -> str:
    for n in range(2, 7):
        expected = amplification_factor(n) + _fault("kernel-constants")
        space = coordinate_sum_kernel(n)
        ctx.budget.require(space)
        result = projection_constant(space)
        _require(result.value == expected,
                 f"lambda(ker sum, n={n}): got {result.value}, expected {expected}")
        _require(result.attained, f"minimum not attained for n={n}")
    return "lambda of the zero-sum hyperplane of ell_inf^n is exactly 2-2/n for n=2..6"


def _law_instances() -> list[tuple[str, Subspace, int]]:
    return [
        ("scalar line, N=3", Subspace.from_rows([[1]]), 3),
        ("diagonal of ell_inf^3, N=3", Subspace.from_rows([[1, 1, 1]]), 3),
        ("zero-sum hyperplane of ell_inf^3, N=2", coordinate_sum_kernel(3), 2),
    ]


def _kernel_certificate(copies: int) -> ProjectionCertificate | None:
    """Under the fault key, ker_N's certificate with W_00 lowered by 1/1000;
    otherwise None, so that the law uses its own."""
    delta = _fault("multiplication-law")
    if not delta:
        return None
    cert = sum_kernel_certificate(copies)
    rows, den = cert.dual
    # W over den * 1000, so that W_00 can lose delta = 1/1000
    rows = [[x * delta.denominator for x in row] for row in rows]
    rows[0][0] -= delta.numerator * den
    return cert._replace(dual=(rows, den * delta.denominator))


def _check_multiplication_law(ctx: Context) -> str:
    outcomes = []
    for name, base, copies in _law_instances():
        try:
            report = verify_multiplication_law(base, copies, ctx.budget,
                                               _kernel_certificate(copies))
        except SolverIntegrityError as exc:
            # in the form `run_all` gives any exception, and the instance
            raise CriterionFailure(f"SolverIntegrityError: {exc} ({name})") from exc
        _require(report.status == "ok", f"{name}: report inconclusive")
        expected = report.product
        _require(report.sigma_lambda == expected,
                 f"{name}: {report.sigma_lambda} != {expected} "
                 f"(mu_N = {report.mu}, lambda(E) = {report.base_lambda})")
        outcomes.append(f"{name}: {format_rational(report.sigma_lambda)}")
    return "; ".join(outcomes)


def _check_symmetrization(ctx: Context) -> str:
    rng = Random(ctx.seed)
    configs = ((1, 2), (1, 3), (2, 2))
    for d, n in configs:
        base = Subspace.from_rows([[1 if i == j else 0 for j in range(d)]
                                   for i in range(d)])
        zs = sigma_subspace(base, n)
        for _ in range(20):
            p = random_projection_onto(zs, rng)
            # extract_r raises NotSymmetrizedError unless p_tilde commutes
            # with every block permutation
            dec = extract_r(symmetrize(p, d, n), base, n)
            _require(dec.p_tilde_norm <= inf_op_norm(p).value,
                     f"symmetrization increased the norm for d={d}, N={n}")
            mu = amplification_factor(n) + _fault("symmetrization")
            _require(dec.p_tilde_norm == mu * dec.r_norm,
                     f"norm identity fails for d={d}, N={n}")
    return "20 random projections per config collapse to lift(r) o centring with exact norm law"


def _check_planner_sweep(ctx: Context) -> str:
    rng = Random(ctx.seed)
    spots = {
        Fraction(3): (1, 5, Fraction(15, 8)),
        Fraction(5, 2): (1, 3, Fraction(15, 8)),
        Fraction(5): (2, 5, Fraction(125, 64)),
    }
    for lam, (m, copies, alpha) in spots.items():
        alpha += _fault("planner-sweep")
        plan = plan_parameters(lam)
        _require((plan.m, plan.copies, plan.alpha) == (m, copies, alpha),
                 f"plan({lam}): got (m={plan.m}, N={plan.copies}, alpha={plan.alpha}), "
                 f"expected (m={m}, N={copies}, alpha={alpha})")
    count = 0
    while count < 200:
        den = rng.randint(1, 64)
        num = rng.randint(2 * den + 1, 32 * den)
        lam = Fraction(num, den)
        if lam <= 2:
            continue
        count += 1
        plan = plan_parameters(lam)
        m, copies, alpha, mu = plan.m, plan.copies, plan.alpha, plan.mu
        _require(m >= 1 and 2 ** m <= lam < 2 ** (m + 1), f"bracket fails for {lam}")
        _require(copies >= 3 and mu ** m > lam / 2, f"block inequality fails for {lam}")
        _require(copies == 3 or amplification_factor(copies - 1) ** m <= lam / 2,
                 f"block count not minimal for {lam}")
        _require(1 < alpha <= 2, f"alpha out of range for {lam}")
        _require(mu ** m * alpha == lam, f"schedule product off target for {lam}")
        _require(len(plan.schedule) == m + 1
                 and plan.schedule[0].lambda_k == alpha
                 and plan.schedule[-1].lambda_k == lam,
                 f"schedule endpoints wrong for {lam}")
    return "200 random targets in (2, 32] factor exactly with minimal block count; spot checks hold"


def _check_amplification_demo(ctx: Context) -> str:
    base = coordinate_sum_kernel(3)
    plan = ad_hoc_plan(Fraction(4, 3), 3, 1)
    report = demonstrate_schedule(base, plan, 1, ctx.budget)
    _require(report.status == "ok", "demonstration truncated or failed")
    step = report.steps[0]
    _require(step.ambient_dim == 9, f"step ambient {step.ambient_dim} != 9")
    expected = Fraction(16, 9) + _fault("amplification-demo")
    _require(step.computed == expected, f"amplified constant {step.computed} != {expected}")
    _require(step.certified, "LP certification failed")
    return "one zero-sum step lifts 4/3 to an exact LP-certified 16/9 inside ell_inf^9"


def _check_bound_optimizers(ctx: Context) -> str:
    closed = optimize_closed_form()
    numeric = optimize_numeric(0.1, 10.0, tol=1e-9)
    _require(abs(closed.a_star - numeric.a_star) <= 1e-8,
             f"optimizers disagree: {closed.a_star} vs {numeric.a_star}")
    _require(closed.cubic_residual <= 1e-10,
             f"cubic residual {closed.cubic_residual} too large")
    floor = 9.0 + 6.0 * math.sqrt(3.0) + float(_fault("bound-optimizers")) - 1e-9
    for i in range(1, 10_001):
        a = i / 100.0
        _require(bound_g(a) >= floor, f"g({a}) dips below the optimum")
    return "closed-form and golden-section optimizers agree; g >= 9+6*sqrt(3) on 10^4 grid points"


def _check_bound_improvement(ctx: Context) -> str:
    cmp = compare_with_prior_bound()
    _require(cmp.strict, "new bound is not strictly below the prior one")
    expected_gap = ((11.0 + 6.0 * math.sqrt(2.0)) - (9.0 + 6.0 * math.sqrt(3.0))
                    + float(_fault("bound-improvement")))
    _require(abs(cmp.improvement - expected_gap) <= 1e-12,
             f"improvement {cmp.improvement} != {expected_gap}")
    _require(round(cmp.improvement, 3) == 0.093,
             f"improvement {cmp.improvement} does not round to 0.093")
    return f"9+6*sqrt(3) beats 11+6*sqrt(2) by {cmp.improvement:.6f}"


def _check_sequence_model(ctx: Context) -> str:
    expected_bounds = {
        Fraction(3, 2): Fraction(14, 3),
        Fraction(4): Fraction(9, 2),
        Fraction(12): Fraction(35, 6),
    }
    for a, bound in expected_bounds.items():
        bound += _fault("sequence-model")
        model = build_model(a)
        _require(model.bound == bound, f"K({a}) = {model.bound}, expected {bound}")
        _require(verify_inverse(model.forward, model.inverse),
                 f"inverse check fails for a={a}")
        fwd = operator_norm_window(model.forward)
        inv = operator_norm_window(model.inverse)
        _require(fwd.stabilized and inv.stabilized,
                 f"norm window not stabilized for a={a}")
        _require(fwd.lower <= bound and inv.lower <= bound,
                 f"window lower bound exceeds K({a})")
    return "exact models for a in {3/2, 4, 12} invert on 256 basis vectors with row sums <= K(a)"


def _check_oracle_agreement(ctx: Context) -> str:
    spaces: list[tuple[str, Subspace]] = [
        (f"zero-sum hyperplane n={n}", coordinate_sum_kernel(n)) for n in range(2, 7)
    ]
    for name, base, copies in _law_instances():
        spaces.append((f"base of {name}", base))
        spaces.append((f"zero-sum space of {name}", sigma_subspace(base, copies).space))
    config = OracleConfig(seed=ctx.seed)
    worst = 0.0
    for name, space in spaces:
        ctx.budget.require(space)
        exact = float(projection_constant(space).value + _fault("oracle-agreement"))
        estimate = float_oracle(space, tol=1e-6, config=config)
        err = abs(estimate - exact)
        worst = max(worst, err)
        _require(err <= 1e-6, f"oracle off by {err:.2e} on {name}")
    return f"first-order oracle within 1e-6 of every exact value (worst {worst:.2e})"


# ---------------------------------------------------------------------------


class Criterion(NamedTuple):
    key: str
    title: str
    run: Callable[[Context], str]


CRITERIA: tuple[Criterion, ...] = (
    Criterion("centring-norm", "centring projection norm and idempotence",
              _check_centring_norm),
    Criterion("centring-witness", "norm-attaining witness of the centring map",
              _check_centring_witness),
    Criterion("kernel-constants", "projection constants of zero-sum hyperplanes",
              _check_kernel_constants),
    Criterion("multiplication-law", "zero-sum amplification law, exact LP certified",
              _check_multiplication_law),
    Criterion("symmetrization", "randomized projections collapse under averaging",
              _check_symmetrization),
    Criterion("planner-sweep", "amplification planner invariants on random targets",
              _check_planner_sweep),
    Criterion("amplification-demo", "one-step staged amplification demonstration",
              _check_amplification_demo),
    Criterion("bound-optimizers", "distance-bound optimizers agree",
              _check_bound_optimizers),
    Criterion("bound-improvement", "strict improvement over the prior bound",
              _check_bound_improvement),
    Criterion("sequence-model", "exact sequence operator models invert and stay bounded",
              _check_sequence_model),
    Criterion("oracle-agreement", "floating-point oracle matches the exact LP values",
              _check_oracle_agreement),
)


class CriterionResult(NamedTuple):
    key: str
    title: str
    passed: bool
    detail: str

    def to_json_dict(self) -> dict:
        return {
            "key": self.key,
            "title": self.title,
            "passed": self.passed,
            "detail": self.detail,
        }


def run_all(ctx: Context = Context(), only: "set[str] | None" = None) -> list[CriterionResult]:
    results = []
    for criterion in CRITERIA:
        if only is not None and criterion.key not in only:
            continue
        try:
            detail = criterion.run(ctx)
            results.append(CriterionResult(criterion.key, criterion.title, True, detail))
        except CriterionFailure as exc:
            results.append(CriterionResult(criterion.key, criterion.title, False, str(exc)))
        except Exception as exc:
            # A criterion that blows up fails on its own; the rest still run.
            results.append(CriterionResult(criterion.key, criterion.title, False,
                                           f"{type(exc).__name__}: {exc}"))
    return results
