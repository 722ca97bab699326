"""Seeded inputs, the calls under measurement and the correctness gate.

`make_items(workload, seed)` builds one pass of work: a list of
items, each holding its generated input (`spec`, JSON-serialisable), the
call into projconst's public API that is timed (`run`) and the check of that
call's output (`check`), which the benchmark runs after the timed region.
Every reference value a check compares against is computed here, not by the
code under measurement: closed forms, scipy's HiGHS on an independently
written float LP, and row-sum norms.

Inputs depend only on (workload, seed), so a run is repeatable.
Calls go through module attributes (`minproj.projection_constant`, ...) so
that the tracing wrappers of `spans.instrument` see them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Callable

from projconst import banach_mazur, minproj, planner, zerosum
from projconst.linalg import Mat, RankDeficientError, Subspace, format_rational

# Added to the first reference value of a workload when the negative control
# is on; the gate must then fail.
FAULT_DELTA = Fraction(1, 1000)


class GateFailure(AssertionError):
    """An output disagrees with its reference value."""


class Inconclusive(RuntimeError):
    """The program returned without a certified answer; counted as failed."""


@dataclass(frozen=True)
class Item:
    name: str
    spec: dict
    run: Callable[[], object]
    check: Callable[[object], None]


def _require(condition: bool, message: str):
    if not condition:
        raise GateFailure(message)


def _mu(copies: int) -> Fraction:
    return 2 - Fraction(2, copies)


def _rows_spec(m: Mat) -> list[list[str]]:
    return [[format_rational(x) for x in m.row(i)] for i in range(m.rows)]


def _row_sum_norm(m: Mat) -> Fraction:
    return max(sum(abs(x) for x in m.row(i)) for i in range(m.rows))


def _random_space(rng: Random, n: int, k: int, spread: int = 3) -> Subspace:
    """k independent rows with integer entries in [-spread, spread]."""
    while True:
        rows = [[rng.randint(-spread, spread) for _ in range(n)] for _ in range(k)]
        try:
            return Subspace.from_rows(rows)
        except RankDeficientError:
            continue


def _diagonal(d: int) -> Subspace:
    return Subspace.from_rows([[1] * d])


# ---------------------------------------------------------------------------
# exact-lp: projection_constant on ker_n and on random dense subspaces


def highs_lambda(space: Subspace) -> float:
    """lambda(E, ell_inf^n) from scipy's HiGHS, on a float LP written here.

    Variables: C (k x n, free), majorants M (n x n, >= 0) and t; minimise t
    subject to C B^T = I, -M <= B^T C <= M and row sums of M <= t.
    """
    import numpy as np
    from scipy.optimize import linprog

    b = np.array([[float(x) for x in space.basis.row(i)] for i in range(space.dim)])
    k, n = b.shape
    nc, nm = k * n, n * n
    nv = nc + nm + 1
    a_eq = np.zeros((k * k, nv))
    for p in range(k):
        for q in range(k):
            a_eq[p * k + q, p * n:(p + 1) * n] = b[q]
    a_ub = np.zeros((2 * nm + n, nv))
    for i in range(n):
        for j in range(n):
            r = 2 * (i * n + j)
            a_ub[r, j:nc:n] = b[:, i]
            a_ub[r + 1, j:nc:n] = -b[:, i]
            a_ub[r:r + 2, nc + i * n + j] = -1.0
        a_ub[2 * nm + i, nc + i * n:nc + (i + 1) * n] = 1.0
        a_ub[2 * nm + i, nv - 1] = -1.0
    cost = np.zeros(nv)
    cost[-1] = 1.0
    res = linprog(cost, A_ub=a_ub, b_ub=np.zeros(len(a_ub)), A_eq=a_eq,
                  b_eq=np.eye(k).ravel(),
                  bounds=[(None, None)] * nc + [(0, None)] * (nm + 1),
                  method="highs")
    if res.status != 0:
        raise GateFailure(f"HiGHS reference failed: {res.message}")
    return float(res.fun)


def _lp_item(name: str, space: Subspace, expected: Fraction | None = None) -> Item:
    def check(result):
        if expected is not None:
            _require(result.value == expected,
                     f"{name}: lambda = {result.value}, expected {expected}")
        ref = highs_lambda(space)
        _require(abs(float(result.value) - ref) <= 1e-7,
                 f"{name}: lambda = {result.value}, HiGHS gives {ref!r}")

    return Item(name, {"basis": _rows_spec(space.basis)},
                lambda: minproj.projection_constant(space), check)


# Exact simplex time varies 2-4x between random programs of one shape, and
# as much again under a change of basis of the same subspace, so seeded
# mid-size programs would make wall_s measure the draw rather than the code.
# The mid-size programs are therefore fixed: each is drawn from its own
# constant seed (its shape and index) and is the same in every run.  The
# seeded programs are small.  Indices 15 to 19, (6,2), (6,3), (7,2) twice and
# (8,2), take over 1 s each and are left out, so that a pass stays short
# enough for several passes per run.
EXACT_FIXED = ((7, 1, 0), (7, 1, 1), (8, 1, 2), (8, 1, 3), (8, 1, 4), (8, 1, 5),
               (8, 1, 6), (8, 1, 7), (4, 2, 8), (4, 2, 9), (4, 3, 10), (4, 3, 11),
               (5, 2, 12), (5, 3, 13), (6, 2, 14))
EXACT_SEEDED_SHAPES = ((3, 1, 5), (4, 1, 5), (5, 1, 5))


def _exact_lp(rng: Random, delta: Fraction) -> list[Item]:
    items = []
    for n in range(2, 9):
        expected = _mu(n) + (delta if n == 2 else 0)
        items.append(_lp_item(f"ker{n}", zerosum.coordinate_sum_kernel(n), expected))
    for n, k, i in EXACT_FIXED:
        name = f"fixed{n}x{k}.{i}"
        items.append(_lp_item(name, _random_space(Random(f"perfbench {name}"), n, k)))
    for n, k, count in EXACT_SEEDED_SHAPES:
        for i in range(count):
            items.append(_lp_item(f"rand{n}x{k}.{i}", _random_space(rng, n, k)))
    return items + _zero_sum_lp_items(rng)


# ---------------------------------------------------------------------------
# the zero-sum side: multiplication law and one staged step (exact LPs), and
# symmetrize + extract_r (no LP)


def _law_item(name: str, base: Subspace, copies: int,
              base_expected: Fraction | None = None) -> Item:
    def run():
        report = zerosum.verify_multiplication_law(base, copies)
        if report.status != "ok":
            raise Inconclusive(f"{name}: multiplication law {report.status}")
        return report

    def check(report):
        _require(report.equal is True,
                 f"{name}: {report.sigma_lambda} != {report.mu} * {report.base_lambda}")
        _require(report.mu == _mu(copies), f"{name}: mu_N = {report.mu}")
        if base_expected is not None:
            _require(report.base_lambda == base_expected,
                     f"{name}: lambda(E) = {report.base_lambda}, expected {base_expected}")
            _require(report.sigma_lambda == _mu(copies) * base_expected,
                     f"{name}: lambda(Sigma_N E) = {report.sigma_lambda}")

    return Item(name, {"basis": _rows_spec(base.basis), "N": copies}, run, check)


def _demo_item(name: str, base: Subspace, alpha: Fraction, copies: int,
               steps: int) -> Item:
    """`steps` staged steps from `base`; step k must certify mu_N^k * alpha."""
    plan = planner.ad_hoc_plan(alpha, copies, steps)

    def run():
        report = planner.demonstrate_schedule(base, plan, steps)
        if report.truncated:
            raise Inconclusive(f"{name}: demonstration truncated by the LP budget")
        return report

    def check(report):
        _require(len(report.steps) == steps, f"{name}: {len(report.steps)} steps")
        for k, step in enumerate(report.steps, 1):
            expected = _mu(copies) ** k * alpha
            dim = base.ambient_dim * copies ** k
            _require(step.ambient_dim == dim and step.computed == expected,
                     f"{name}: lambda in ell_inf^{step.ambient_dim} = {step.computed}, "
                     f"expected {expected} in ell_inf^{dim}")

    spec = {"basis": _rows_spec(base.basis), "N": copies, "steps": steps}
    return Item(name, spec, run, check)


def _sym_item(name: str, base: Subspace, copies: int, p: Mat) -> Item:
    d = base.ambient_dim

    def run():
        p_tilde = zerosum.symmetrize(p, d, copies)
        return p_tilde, zerosum.extract_r(p_tilde, base, copies)

    def check(out):
        p_tilde, dec = out
        norm = _row_sum_norm(p_tilde)
        _require(norm == _mu(copies) * _row_sum_norm(dec.r),
                 f"{name}: norm identity fails")
        _require(norm <= _row_sum_norm(p), f"{name}: averaging raised the norm")
        _require(dec.r @ dec.r == dec.r, f"{name}: r is not idempotent")

    spec = {"basis": _rows_spec(base.basis), "N": copies, "P": _rows_spec(p)}
    return Item(name, spec, run, check)


# Ambient dimensions of the seeded random lines for the multiplication law
# with N = 2.  Kept small, so that the slowest items of a pass are fixed ones.
AMPLIFY_LAW_DIMS = (2, 2, 2, 3, 3, 3, 4, 4)
# (d, N, count): symmetrize + extract_r on random projections onto Sigma_N(E).
# (2, 6) is left out: one such item takes 2-3 s, a third of a pass.
AMPLIFY_SYM_CONFIGS = ((1, 2, 2), (1, 3, 2), (1, 4, 2), (1, 5, 2), (2, 2, 2),
                       (2, 3, 2), (2, 4, 2), (2, 5, 1), (3, 2, 2),
                       (3, 3, 2), (3, 4, 2), (3, 5, 1))


def _zero_sum_lp_items(rng: Random) -> list[Item]:
    line = Subspace.from_rows([[1]])
    items = [_law_item(f"law-line-N{n}", line, n, Fraction(1)) for n in range(2, 7)]
    items += [_law_item(f"law-diag3-N{n}", _diagonal(3), n, Fraction(1))
              for n in range(2, 4)]
    items += [_law_item(f"law-ker{d}-N2", zerosum.coordinate_sum_kernel(d), 2, _mu(d))
              for d in (3, 4)]
    items += [_law_item(f"law-rand{d}x1-N2.{i}", _random_space(rng, d, 1), 2)
              for i, d in enumerate(AMPLIFY_LAW_DIMS)]
    # The staged step ker3 (4/3) to ell_inf^9 (16/9) takes 5-9 s alone, most of
    # a pass, so the staged steps here are small ones.
    items += [_demo_item("demo-line-N4", line, Fraction(1), 4, 1),
              _demo_item("demo-ker3-N2", zerosum.coordinate_sum_kernel(3),
                         Fraction(4, 3), 2, 1),
              _demo_item("demo-diag2-N2x2", _diagonal(2), Fraction(1), 2, 2)]
    return items


def _symmetrize_items(rng: Random) -> list[Item]:
    items = []
    for d, n, count in AMPLIFY_SYM_CONFIGS:
        for i in range(count):
            if d == 1:
                base = Subspace.from_rows([[1]])
            else:
                base = _random_space(rng, d, rng.randint(1, d - 1))
            p = zerosum.random_projection_onto(zerosum.sigma_subspace(base, n), rng)
            items.append(_sym_item(f"sym-d{d}-N{n}.{i}", base, n, p))
    return items


# ---------------------------------------------------------------------------
# float oracle, exact sequence models, planner (no LP)


def _oracle_item(name: str, space: Subspace, expected: Fraction, seed: int) -> Item:
    config = minproj.OracleConfig(seed=seed)

    def check(estimate):
        _require(abs(estimate - float(expected)) <= 1e-6,
                 f"{name}: oracle {estimate!r}, closed form {expected}")

    return Item(name, {"basis": _rows_spec(space.basis), "oracle_seed": seed},
                lambda: minproj.float_oracle(space, 1e-6, config), check)


def _model_item(root: Fraction) -> Item:
    a = (root * root - 1) / 2
    bound = 2 * root / a + root  # K(a) = 2 sqrt(2a+1)/a + sqrt(2a+1)
    name = f"model-a{format_rational(a)}"

    def run():
        model = banach_mazur.build_model(a)
        inverse_ok = banach_mazur.verify_inverse(model.forward, model.inverse, 256)
        return (model.bound, inverse_ok,
                banach_mazur.operator_norm_window(model.forward, 4096),
                banach_mazur.operator_norm_window(model.inverse, 4096))

    def check(out):
        model_bound, inverse_ok, fwd, inv = out
        _require(model_bound == bound, f"{name}: K = {model_bound}, expected {bound}")
        _require(inverse_ok, f"{name}: inverse check fails")
        _require(fwd.stabilized and inv.stabilized, f"{name}: window not stabilized")
        _require(fwd.lower <= bound and inv.lower <= bound,
                 f"{name}: window row sum exceeds K(a)")

    return Item(name, {"a": format_rational(a)}, run, check)


def _plan_item(lam: Fraction) -> Item:
    def check(plan):
        _require(plan.lambda_target == lam, f"plan({lam}): target changed")
        if lam <= 2:
            _require(plan.m == 0 and plan.copies is None and plan.alpha == lam,
                     f"plan({lam}): expected no amplification")
            return
        m, copies, mu, alpha = plan.m, plan.copies, plan.mu, plan.alpha
        _require(m >= 1 and 2 ** m <= lam < 2 ** (m + 1), f"plan({lam}): bracket")
        _require(copies >= 3 and mu == _mu(copies) and mu ** m > lam / 2,
                 f"plan({lam}): block inequality")
        _require(copies == 3 or _mu(copies - 1) ** m <= lam / 2,
                 f"plan({lam}): block count not minimal")
        _require(1 < alpha <= 2 and mu ** m * alpha == lam, f"plan({lam}): alpha")
        _require(len(plan.schedule) == m + 1 and plan.schedule[-1].lambda_k == lam,
                 f"plan({lam}): schedule")

    return Item(f"plan-{format_rational(lam)}", {"lambda": format_rational(lam)},
                lambda: planner.plan_parameters(lam), check)


# One oracle call costs about the same at every n (8 restarts x 4000
# iterations, about 0.9 s), so three n from 2 to 16 and one Sigma_N space
# cover the range while keeping a pass short enough for several passes per run.
ORACLE_KERNEL_DIMS = (2, 9, 16)
ORACLE_MODELS = 3
ORACLE_PLANS = 24


def _no_lp(rng: Random, delta: Fraction) -> list[Item]:
    items = [_oracle_item(f"oracle-ker{n}", zerosum.coordinate_sum_kernel(n),
                          _mu(n) + (delta if n == 2 else 0), rng.randrange(2 ** 31))
             for n in ORACLE_KERNEL_DIMS]
    items.append(_oracle_item("oracle-sigma3-ker3",
                              zerosum.sigma_subspace(zerosum.coordinate_sum_kernel(3), 3).space,
                              _mu(3) * Fraction(4, 3), rng.randrange(2 ** 31)))
    for _ in range(ORACLE_MODELS):
        q = rng.randint(1, 4)
        items.append(_model_item(Fraction(rng.randint(q + 1, 4 * q), q)))
    for _ in range(ORACLE_PLANS):
        den = rng.randint(1, 64)
        items.append(_plan_item(Fraction(rng.randint(den + 1, 32 * den), den)))
    return items + _symmetrize_items(rng)


# ---------------------------------------------------------------------------

def check_outputs(items: list[Item], outputs_per_pass: list[list]) -> int:
    """The gate: check each item's output, and that every pass produced the same.

    Outputs of failed calls are None and skipped.  Returns the number of
    outputs covered.
    """
    covered = 0
    for i, item in enumerate(items):
        outs = [outputs[i] for outputs in outputs_per_pass if outputs[i] is not None]
        if not outs:
            continue
        item.check(outs[0])
        _require(all(out == outs[0] for out in outs[1:]),
                 f"{item.name}: output differs between passes")
        covered += len(outs)
    return covered


# exact-lp: every exact LP, so the simplex does nearly all the work.
# no-lp: the float oracle, sequence models, planner and N!-fold averaging,
# none of which solves an LP, so a simplex change should leave it unchanged.
WORKLOADS = {
    "exact-lp": _exact_lp,
    "no-lp": _no_lp,
}


def make_items(workload: str, seed: int, fault: bool = False) -> list[Item]:
    """One pass of `workload`; `fault` corrupts the first reference value."""
    rng = Random(f"perfbench {workload} {seed}")
    return WORKLOADS[workload](rng, FAULT_DELTA if fault else Fraction(0))
