"""Command-line interface.

Subcommands: minproj, zerosum, plan, bm, selftest.  Every command writes its
result JSON to standard output (sorted keys, reduced 'p/q' rationals, so
identical inputs give byte-identical output) and a one-line run report --
command, input digest, status, wall time -- to standard error.

Exit codes:
    0  success
    1  selftest found a failing acceptance criterion
    2  malformed input, or a parameter out of its documented range
    3  basis rows are linearly dependent
    4  internal solver-integrity failure
    5  LP budget or pivot limit exceeded (result inconclusive)
    6  demonstration base constant does not match the plan
    7  non-exact shape parameter passed to the sequence model
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from fractions import Fraction

from .acceptance import Context, run_all
from .banach_mazur import (
    NonExactParameterError,
    bm_params,
    build_model,
    compare_with_prior_bound,
    operator_norm_window,
    optimize_closed_form,
    optimize_numeric,
    verify_inverse,
)
from .linalg import RankDeficientError, Subspace, format_rational, parse_rational
from .minproj import (
    BudgetExceededError,
    LPBudget,
    OracleConfig,
    OracleInconclusive,
    SolverIntegrityError,
    float_oracle,
    projection_constant,
)
from .planner import BaseConstantMismatch, demonstrate_schedule, plan_parameters
from .simplex import PivotLimitExceeded, SimplexError
from .zerosum import verify_multiplication_law

EXIT_OK = 0
EXIT_SELFTEST_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_RANK_DEFICIENT = 3
EXIT_SOLVER_INTEGRITY = 4
EXIT_BUDGET = 5
EXIT_BASE_MISMATCH = 6
EXIT_NON_EXACT = 7


class InputError(ValueError):
    """Malformed document or out-of-range parameter (exit 2)."""


# Exception class -> (exit code, run-report status).  The first matching row
# wins, so a subclass must precede its base (PivotLimitExceeded before
# SimplexError, every ValueError subclass before ValueError).
EXIT_TABLE: tuple[tuple[type[Exception], int, str], ...] = (
    (InputError, EXIT_BAD_INPUT, "error"),
    (RankDeficientError, EXIT_RANK_DEFICIENT, "error"),
    (BudgetExceededError, EXIT_BUDGET, "inconclusive"),
    (PivotLimitExceeded, EXIT_BUDGET, "inconclusive"),
    (OracleInconclusive, EXIT_BUDGET, "inconclusive"),
    (BaseConstantMismatch, EXIT_BASE_MISMATCH, "error"),
    (NonExactParameterError, EXIT_NON_EXACT, "error"),
    (SolverIntegrityError, EXIT_SOLVER_INTEGRITY, "error"),
    (SimplexError, EXIT_SOLVER_INTEGRITY, "error"),
    (ValueError, EXIT_BAD_INPUT, "error"),
)
_HANDLED = tuple(cls for cls, _, _ in EXIT_TABLE)


def load_subspace_document(path: str) -> tuple[Subspace, bytes]:
    """Read a subspace document: {"ambient_dim": n, "basis": [["p/q", ...], ...]}."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "ambient_dim" not in doc or "basis" not in doc:
        raise InputError(f"{path} must be an object with ambient_dim and basis")
    ambient = doc["ambient_dim"]
    basis = doc["basis"]
    if isinstance(ambient, bool) or not isinstance(ambient, int) or ambient < 1:
        raise InputError(f"ambient_dim must be a positive integer, got {ambient!r}")
    if (not isinstance(basis, list) or not basis
            or not all(isinstance(row, list) for row in basis)):
        raise InputError("basis must be a nonempty list of rows")
    rows = [[parse_rational(str(x)) for x in row] for row in basis]
    widths = {len(row) for row in rows}
    if widths != {ambient}:
        raise InputError(f"basis rows must all have length {ambient}")
    return Subspace.from_rows(rows, ambient_dim=ambient), raw


def emit(payload: dict):
    sys.stdout.write(json.dumps(payload, sort_keys=True, ensure_ascii=False) + "\n")


def _parse_budget(text: str) -> LPBudget:
    try:
        limits = [int(part) for part in text.split(",")]
    except ValueError:
        limits = []
    if not 1 <= len(limits) <= 2:
        raise InputError(f"budget must be 'AMBIENT' or 'AMBIENT,DIM', got {text!r}")
    if min(limits) < 1:
        raise InputError(f"budget limits must be positive, got {text!r}")
    return LPBudget(*limits)


def cmd_minproj(args) -> tuple[int, str]:
    if not 0 < args.tol < math.inf:
        raise InputError(f"oracle tolerance must be finite and positive, got {args.tol}")
    space, _ = load_subspace_document(args.input)
    args.budget.require(space)
    result = projection_constant(space)
    payload = result.to_json_dict()
    if args.oracle:
        estimate = float_oracle(space, tol=args.tol,
                                config=OracleConfig(seed=args.seed))
        payload["oracle"] = {
            "estimate": estimate,
            "tol": args.tol,
            "agrees": abs(estimate - float(result.value)) <= args.tol,
        }
        if not payload["oracle"]["agrees"]:
            emit(payload)
            raise SolverIntegrityError(
                f"oracle estimate {estimate} disagrees with exact value {result.value}"
            )
    emit(payload)
    return EXIT_OK, "ok"


def cmd_zerosum(args) -> tuple[int, str]:
    if args.copies < 2:
        raise InputError(f"copies must be at least 2, got {args.copies}")
    space, _ = load_subspace_document(args.input)
    report = verify_multiplication_law(space, args.copies, args.budget)
    emit(report.to_json_dict())
    if report.status == "inconclusive":
        return EXIT_BUDGET, "inconclusive"
    if report.equal is not True:
        raise SolverIntegrityError("multiplication law failed on an exact instance")
    return EXIT_OK, "ok"


def cmd_plan(args) -> tuple[int, str]:
    plan = plan_parameters(parse_rational(args.lambda_target))
    payload = plan.to_json_dict()
    status = "ok"
    if args.demo is not None:
        space, _ = load_subspace_document(args.demo)
        steps = plan.m if args.steps is None else args.steps
        report = demonstrate_schedule(space, plan, steps, args.budget)
        payload["demo"] = report.to_json_dict()
        status = report.status
        emit(payload)
        if status == "inconclusive":
            return EXIT_BUDGET, status
        if status != "ok":
            raise SolverIntegrityError("schedule demonstration failed an exact check")
        return EXIT_OK, status
    emit(payload)
    return EXIT_OK, status


def cmd_bm(args) -> tuple[int, str]:
    if args.optimize:
        closed = optimize_closed_form()
        numeric = optimize_numeric(0.1, 10.0, tol=1e-9)
        cmp = compare_with_prior_bound()
        emit({
            "a_star": closed.a_star,
            "g_star": closed.g_star,
            "cubic_residual": closed.cubic_residual,
            "numeric_a_star": numeric.a_star,
            "numeric_g_star": numeric.g_star,
            "prior_bound": cmp.prior,
            "improvement": cmp.improvement,
            "strict": cmp.strict,
        })
        return EXIT_OK, "ok"
    if args.params is not None:
        emit(bm_params(args.params).to_json_dict())
        return EXIT_OK, "ok"
    # --model
    value = parse_rational(args.model)
    if value <= 0:
        raise InputError(f"shape parameter must be positive, got {args.model}")
    model = build_model(value)
    inverse_ok = verify_inverse(model.forward, model.inverse, 256)
    fwd = operator_norm_window(model.forward, args.window)
    inv = operator_norm_window(model.inverse, args.window)
    emit({
        "a": format_rational(model.params.a),
        "K": format_rational(model.bound),
        "inverse_ok": inverse_ok,
        "W_norm_lower": format_rational(fwd.lower),
        "Winv_norm_lower": format_rational(inv.lower),
        "stabilized": fwd.stabilized and inv.stabilized,
    })
    if not inverse_ok:
        raise SolverIntegrityError("model inverse check failed")
    return EXIT_OK, "ok"


def cmd_selftest(args) -> tuple[int, str]:
    only = set(args.only.split(",")) if args.only else None
    results = run_all(Context(seed=args.seed, budget=args.budget), only=only)
    if args.json:
        emit({
            "criteria": [r.to_json_dict() for r in results],
            "passed": all(r.passed for r in results),
            "seed": args.seed,
        })
    else:
        for r in results:
            tag = "PASS" if r.passed else "FAIL"
            sys.stdout.write(f"[{tag}] {r.key}: {r.detail}\n")
        failed = [r.key for r in results if not r.passed]
        if failed:
            sys.stdout.write(f"FAILED ({len(failed)}): {', '.join(failed)}\n")
        else:
            sys.stdout.write(f"OK ({len(results)} criteria)\n")
    if all(r.passed for r in results):
        return EXIT_OK, "ok"
    return EXIT_SELFTEST_FAILED, "failed"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="projconst",
        description="Exact projection constants, zero-sum amplification, "
                    "and the optimised decomposition bound.",
    )
    parser.add_argument("--json", action="store_true",
                        help="machine-readable summary where a command has a plain form")
    parser.add_argument("--budget", type=str, default=None, metavar="AMBIENT[,DIM]",
                        help="LP size budget (default 12,6)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized checks and the oracle")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("minproj", help="exact lambda(E, ell_inf^n) for a subspace document")
    p.add_argument("input", help="subspace JSON document")
    p.add_argument("--oracle", action="store_true",
                   help="also run the floating-point oracle and compare")
    p.add_argument("--tol", type=float, default=1e-6,
                   help="oracle agreement tolerance, finite and positive")
    p.set_defaults(fn=cmd_minproj)

    p = sub.add_parser("zerosum", help="certify the amplification law for a base subspace")
    p.add_argument("input", help="subspace JSON document")
    p.add_argument("--copies", type=int, required=True, metavar="N",
                   help="number of blocks, at least 2; the zero-sum space "
                        "lies in ell_inf^(N*n) and must fit the LP budget")
    p.set_defaults(fn=cmd_zerosum)

    p = sub.add_parser("plan", help="amplification plan for a rational target > 1")
    p.add_argument("--lambda", dest="lambda_target", required=True, metavar="P/Q",
                   help="target constant")
    p.add_argument("--demo", default=None, metavar="DOC",
                   help="base subspace document to run the schedule on")
    p.add_argument("--steps", type=int, default=None,
                   help="number of demonstration steps (default: all)")
    p.set_defaults(fn=cmd_plan)

    p = sub.add_parser("bm", help="decomposition-bound optimizer and sequence model")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--optimize", action="store_true",
                       help="minimise the squared bound g")
    group.add_argument("--params", default=None, metavar="A",
                       help="derived coefficient set for shape parameter a")
    group.add_argument("--model", default=None, metavar="A",
                       help="build and check the exact sequence model")
    p.add_argument("--window", type=int, default=4096,
                   help="row window for operator norm lower bounds")
    p.set_defaults(fn=cmd_bm)

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    p.add_argument("--only", default=None, metavar="KEYS",
                   help=argparse.SUPPRESS)
    p.set_defaults(fn=cmd_selftest)

    return parser


def _digest(args, argv) -> str:
    h = hashlib.sha256()
    h.update(" ".join(argv).encode())
    for attr in ("input", "demo"):
        path = getattr(args, attr, None)
        if path:
            try:
                with open(path, "rb") as fh:
                    h.update(fh.read())
            except OSError:
                pass
    return h.hexdigest()


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, which matches the malformed-input code
        return EXIT_BAD_INPUT if exc.code else EXIT_OK
    started = time.perf_counter()
    code, status = EXIT_OK, "ok"
    try:
        args.budget = _parse_budget(args.budget) if args.budget else LPBudget()
        code, status = args.fn(args)
    except _HANDLED as exc:
        print(f"error: {exc}", file=sys.stderr)
        code, status = next((c, st) for cls, c, st in EXIT_TABLE if isinstance(exc, cls))
    wall_ms = int((time.perf_counter() - started) * 1000)
    report = {
        "command": getattr(args, "command", None),
        "inputs_digest": _digest(args, argv),
        "status": status,
        "wall_time_ms": wall_ms,
    }
    print(json.dumps(report, sort_keys=True), file=sys.stderr)
    return code


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
