#!/usr/bin/env python3
"""Scan the squared decomposition bound g(a) = 2a + 9 + 12/a + 4/a^2.

Prints a grid of exact values, the closed-form and golden-section optima,
the comparison against the previous record 11 + 6*sqrt(2), and the derived
coefficient tables for the shape parameters whose sequence model is exact.
"""

import argparse
from fractions import Fraction

from projconst import (
    bm_params,
    bound_g,
    build_model,
    compare_with_prior_bound,
    format_rational,
    operator_norm_window,
    optimize_closed_form,
    optimize_numeric,
    verify_inverse,
)

EXACT_PARAMS = (Fraction(3, 2), Fraction(4), Fraction(12))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grid-den", type=int, default=4,
                        help="grid resolution: steps of 1/DEN (default 4)")
    parser.add_argument("--grid-max", type=int, default=8,
                        help="largest grid value of a (default 8)")
    args = parser.parse_args()
    if args.grid_den < 1 or args.grid_max < 1:
        parser.error("grid parameters must be positive")

    print(f"{'a':>8}  {'g(a) exact':>14}  {'g(a) float':>12}")
    print("-" * 40)
    best = None
    for i in range(1, args.grid_max * args.grid_den + 1):
        a = Fraction(i, args.grid_den)
        g = bound_g(a)
        if best is None or g < best[1]:
            best = (a, g)
        print(f"{format_rational(a):>8}  {format_rational(g):>14}  {float(g):>12.6f}")
    print(f"\ngrid minimum: g({format_rational(best[0])}) = "
          f"{format_rational(best[1])} = {float(best[1]):.6f}")

    closed = optimize_closed_form()
    numeric = optimize_numeric(0.1, float(args.grid_max), tol=1e-10)
    print(f"closed form:  a* = {closed.a_star:.12f}, g* = {closed.g_star:.12f}")
    print(f"golden sect.: a* = {numeric.a_star:.12f}, g* = {numeric.g_star:.12f} "
          f"({numeric.iterations} iterations)")

    cmp = compare_with_prior_bound()
    print(f"previous record: {cmp.prior:.12f}")
    print(f"improvement:     {cmp.improvement:.6f} (strict: {cmp.strict})")

    print("\nexact sequence models:")
    print(f"{'a':>6}  {'sqrt(2a+1)':>10}  {'K(a)':>6}  {'norm lower bounds':>18}  inverse")
    print("-" * 64)
    for a in EXACT_PARAMS:
        params = bm_params(a)
        model = build_model(a)
        ok = verify_inverse(model.forward, model.inverse)
        fwd = operator_norm_window(model.forward)
        inv = operator_norm_window(model.inverse)
        bounds = f"{format_rational(fwd.lower)} / {format_rational(inv.lower)}"
        print(f"{format_rational(a):>6}  {format_rational(params.root):>10}  "
              f"{format_rational(params.bound):>6}  {bounds:>18}  "
              f"{'ok' if ok else 'FAILED'}")
        if not ok:
            raise SystemExit(1)


if __name__ == "__main__":
    main()
