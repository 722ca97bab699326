"""The zero-sum levels by full-space LP solves, as a differential oracle.

`sigma_steps_by_lp` is the former body of `zerosum.sigma_steps`: it builds
each level Sigma_N^k(base) and solves its minimal-projection program in
ell_inf^{d N^k}, where `sigma_steps` now checks a tensored certificate.
"""

from projconst.minproj import DEFAULT_BUDGET, BudgetExceededError, projection_constant
from projconst.simplex import PivotLimitExceeded
from projconst.zerosum import sigma_subspace


def sigma_steps_by_lp(base, copies, steps, budget=DEFAULT_BUDGET):
    current = base
    for _ in range(steps):
        ambient = current.ambient_dim * copies
        try:
            budget.require_shape(ambient, (copies - 1) * current.dim)
            current = sigma_subspace(current, copies).space
            lam = projection_constant(current).value
        except (BudgetExceededError, PivotLimitExceeded):
            yield ambient, None
            return
        yield ambient, lam
