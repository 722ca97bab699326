"""The per-restart loop that `projconst.minproj.float_oracle` replaced, kept as a test oracle.

`reference_restart_bests` is the former subgradient descent verbatim: one
restart at a time, each with its own Python loop over the iterations, and a
`break` once a restart's gradient vanishes.  Its only change is where the
starting points come from: restarts 1..R-1 start at
`random.Random(config.seed).gauss(0.0, initial_step)` draws, in restart
order and each Theta row-major, where the former code drew them from
`numpy.random.default_rng(config.seed)`.  It returns the unsorted list of
per-restart bests (the former early return for n = k becomes a one-element
list), and `reference_verdict` applies the former agreement rule to it.
The final step of the decay, once an `OracleConfig` field, is read from
the constant `ORACLE_FINAL_STEP`, with the same value.
The batched descent must return the identical list, bit for bit.
"""

from __future__ import annotations

import math
from random import Random

import numpy as np

from projconst.linalg import Subspace
from projconst.minproj import ORACLE_FINAL_STEP, OracleConfig, OracleInconclusive


def reference_restart_bests(space: Subspace, config: OracleConfig = OracleConfig()) -> list[float]:
    basis = np.array([[float(x) for x in space.basis.row(i)]
                      for i in range(space.dim)])
    k, n = basis.shape
    bt = basis.T
    # Base point: C0 = (B B^T)^{-1} B satisfies C0 B^T = I.
    c0 = np.linalg.solve(basis @ basis.T, basis)
    p0 = bt @ c0

    _, s, vh = np.linalg.svd(basis)
    tol_rank = max(n, k) * (s[0] if len(s) else 1.0) * np.finfo(float).eps
    null = vh[(s > tol_rank).sum():].T  # n x (n-k), orthonormal columns
    n_free = null.shape[1]

    def objective_and_grad(theta):
        p = p0 + bt @ theta @ null.T
        sums = np.abs(p).sum(axis=1)
        i_star = int(np.argmax(sums))
        signs = np.sign(p[i_star])
        signs[signs == 0.0] = 1.0
        grad = np.outer(bt[i_star], signs @ null)
        return float(sums[i_star]), grad

    if n_free == 0:
        value, _ = objective_and_grad(np.zeros((k, 0)))
        return [value]

    rng = Random(config.seed)
    initial_step = max(1.0, float(np.abs(p0).sum(axis=1).max()))
    decay = (ORACLE_FINAL_STEP / initial_step) ** (1.0 / config.iterations)

    results = []
    for restart in range(config.restarts):
        if restart == 0:
            theta = np.zeros((k, n_free))
        else:
            theta = np.reshape([rng.gauss(0.0, initial_step) for _ in range(k * n_free)],
                               (k, n_free))
        step = initial_step
        best = math.inf
        for _ in range(config.iterations):
            value, grad = objective_and_grad(theta)
            if value < best:
                best = value
            gnorm = np.linalg.norm(grad)
            if gnorm == 0.0:
                break
            theta = theta - (step / gnorm) * grad
            step *= decay
        results.append(best)
    return results


def reference_verdict(results: list[float], tol: float = 1e-6) -> float:
    results = sorted(results)
    if len(results) >= 2 and results[1] - results[0] > tol / 4:
        raise OracleInconclusive(
            f"restart agreement {results[1] - results[0]:.3e} exceeds {tol / 4:.3e}"
        )
    return results[0]
