"""An optimised upper bound for a Banach-Mazur distance, with a concrete model.

A one-parameter family of three-stage factorizations bounds the distance
between a space and its hyperplanes by

    K(a) = 2*nu + sqrt(2a+1),   nu = sqrt(2a+1)/a,   a > 0,

so the squared bound is the rational function

    g(a) = K(a)^2 = 2a + 9 + 12/a + 4/a^2.

g is strictly convex on (0, inf); its minimiser solves a^3 - 6a - 4 = 0,
whose unique positive root is 1 + sqrt(3), giving the optimal squared bound
9 + 6*sqrt(3) ~ 19.392 and beating the previous record 11 + 6*sqrt(2).

When 2a + 1 is the square of a rational, every coefficient in the
factorization is rational ("exact" parameter sets: a = 3/2, 4, 12, ...) and
the three stages can be instantiated as exact column-finite operators on
finitely supported rational sequences under the sup norm.  That carrier is a
dense subspace, not a complete space; it is chosen because invertibility and
row sums are then decidable by exact arithmetic.  The operators work on
even/odd interleavings of the index set; direct sums of three spaces are
flattened by residue classes mod 3.

Each operator is a finite tuple of affine clauses
out[M*k + R] += c * in[C*k + D] for all k >= 0.  Composing two clauses solves
one linear congruence and gives a clause again, so the three-stage products
are clause tuples too; rows, columns and application all read that tuple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, NamedTuple

from .linalg import format_rational

_ZERO = Fraction(0)
_ONE = Fraction(1)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class NonExactParameterError(ValueError):
    """2a+1 is not a rational square, so the model would need irrationals."""


def _rational_sqrt(value: Fraction) -> Fraction | None:
    if value < 0:
        return None
    num, den = value.numerator, value.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


@dataclass(frozen=True)
class BMParameterSet:
    """The derived coefficients for one value of the shape parameter a.

    All fields are exact rationals when 2a+1 is a rational square, floats
    otherwise.  Identities that always hold (exactly in the exact case, to
    1e-12 otherwise): mu = 1/a, root^2 = 2a + 1, nu = root/a = mu * root,
    b = a/root = 1/nu, K = 2*nu + root, g = K^2.
    """

    a: "Fraction | float"
    mu: "Fraction | float"       # 1/a
    nu: "Fraction | float"       # sqrt(2a+1)/a
    b: "Fraction | float"        # a/sqrt(2a+1) = 1/nu
    root: "Fraction | float"     # sqrt(2a+1)
    bound: "Fraction | float"    # K(a)
    bound_sq: "Fraction | float" # g(a)
    exact: bool

    def to_json_dict(self) -> dict:
        if self.exact:
            fmt = format_rational
        else:
            fmt = float
        return {
            "a": fmt(self.a),
            "mu": fmt(self.mu),
            "nu": fmt(self.nu),
            "b": fmt(self.b),
            "root": fmt(self.root),
            "K": fmt(self.bound),
            "g": fmt(self.bound_sq),
            "exact": self.exact,
        }


def bm_params(a) -> BMParameterSet:
    """Derive the full coefficient set for a shape parameter a > 0.

    Accepts int, Fraction, 'p/q' strings or float; the parameter set is
    exact precisely when 2a+1 is the square of a rational.
    """
    if isinstance(a, str):
        from .linalg import parse_rational
        a_exact = parse_rational(a)
    else:
        a_exact = Fraction(a)
    if a_exact <= 0:
        raise ValueError(f"shape parameter must be positive, got {a!r}")
    root = _rational_sqrt(2 * a_exact + 1)
    if root is not None:
        nu = root / a_exact
        bound = 2 * nu + root
        return BMParameterSet(a_exact, 1 / a_exact, nu, 1 / nu, root,
                              bound, bound * bound, True)
    af = float(a_exact)
    rootf = math.sqrt(2.0 * af + 1.0)
    nuf = rootf / af
    boundf = 2.0 * nuf + rootf
    return BMParameterSet(af, 1.0 / af, nuf, af / rootf, rootf,
                          boundf, boundf * boundf, False)


def bound_g(a) -> "Fraction | float":
    """The squared bound g(a) = 2a + 9 + 12/a + 4/a^2; exact on rationals.

    Satisfies the polynomial identity a^2 g(a) = (a+2)^2 (2a+1).
    """
    if not isinstance(a, float):
        a = Fraction(a)
    if a <= 0:
        raise ValueError(f"shape parameter must be positive, got {a!r}")
    return 2 * a + 9 + 12 / a + 4 / (a * a)


class ClosedFormOptimum(NamedTuple):
    a_star: float
    g_star: float
    cubic_residual: float


def optimize_closed_form() -> ClosedFormOptimum:
    """The exact minimiser of g via the factored optimality cubic.

    a^3 - 6a - 4 factors as (a + 2)(a^2 - 2a - 2); the positive root of the
    quadratic is 1 + sqrt(3).
    """
    a_star = 1.0 + math.sqrt(3.0)
    g_star = 9.0 + 6.0 * math.sqrt(3.0)
    residual = abs(a_star ** 3 - 6.0 * a_star - 4.0)
    return ClosedFormOptimum(a_star, g_star, residual)


class NumericOptimum(NamedTuple):
    a_star: float
    g_star: float
    iterations: int


def optimize_numeric(lo: float, hi: float, tol: float = 1e-9) -> NumericOptimum:
    """Golden-section minimisation of g on [lo, hi]; derivative-free.

    Valid because g is strictly convex on (0, inf).  The bracket must be a
    nondegenerate positive interval.
    """
    if not (0.0 < lo < hi):
        raise ValueError(f"invalid bracket [{lo}, {hi}]")
    if tol <= 0.0:
        raise ValueError(f"invalid tolerance {tol}")
    x1 = hi - GOLDEN * (hi - lo)
    x2 = lo + GOLDEN * (hi - lo)
    f1, f2 = bound_g(x1), bound_g(x2)
    iterations = 0
    while hi - lo > tol:
        iterations += 1
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - GOLDEN * (hi - lo)
            f1 = bound_g(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + GOLDEN * (hi - lo)
            f2 = bound_g(x2)
        if iterations > 10_000:
            raise RuntimeError("golden-section failed to contract the bracket")
    a_star = 0.5 * (lo + hi)
    return NumericOptimum(a_star, bound_g(a_star), iterations)


PRIOR_BOUND_SQ = 11.0 + 6.0 * math.sqrt(2.0)


@dataclass(frozen=True)
class BoundComparison:
    ours: float
    prior: float

    @property
    def improvement(self) -> float:
        return self.prior - self.ours

    @property
    def strict(self) -> bool:
        return self.ours < self.prior

    def to_json_dict(self) -> dict:
        return {
            "ours": self.ours,
            "prior": self.prior,
            "improvement": self.improvement,
            "strict": self.strict,
        }


def compare_with_prior_bound() -> BoundComparison:
    """Our optimal squared bound against the previous record 11 + 6*sqrt(2)."""
    return BoundComparison(optimize_closed_form().g_star, PRIOR_BOUND_SQ)


# ---------------------------------------------------------------------------
# column-finite operators on finitely supported sequences

Vector = dict  # index -> Fraction, zero entries dropped


def unit(index: int) -> Vector:
    return {index: _ONE}


@dataclass(frozen=True)
class Clause:
    """One affine rule: out[M*k + R] += coeff * in[C*k + D] for every k >= 0.

    M = out_modulus, R = out_residue, C = in_modulus, D = in_residue.  With
    R < M and D < C (every stage clause and every composite of such clauses)
    it maps one residue class onto another; a larger R or D is an offset,
    which the "k >= 0" reading keeps exact.
    """

    out_modulus: int
    out_residue: int
    in_modulus: int
    in_residue: int
    coeff: Fraction

    def __post_init__(self):
        if min(self.out_modulus, self.in_modulus) < 1 or min(self.out_residue, self.in_residue) < 0:
            raise ValueError(f"clause needs moduli >= 1 and residues >= 0, got {self}")


def _affine(index: int, m: int, r: int, c: int, d: int) -> int | None:
    """c*k + d for the k >= 0 with index = m*k + r, or None if there is none."""
    k, rem = divmod(index - r, m)
    return c * k + d if k >= 0 and not rem else None


def _compose_clauses(outer: Clause, inner: Clause):
    """((M, R, C, D), coeff) of `outer` after `inner`; maps None if they never meet.

    outer reads mid[C1*t + D1] and inner writes mid[M2*s + R2]; they meet
    where C1*t + D1 = M2*s + R2, t, s >= 0.  With g = gcd(C1, M2) and (t0, s0)
    the least such solution, the meetings are t = t0 + (M2/g)*u and
    s = s0 + (C1/g)*u for u >= 0, which is again a clause in u.
    """
    c1, m2 = outer.in_modulus, inner.out_modulus
    gap = inner.out_residue - outer.in_residue
    g = math.gcd(c1, m2)
    if gap % g:
        return None, _ZERO
    step = m2 // g
    t_mod = gap // g * pow(c1 // g, -1, step) % step
    # s >= 0 needs C1*t >= gap; lift t to the first solution past that
    t_min = max(0, -(-gap // c1))
    t0 = t_min + (t_mod - t_min) % step
    s0 = (c1 * t0 - gap) // m2
    return ((outer.out_modulus * step, outer.out_modulus * t0 + outer.out_residue,
             inner.in_modulus * (c1 // g), inner.in_modulus * s0 + inner.in_residue),
            outer.coeff * inner.coeff)


@dataclass(frozen=True)
class SeqOperator:
    """A column- and row-finite linear operator on finitely supported sequences.

    It is the sum of its clauses, each adding out[M*k + R] += coeff *
    in[C*k + D] for every k >= 0 (see `Clause`).  `row(i)` lists the (input
    index, coefficient) pairs feeding output i and `col(j)` the (output index,
    coefficient) pairs fed by input j; both read the one clause tuple.
    `compose(outer, inner)` composes every pair of clauses by one linear
    congruence (`_compose_clauses`) and merges clauses with equal maps.
    """

    clauses: tuple[Clause, ...]
    descriptor: str

    def row(self, i: int) -> tuple[tuple[int, Fraction], ...]:
        return _merge((_affine(i, cl.out_modulus, cl.out_residue, cl.in_modulus,
                               cl.in_residue), cl.coeff) for cl in self.clauses)

    def col(self, j: int) -> tuple[tuple[int, Fraction], ...]:
        return _merge((_affine(j, cl.in_modulus, cl.in_residue, cl.out_modulus,
                               cl.out_residue), cl.coeff) for cl in self.clauses)

    def apply(self, vec: Mapping[int, Fraction]) -> Vector:
        out: dict[int, Fraction] = {}
        for j, x in vec.items():
            if not x:
                continue
            for i, coeff in self.col(j):
                out[i] = out.get(i, _ZERO) + coeff * x
        return {i: v for i, v in out.items() if v}

    @classmethod
    def compose(cls, outer: "SeqOperator", inner: "SeqOperator") -> "SeqOperator":
        pairs = (_compose_clauses(c1, c2) for c1 in outer.clauses for c2 in inner.clauses)
        return cls(tuple(Clause(*maps, coeff) for maps, coeff in _merge(pairs)),
                   f"{outer.descriptor}∘{inner.descriptor}")


def _merge(pairs) -> tuple:
    """Sum the coefficients per key, sorted by key; drop None keys and zeros."""
    acc: dict = {}
    for idx, coeff in pairs:
        if idx is not None:
            acc[idx] = acc.get(idx, _ZERO) + coeff
    return tuple(sorted((i, c) for i, c in acc.items() if c))


class NormWindow(NamedTuple):
    lower: Fraction
    stabilized: bool


def operator_norm_window(op: SeqOperator, window: int = 4096) -> NormWindow:
    """Max absolute row sum over output indices below `window`.

    This is a lower bound for the sup-norm operator norm.  `stabilized`
    reports whether the distinct row-coefficient multisets seen in the full
    window already all occur in its first half, the heuristic for "growing
    the window will not reveal new row shapes".
    """
    if window < 2:
        raise ValueError(f"window {window} too small")
    best = _ZERO
    patterns_full: set = set()
    patterns_half: set = set()
    half = window // 2
    for i in range(window):
        row = op.row(i)
        total = sum((abs(c) for _, c in row), _ZERO)
        if total > best:
            best = total
        shape = tuple(sorted(c for _, c in row))
        patterns_full.add(shape)
        if i < half:
            patterns_half.add(shape)
    return NormWindow(best, patterns_full == patterns_half)


def verify_inverse(forward: SeqOperator, inverse: SeqOperator,
                   basis_count: int = 256) -> bool:
    """Check both composition orders on the first `basis_count` unit vectors."""
    for j in range(basis_count):
        e = unit(j)
        if inverse.apply(forward.apply(e)) != e:
            return False
        if forward.apply(inverse.apply(e)) != e:
            return False
    return True


# ---------------------------------------------------------------------------
# the concrete three-stage model

# Index conventions.  A single sequence space carries the domain and the
# codomain; even/odd splittings are the maps
#   split_even x = (x_{2k})_k,  split_odd x = (x_{2k+1})_k,
#   embed_even w = w on the even indices, zero on the odd ones,
# and zero_odd keeps the even coordinates (a norm-one projection whose
# kernel is the odd-supported vectors).  Direct sums of three sequence
# spaces are flattened by residue classes mod 3, so component c of triple
# index k lives at flat index 3k + c; a vector from the odd-supported kernel
# keeps its native indexing inside its residue class.


@dataclass(frozen=True)
class SequenceModel:
    """The instantiated factorization: W = U_a o S o T_a and its inverse."""

    params: BMParameterSet
    stages: tuple[SeqOperator, SeqOperator, SeqOperator]
    inverse_stages: tuple[SeqOperator, SeqOperator, SeqOperator]
    forward: SeqOperator
    inverse: SeqOperator
    bound: Fraction


def build_model(a) -> SequenceModel:
    """Instantiate the three stages for an exact parameter set.

    The stage actions, written on triples and then flattened mod 3:

      T_a x       = (nu * even(even x),  mu * odd(even x),  x - zero_odd x)
      S (y1,y2,e) = (even y1,  embed y2 + e,  y1 - zero_odd y1)
      U_a (x1,x2,f) = embed(interleave(a*x1, b*x2)) + f

    and the inverses:

      U_a^-1 y    = (mu * even(even y),  nu * odd(even y),  y - zero_odd y)
      S^-1 (x1,x2,f) = (embed x1 + f,  even x2,  x2 - zero_odd x2)
      T_a^-1 (y1,y2,e) = embed(interleave(y1/nu, a*y2)) + e

    where even/odd extract the even- or odd-indexed half of a sequence and
    embed doubles indices.  Each stage reduces to finitely many residue-class
    clauses on flat indices, recorded below.
    """
    params = bm_params(a)
    if not params.exact:
        raise NonExactParameterError(
            f"2*{a}+1 is not the square of a rational; the sequence model "
            f"needs exact coefficients"
        )
    av, mu, nu, b = params.a, params.mu, params.nu, params.b
    t_fwd = SeqOperator((
        Clause(3, 0, 4, 0, nu),    # first component k <- nu * x_{4k}
        Clause(3, 1, 4, 2, mu),    # second component k <- mu * x_{4k+2}
        Clause(6, 5, 2, 1, _ONE),  # third component keeps the odd part of x
    ), "T_a")
    s_mid = SeqOperator((
        Clause(3, 0, 6, 0, _ONE),  # first out component k <- y1_{2k}
        Clause(6, 1, 3, 1, _ONE),  # second out component 2k <- y2_k
        Clause(3, 1, 3, 2, _ONE),  # second out component k += e_k
        Clause(6, 5, 6, 3, _ONE),  # third out component = odd part of y1
    ), "S")
    u_fwd = SeqOperator((
        Clause(4, 0, 3, 0, av),    # out 4k <- a * x1_k
        Clause(4, 2, 3, 1, b),     # out 4k+2 <- b * x2_k
        Clause(1, 0, 3, 2, _ONE),  # out i += f_i
    ), "U_a")

    u_inv = SeqOperator((
        Clause(3, 0, 4, 0, mu),    # x1_k <- mu * y_{4k}
        Clause(3, 1, 4, 2, nu),    # x2_k <- nu * y_{4k+2}
        Clause(6, 5, 2, 1, _ONE),  # f keeps the odd part of y
    ), "U_a^-1")
    s_inv = SeqOperator((
        Clause(6, 0, 3, 0, _ONE),  # y1_{2k} <- x1_k
        Clause(3, 0, 3, 2, _ONE),  # y1_i += f_i
        Clause(3, 1, 6, 1, _ONE),  # y2_k <- x2_{2k}
        Clause(6, 5, 6, 4, _ONE),  # e = odd part of x2
    ), "S^-1")
    t_inv = SeqOperator((
        Clause(4, 0, 3, 0, 1 / nu),  # out 4k <- y1_k / nu
        Clause(4, 2, 3, 1, av),      # out 4k+2 <- a * y2_k
        Clause(1, 0, 3, 2, _ONE),    # out i += e_i
    ), "T_a^-1")

    forward = SeqOperator.compose(u_fwd, SeqOperator.compose(s_mid, t_fwd))
    inverse = SeqOperator.compose(t_inv, SeqOperator.compose(s_inv, u_inv))
    return SequenceModel(params, (t_fwd, s_mid, u_fwd),
                         (u_inv, s_inv, t_inv), forward, inverse, params.bound)
