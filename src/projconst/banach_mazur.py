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
from fractions import Fraction
from itertools import chain
from typing import Mapping, NamedTuple

from .linalg import format_rational, parse_rational

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


class _BMFields(NamedTuple):
    a: "Fraction | float"


class BMParameterSet(_BMFields):
    """The derived coefficients for one value of the shape parameter a > 0.

    Only a is stored: a `Fraction` whose 2a+1 is a rational square (checked
    at construction), and then every coefficient is an exact rational, or a
    float, and then every coefficient is a float.  mu = 1/a,
    root = sqrt(2a + 1), nu = root/a, b = a/root = 1/nu, K = 2*nu + root
    (`bound`) and g = K^2 (`bound_sq`).
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        a = self.a
        if not (isinstance(a, (Fraction, float)) and a > 0):
            raise ValueError(f"shape parameter must be a positive Fraction or float, got {a!r}")
        if isinstance(a, Fraction) and _rational_sqrt(2 * a + 1) is None:
            raise NonExactParameterError(f"2*{a}+1 is not the square of a rational")
        return self

    exact = property(lambda self: not isinstance(self.a, float))
    root = property(lambda self: _rational_sqrt(2 * self.a + 1) if self.exact
                    else math.sqrt(2.0 * self.a + 1.0))
    mu = property(lambda self: 1 / self.a)
    nu = property(lambda self: self.root / self.a)
    b = property(lambda self: self.a / self.root)
    bound = property(lambda self: 2 * self.nu + self.root)
    bound_sq = property(lambda self: self.bound * self.bound)

    def to_json_dict(self) -> dict:
        fmt = format_rational if self.exact else float
        return {"a": fmt(self.a), "mu": fmt(self.mu), "nu": fmt(self.nu), "b": fmt(self.b),
                "root": fmt(self.root), "K": fmt(self.bound), "g": fmt(self.bound_sq),
                "exact": self.exact}


def bm_params(a) -> BMParameterSet:
    """The coefficient set for a shape parameter a > 0.

    Accepts int, Fraction, 'p/q' strings or float; the parameter set is
    exact precisely when 2a+1 is the square of a rational, or else a float
    set, which raises `ValueError` if its a or g leaves the float range.
    """
    a_exact = parse_rational(a) if isinstance(a, str) else Fraction(a)
    if a_exact <= 0:
        raise ValueError(f"shape parameter must be positive, got {a!r}")
    try:
        return BMParameterSet(a_exact)
    except NonExactParameterError:
        pass
    try:
        params = BMParameterSet(float(a_exact))  # ValueError on an underflow to 0
        if math.isfinite(params.bound_sq):
            return params
    except (OverflowError, ValueError):
        pass
    raise ValueError(f"shape parameter {a} is outside the float range")


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

    cubic_residual = property(lambda self: abs(self.a_star ** 3 - 6.0 * self.a_star - 4.0))


def optimize_closed_form() -> ClosedFormOptimum:
    """The exact minimiser of g via the factored optimality cubic.

    a^3 - 6a - 4 factors as (a + 2)(a^2 - 2a - 2); the positive root of the
    quadratic is 1 + sqrt(3).
    """
    return ClosedFormOptimum(1.0 + math.sqrt(3.0), 9.0 + 6.0 * math.sqrt(3.0))


class NumericOptimum(NamedTuple):
    a_star: float
    iterations: int

    g_star = property(lambda self: bound_g(self.a_star))


def optimize_numeric(lo: float, hi: float, tol: float = 1e-9) -> NumericOptimum:
    """Golden-section minimisation of g on [lo, hi]; derivative-free.

    Valid because g is strictly convex on (0, inf).  The bracket must be a
    nondegenerate finite positive interval and `tol` finite and positive.
    The bracket closes on the minimiser 1 + sqrt(3), or on the nearer end
    when it misses it, and may stop shrinking at two float spacings of that
    point (where it straddles a power of two); a smaller `tol` is rejected.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 < lo < hi):
        raise ValueError(f"invalid bracket [{lo}, {hi}]")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"invalid tolerance {tol}")
    closing = min(max(optimize_closed_form().a_star, lo), hi)
    if tol < 2 * math.ulp(closing):
        raise ValueError(f"tolerance {tol} is below two float spacings "
                         f"{2 * math.ulp(closing)} at {closing}, where the bracket closes")
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
    return NumericOptimum(0.5 * (lo + hi), iterations)


PRIOR_BOUND_SQ = 11.0 + 6.0 * math.sqrt(2.0)


class BoundComparison(NamedTuple):
    ours: float
    prior: float

    @property
    def improvement(self) -> float:
        return self.prior - self.ours

    @property
    def strict(self) -> bool:
        return self.ours < self.prior


def compare_with_prior_bound() -> BoundComparison:
    """Our optimal squared bound against the previous record 11 + 6*sqrt(2)."""
    return BoundComparison(optimize_closed_form().g_star, PRIOR_BOUND_SQ)


# ---------------------------------------------------------------------------
# column-finite operators on finitely supported sequences

Vector = dict  # index -> Fraction, zero entries dropped


class _ClauseFields(NamedTuple):
    out_modulus: int
    out_residue: int
    in_modulus: int
    in_residue: int
    coeff: Fraction


class Clause(_ClauseFields):
    """One affine rule: out[M*k + R] += coeff * in[C*k + D] for every k >= 0.

    M = out_modulus, R = out_residue, C = in_modulus, D = in_residue.  With
    R < M and D < C (every stage clause and every composite of such clauses)
    it maps one residue class onto another; a larger R or D is an offset,
    which the "k >= 0" reading keeps exact.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if min(self.out_modulus, self.in_modulus) < 1 or min(self.out_residue, self.in_residue) < 0:
            raise ValueError(f"clause needs moduli >= 1 and residues >= 0, got {self}")
        return self


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


class SeqOperator(NamedTuple):
    """A column- and row-finite linear operator on finitely supported sequences.

    It is the sum of its clauses, each adding out[M*k + R] += coeff *
    in[C*k + D] for every k >= 0 (see `Clause`).  `row(i)` lists the (input
    index, coefficient) pairs feeding output i and `col(j)` the (output index,
    coefficient) pairs fed by input j; both read the one clause tuple.
    `compose(outer, inner)` composes every pair of clauses by one linear
    congruence (`_compose_clauses`) and merges clauses with equal maps.
    """

    clauses: tuple[Clause, ...]

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
        return cls(tuple(Clause(*maps, coeff) for maps, coeff in _merge(pairs)))


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


def _indices_to_read(classes: list[tuple[int, int]], count: int, periods: int):
    """The indices below `count` that earlier indices do not settle, in increasing order.

    `classes` holds one (modulus, residue) pair per clause, which feeds index
    i when i >= residue and (i - residue) % modulus == 0.  From T = max
    residue on, the clauses feeding i depend only on i mod L = lcm(moduli).
    So every index below T + periods * L is read, and past it only those of
    the residue classes mod L fed by two or more clauses; an index of any
    other class is settled by i - L, ..., i - periods * L, all >= T.
    """
    period = math.lcm(*(m for m, _ in classes))
    start = max((r for _, r in classes), default=0) + periods * period
    if start >= count:
        return range(count)
    shared = [i - start for i in range(start, start + period)
              if sum(not (i - r) % m for m, r in classes) >= 2]
    return chain(range(start), (i for base in range(start, count, period)
                                for i in (base + s for s in shared) if i < count))


def operator_norm_window(op: SeqOperator, window: int = 4096) -> NormWindow:
    """Max absolute row sum over output indices below `window`.

    This is a lower bound for the sup-norm operator norm.  `stabilized`
    reports whether the distinct row-coefficient multisets seen in the full
    window already all occur in its first half, the heuristic for "growing
    the window will not reveal new row shapes".

    Row i is read by its clause key: the indices of the clauses feeding it
    (i >= R and (i - R) % M == 0) and, when two of them read the same input,
    which ones coincide.  Rows with equal keys merge equal coefficients, so
    the absolute row sum and the sorted shape are computed once per key.
    From T = max R on, the clauses feeding row i depend only on i mod
    L = lcm(M), and a row fed by at most one clause has no coincidences to
    label: it repeats the key of row i - L.  So past T + L only the residue
    classes fed by two or more clauses are read, where two clauses of
    different slope may read the same input on one row of the class.
    """
    if window < 2:
        raise ValueError(f"window {window} too small")
    maps = [(n, cl.out_modulus, cl.out_residue, cl.in_modulus, cl.in_residue)
            for n, cl in enumerate(op.clauses)]
    coeffs = [cl.coeff for cl in op.clauses]
    seen: set = set()
    patterns_full: set = set()
    patterns_half: set = set()
    best = _ZERO
    half = window // 2
    for i in _indices_to_read([(m, r) for _, m, r, _, _ in maps], window, 1):
        fed = tuple([n for n, m, r, _, _ in maps if i >= r and not (i - r) % m])
        key, labels = fed, range(len(fed))
        if len(fed) > 1:
            inputs = [c * ((i - r) // m) + d
                      for n, m, r, c, d in maps if n in fed]
            if len(set(inputs)) < len(inputs):
                # label each clause by the first clause reading its input
                labels = tuple(map(inputs.index, inputs))
                key = (fed, labels)
        if key in seen:
            continue
        seen.add(key)
        row = _merge(zip(labels, (coeffs[n] for n in fed)))
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
    """Check both composition orders on the first `basis_count` >= 1 unit vectors.

    Each order is composed once from the clauses; column j of the composite
    must then be the unit vector e_j.  From T = max D on, the clauses feeding
    column j depend only on j mod L = lcm(C).  In a residue class fed by one
    clause, column j is one affine map of j; if it is e_j at two points of
    the class it is e_j on the whole class, and a class fed by none fails at
    once.  So past T + 2L only the classes fed by two or more clauses are
    read.
    """
    if basis_count < 1:
        raise ValueError(f"inverse check needs basis_count >= 1, got {basis_count}")
    for composite in (SeqOperator.compose(inverse, forward),
                      SeqOperator.compose(forward, inverse)):
        classes = [(cl.in_modulus, cl.in_residue) for cl in composite.clauses]
        for j in _indices_to_read(classes, basis_count, 2):
            if composite.col(j) != ((j, _ONE),):
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


class SequenceModel(NamedTuple):
    """The instantiated factorization: W = U_a o S o T_a and its inverse."""

    params: BMParameterSet
    stages: tuple[SeqOperator, SeqOperator, SeqOperator]
    inverse_stages: tuple[SeqOperator, SeqOperator, SeqOperator]
    forward: SeqOperator
    inverse: SeqOperator

    bound = property(lambda self: self.params.bound)


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
    ))
    s_mid = SeqOperator((
        Clause(3, 0, 6, 0, _ONE),  # first out component k <- y1_{2k}
        Clause(6, 1, 3, 1, _ONE),  # second out component 2k <- y2_k
        Clause(3, 1, 3, 2, _ONE),  # second out component k += e_k
        Clause(6, 5, 6, 3, _ONE),  # third out component = odd part of y1
    ))
    u_fwd = SeqOperator((
        Clause(4, 0, 3, 0, av),    # out 4k <- a * x1_k
        Clause(4, 2, 3, 1, b),     # out 4k+2 <- b * x2_k
        Clause(1, 0, 3, 2, _ONE),  # out i += f_i
    ))

    u_inv = SeqOperator((
        Clause(3, 0, 4, 0, mu),    # x1_k <- mu * y_{4k}
        Clause(3, 1, 4, 2, nu),    # x2_k <- nu * y_{4k+2}
        Clause(6, 5, 2, 1, _ONE),  # f keeps the odd part of y
    ))
    s_inv = SeqOperator((
        Clause(6, 0, 3, 0, _ONE),  # y1_{2k} <- x1_k
        Clause(3, 0, 3, 2, _ONE),  # y1_i += f_i
        Clause(3, 1, 6, 1, _ONE),  # y2_k <- x2_{2k}
        Clause(6, 5, 6, 4, _ONE),  # e = odd part of x2
    ))
    t_inv = SeqOperator((
        Clause(4, 0, 3, 0, 1 / nu),  # out 4k <- y1_k / nu
        Clause(4, 2, 3, 1, av),      # out 4k+2 <- a * y2_k
        Clause(1, 0, 3, 2, _ONE),    # out i += e_i
    ))

    forward = SeqOperator.compose(u_fwd, SeqOperator.compose(s_mid, t_fwd))
    inverse = SeqOperator.compose(t_inv, SeqOperator.compose(s_inv, u_inv))
    return SequenceModel(params, (t_fwd, s_mid, u_fwd),
                         (u_inv, s_inv, t_inv), forward, inverse)
