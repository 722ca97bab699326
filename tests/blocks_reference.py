"""Dense block matrices and index loops that `projconst.zerosum` replaced, kept as a test oracle.

`block_permutation` and `coordinatewise_lift` build the dN x dN 0/1
permutation and block-diagonal lift matrices, verbatim from the package
before the change.  `reference_extract_r` is the former `extract_r`
verbatim, apart from its name and its use of the reference centring map: it
checks invariance by multiplying with two dense block permutations and the
factorization by the dense product lift(r) @ centring.  It returns the
decomposition together with the blocks a and b that it reads itself, which
the decomposition now derives on access.  The index-map `extract_r` must
return the identical decomposition with the same blocks, or raise the same
exception, on every input.

`reference_sigma_subspace`, `reference_coordinate_sum_kernel`,
`reference_centring_projection` and `reference_centring_witness` are the
index loops the package ran before it built those objects as Kronecker
products; the `Mat.kron` versions must equal them entry for entry.
`reference_sigma_subspace` returns the zero-sum space itself, which a
`ZeroSumSpace` builds from its base and block count on access.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from linalg_reference import (
    column,
    entry,
    from_flat,
    integer_add,
    integer_scale,
    subspace_contains,
    zeros,
)

from projconst.linalg import Mat, Subspace, inf_op_norm
from projconst.zerosum import (
    DecompositionIntegrityError,
    NotSymmetrizedError,
    SymmetrizationDecomposition,
    amplification_factor,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


def reference_sigma_subspace(base: Subspace, copies: int) -> Subspace:
    """The zero-sum space of `copies` blocks of `base` inside ell_inf^{d*copies}.

    Basis rows pair each base row b with one of the later blocks:
    (b in block 1, -b in block j, 0 elsewhere), giving dimension (N-1)*k.
    """
    if copies < 2:
        raise ValueError(f"need at least 2 copies, got {copies}")
    d = base.ambient_dim
    rows = []
    for j in range(1, copies):
        for i in range(base.dim):
            row = [_ZERO] * (d * copies)
            for c, x in enumerate(base.basis.row(i)):
                row[c] = x
                row[j * d + c] = -x
            rows.append(row)
    return Subspace.from_rows(rows)


def reference_coordinate_sum_kernel(dim: int) -> Subspace:
    """The hyperplane {x : x_1 + ... + x_n = 0} of ell_inf^n, as n scalar blocks."""
    if dim < 2:
        raise ValueError(f"kernel hyperplane needs dimension >= 2, got {dim}")
    scalar_line = Subspace.from_rows([[_ONE]])
    return reference_sigma_subspace(scalar_line, dim)


def reference_centring_projection(block_dim: int, copies: int) -> Mat:
    """Entry ((i,r),(j,c)) is delta_rc * (delta_ij - 1/N), written entry by entry."""
    if block_dim < 1:
        raise ValueError(f"invalid block dimension {block_dim}")
    if copies < 2:
        raise ValueError(f"need at least 2 copies, got {copies}")
    d, n = block_dim, copies
    size = d * n
    inv = Fraction(1, n)
    flat = [_ZERO] * (size * size)
    for i in range(n):
        for j in range(n):
            val = (_ONE if i == j else _ZERO) - inv
            for r in range(d):
                flat[(i * d + r) * size + (j * d + r)] = val
    return from_flat(size, size, flat)


def reference_centring_witness(block_dim: int,
                               copies: int) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """(u, -u, ..., -u) with u the first coordinate vector, and its image block by block."""
    d, n = block_dim, copies
    if d < 1:
        raise ValueError(f"invalid block dimension {block_dim}")
    if n < 2:
        raise ValueError(f"need at least 2 copies, got {copies}")
    u = [_ONE] + [_ZERO] * (d - 1)
    x = list(u)
    for _ in range(n - 1):
        x.extend(-v for v in u)
    mu = amplification_factor(n)
    image = [mu * v for v in u]
    tail = Fraction(-2, n)
    for _ in range(n - 1):
        image.extend(tail * v for v in u)
    return tuple(x), tuple(image)


def block_permutation(num_blocks: int, block_dim: int, sigma: Sequence[int]) -> Mat:
    """0/1 matrix permuting the N blocks of a dN-vector: block j moves to block sigma[j].

    `sigma` is a 0-based permutation of range(num_blocks).  The result always
    has inf->inf norm 1, and composition of block permutations follows
    composition of the permutations.
    """
    n, d = num_blocks, block_dim
    if n < 1 or d < 1:
        raise ValueError(f"invalid block structure: {n} blocks of dimension {d}")
    if sorted(sigma) != list(range(n)):
        raise ValueError(f"{sigma!r} is not a permutation of 0..{n - 1}")
    size = n * d
    one, zero = Fraction(1), Fraction(0)
    flat = [zero] * (size * size)
    for j in range(n):
        target = sigma[j]
        for r in range(d):
            flat[(target * d + r) * size + (j * d + r)] = one
    return from_flat(size, size, flat)


def coordinatewise_lift(q: Mat, copies: int) -> Mat:
    """Apply `q` to every block: the block-diagonal matrix diag(q, ..., q)."""
    if q.rows != q.cols:
        raise ValueError(f"lift needs a square block, got {q.rows}x{q.cols}")
    if copies < 1:
        raise ValueError(f"invalid copy count {copies}")
    d = q.rows
    size = d * copies
    flat = [_ZERO] * (size * size)
    for b in range(copies):
        for r in range(d):
            base = (b * d + r) * size + b * d
            row = q.row(r)
            for c in range(d):
                flat[base + c] = row[c]
    return from_flat(size, size, flat)


def reference_extract_r(p_tilde: Mat, base: Subspace,
                        copies: int) -> tuple[SymmetrizationDecomposition, Mat, Mat]:
    """Read off the block structure of a symmetrized projection, and its blocks a and b.

    Verifies, exactly: invariance under block permutations, equality of the
    off-diagonal blocks, the trace condition a + (N-1) b = 0, idempotence of
    r = a - b, that r fixes the base subspace, the factorization
    p_tilde = lift(r) o centring, and the norm identity.
    """
    d, n = base.ambient_dim, copies
    if n < 2:
        raise ValueError(f"need at least 2 copies, got {copies}")
    size = d * n
    if (p_tilde.rows, p_tilde.cols) != (size, size):
        raise ValueError(f"matrix is {p_tilde.rows}x{p_tilde.cols}, expected {size}x{size}")

    # Commuting with a transposition and an N-cycle commutes with everything.
    swap = list(range(n))
    swap[0], swap[1] = 1, 0
    for sigma in (swap, [(i + 1) % n for i in range(n)]):
        u = block_permutation(n, d, sigma)
        if u @ p_tilde != p_tilde @ u:
            raise NotSymmetrizedError(
                "matrix does not commute with the block permutations"
            )

    def block(bi: int, bj: int) -> Mat:
        return Mat.from_rows([
            [entry(p_tilde, bi * d + r, bj * d + c) for c in range(d)]
            for r in range(d)
        ])

    a = block(0, 0)
    b = block(1, 0)
    for i in range(2, n):
        if block(i, 0) != b:
            raise NotSymmetrizedError("off-diagonal blocks of the first column differ")

    if integer_add(a, integer_scale(b, n - 1)) != zeros(d, d):
        raise DecompositionIntegrityError("block trace a + (N-1) b does not vanish")

    r = integer_add(a, integer_scale(b, -1))
    if not r.is_idempotent():
        raise DecompositionIntegrityError("collapsed block map is not idempotent")
    for i in range(base.dim):
        row = base.basis.row(i)
        if r.apply(row) != row:
            raise DecompositionIntegrityError("collapsed block map moves the base subspace")
    for j in range(d):
        if not subspace_contains(base, column(r, j)):
            raise DecompositionIntegrityError("collapsed block map leaves the base subspace")
    if a != integer_scale(r, Fraction(n - 1, n)) or b != integer_scale(r, Fraction(-1, n)):
        raise DecompositionIntegrityError("blocks are not the expected multiples of r")
    if coordinatewise_lift(r, n) @ reference_centring_projection(d, n) != p_tilde:
        raise DecompositionIntegrityError("matrix does not factor through the centring map")
    p_tilde_norm, r_norm = inf_op_norm(p_tilde).value, inf_op_norm(r).value
    if p_tilde_norm != amplification_factor(n) * r_norm:
        raise DecompositionIntegrityError("norm identity (2 - 2/N) * norm(r) fails")
    return SymmetrizationDecomposition(p_tilde, r, p_tilde_norm, r_norm), a, b
