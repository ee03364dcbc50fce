"""The superspace rotation group and its Lie algebra.

Membership tests for the inner-product-preserving supermatrices and their
super-antisymmetric generators, the constructive decomposition of any
superrotation into three exponentials (compact, symmetric, nilpotent), the
real matrix-log helpers behind it, the unitary squashing of the compact
symplectic block, and seeded random generators for both levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import AlgebraError, MembershipError, NotInvertibleError, SingularBodyError
from .grassmann import (DEFAULT_TOL, GrassmannNumber, _blade_product, _drop_zero_slices,
                        _union_add, random_grassmann)
from .supermatrix import (
    GrassmannMatrix,
    Supermatrix,
    _q_gram_body,
    expm,
    logm,
    split_symplectic_form,
    symplectic_form,
)

# Threshold separating a 2x2 rotation block from two real eigenvalues in a
# real Schur form of an orthogonal matrix.
_SCHUR_BLOCK_EPS = 1e-10


# -- group and algebra membership ----------------------------------------------


@dataclass(frozen=True)
class GroupReport:
    """Diagnostics for membership in the inner-product-preserving group."""

    ok: bool
    defining_residual: float
    block_residual: float
    sdet: GrassmannNumber | None
    sdet_deviation: float

    @property
    def residual(self) -> float:
        return max(self.defining_residual, self.block_residual)


@dataclass(frozen=True)
class AlgebraReport:
    """Diagnostics for membership in the super-antisymmetric Lie algebra."""

    ok: bool
    defining_residual: float
    block_residual: float

    @property
    def residual(self) -> float:
        return max(self.defining_residual, self.block_residual)


def _shape(mat: Supermatrix) -> tuple[int, int]:
    if mat.q % 2:
        raise MembershipError("odd block size q; expected q = 2n")
    return mat.p, mat.q // 2


def _residuals(mat: Supermatrix, gram: np.ndarray, group: bool) -> tuple[float, float]:
    """(norm, block residual) of M^{ST} G M - G (group) or X^{ST} G + G X,
    one blade stack for a real block-diagonal body G (so M^{ST} G is M^T G
    with its C block negated).  Norms skip all-zero slices, as a matrix
    stores none; a non-finite entry raises AlgebraError."""
    p, x = mat.p, mat.mat
    left = x.stack.transpose(0, 2, 1) @ gram
    left[:, p:, :p] *= -1.0
    if group:
        masks, stack = _union_add(*_blade_product(np.matmul, x.masks, left, x.masks, x.stack,
                                                  mat.order, gram.shape), (0,), -gram[None])
    else:
        masks, stack = x.masks, left + gram @ x.stack
    if not np.isfinite(stack).all():
        raise AlgebraError("non-finite entry in the defining expression")
    total, a, b, d = (float(np.abs(_drop_zero_slices(masks, part)[1]).sum()) for part in (
        stack, stack[:, :p, :p], stack[:, :p, p:], stack[:, p:, p:]))
    return total, max(a, b, d if group else 2.0 * d)


def check_o0(mat: Supermatrix, tol: float = DEFAULT_TOL) -> GroupReport:
    """Does mat preserve the super inner product, M^{ST} Q M = Q?

    The defining expression M^{ST} Q M - Q is built once, as one blade
    stack (``_residuals``).  Its A, B and D blocks are the three block
    equations of the group (C is minus the transpose of B), so
    ``defining_residual`` is its norm and ``block_residual`` the largest of
    those three block norms.  A Berezinian that fails on a singular body is
    reported as sdet None with ok False.  Raises MembershipError for odd q
    and AlgebraError when an entry of the expression is not finite.
    """
    defining, blocks = _residuals(mat, _q_gram_body(*_shape(mat)), group=True)
    try:
        sdet = mat.sdet()
        deviation = min((sdet - 1.0).norm(), (sdet + 1.0).norm())
    except (NotInvertibleError, SingularBodyError):
        sdet, deviation = None, math.inf
    scale = max(1.0, mat.norm())
    ok = defining <= tol * scale and blocks <= tol * scale and deviation <= tol
    return GroupReport(ok, defining, blocks, sdet, deviation)


def check_so0(mat: Supermatrix, tol: float = DEFAULT_TOL) -> GroupReport:
    """check_o0 plus sdet = 1."""
    base = check_o0(mat, tol)
    if base.sdet is None:
        return base
    deviation = (base.sdet - 1.0).norm()
    ok = base.ok and deviation <= tol
    return GroupReport(ok, base.defining_residual, base.block_residual,
                       base.sdet, deviation)


def check_so0_algebra(mat: Supermatrix, tol: float = DEFAULT_TOL) -> AlgebraReport:
    """Membership in the Lie algebra, X^{ST} Q + Q X = 0.

    The expression is built once (``_residuals``); ``defining_residual``
    is its norm.  In the blocks A, B, C, D of X, its A, B and D blocks are
    A^T + A, B - C^T Omega / 2 and -(D^T Omega + Omega D) / 2, so
    ``block_residual``, the largest norm of A^T + A, B - C^T Omega / 2 and
    D^T Omega + Omega D, is max(|A block|, |B block|, 2 |D block|).
    """
    defining, blocks = _residuals(mat, _q_gram_body(*_shape(mat)), group=False)
    scale = max(1.0, mat.norm())
    ok = defining <= tol * scale and blocks <= tol * scale
    return AlgebraReport(ok, defining, blocks)


def grade_path(mat: Supermatrix, t: float, tol: float = DEFAULT_TOL) -> Supermatrix:
    """Connectivity path M(t) = sum_j t^j [M]_j from the body (t=0) to M (t=1)."""
    if not check_so0(mat, tol).ok:
        raise MembershipError("grade path requires a special superrotation")
    weights = np.array([t ** mask.bit_count() for mask in mat.mat.masks])
    stack = weights.reshape(-1, 1, 1) * mat.mat.stack
    return Supermatrix(mat.p, mat.q, mat.mat.with_stack(mat.mat.masks, stack), validate=False)


# -- real matrix logarithms -----------------------------------------------------


def rotation_log(a0: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Antisymmetric log of a special orthogonal matrix.

    Real Schur form -> 2x2 rotation blocks -> angles in (-pi, pi]; -1
    eigenvalues are paired into angle-pi planes (their pairing is the
    branch convention, not canonical).
    """
    a0 = np.asarray(a0, dtype=float)
    size = a0.shape[0]
    if size == 0:
        return np.zeros((0, 0))
    if np.abs(a0.T @ a0 - np.eye(size)).max() > tol:
        raise MembershipError("matrix is not orthogonal")
    if abs(np.linalg.det(a0) - 1.0) > tol:
        raise MembershipError("matrix is not special orthogonal")
    from scipy.linalg import schur

    t, z = schur(a0, output="real")
    log_t = np.zeros_like(t)
    flips = []
    i = 0
    while i < size:
        if i + 1 < size and abs(t[i + 1, i]) > _SCHUR_BLOCK_EPS:
            cos_a = 0.5 * (t[i, i] + t[i + 1, i + 1])
            sin_a = 0.5 * (t[i + 1, i] - t[i, i + 1])
            angle = math.atan2(sin_a, cos_a)
            log_t[i, i + 1] = -angle
            log_t[i + 1, i] = angle
            i += 2
        else:
            if t[i, i] < 0:
                flips.append(i)
            i += 1
    if len(flips) % 2:
        raise MembershipError("odd number of -1 eigenvalues; determinant is -1")
    for a, b in zip(flips[::2], flips[1::2]):
        log_t[a, b] = -math.pi
        log_t[b, a] = math.pi
    return z @ log_t @ z.T


def symplectic_polar(d0: np.ndarray, tol: float = DEFAULT_TOL
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Unique polar split D0 = R exp(Z0) of a symplectic matrix.

    R is symplectic orthogonal, Z0 symplectic symmetric; computed from the
    symmetric eigendecomposition of D0^T D0.
    """
    d0 = np.asarray(d0, dtype=float)
    size = d0.shape[0]
    if size == 0:
        return np.zeros((0, 0)), np.zeros((0, 0))
    omega = symplectic_form(size // 2)
    if np.abs(d0.T @ omega @ d0 - omega).max() > tol * max(1.0, np.abs(d0).max() ** 2):
        raise MembershipError("matrix is not symplectic")
    evals, evecs = np.linalg.eigh(d0.T @ d0)
    if evals.min() <= 0:
        raise MembershipError("polar factor is not positive definite")
    z0 = (evecs * (0.5 * np.log(evals))) @ evecs.T
    p_inv = (evecs * (evals ** -0.5)) @ evecs.T
    r = d0 @ p_inv
    return r, z0


def _interleave_rect(n: int) -> np.ndarray:
    """The n x 2n matrix with rows (..., 1, i, ...) on consecutive pairs."""
    q = np.zeros((n, 2 * n), dtype=complex)
    for j in range(n):
        q[j, 2 * j] = 1.0
        q[j, 2 * j + 1] = 1.0j
    return q


def to_unitary(d0: np.ndarray) -> np.ndarray:
    """Squash a 2n x 2n compact-symplectic (block) matrix to an n x n complex one.

    A Lie group isomorphism onto U(n) on symplectic-orthogonal input, and its
    own infinitesimal representation on the algebra level.
    """
    d0 = np.asarray(d0)
    n = d0.shape[0] // 2
    q = _interleave_rect(n)
    return 0.5 * q @ d0 @ q.conj().T


def from_unitary(l0: np.ndarray) -> np.ndarray:
    """Inverse of to_unitary: real 2n x 2n matrix from an n x n complex one."""
    l0 = np.asarray(l0, dtype=complex)
    n = l0.shape[0]
    q = _interleave_rect(n)
    return np.real(q.conj().T @ l0 @ q)


def compact_symplectic_log(r: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Log of a symplectic orthogonal matrix inside the compact subalgebra.

    Unitary log with eigenphases in (-pi, pi] (ties at -pi become +pi),
    pulled back through the unitary squashing.
    """
    r = np.asarray(r, dtype=float)
    size = r.shape[0]
    if size == 0:
        return np.zeros((0, 0))
    omega = symplectic_form(size // 2)
    if np.abs(r.T @ r - np.eye(size)).max() > tol \
            or np.abs(r.T @ omega @ r - omega).max() > tol:
        raise MembershipError("matrix is not symplectic orthogonal")
    u = to_unitary(r)
    from scipy.linalg import schur

    t, z = schur(u, output="complex")
    diag = np.diag(t)
    if np.abs(t - np.diag(diag)).max() > math.sqrt(tol):
        raise MembershipError("unitary Schur form is not diagonal")
    phases = np.angle(diag)
    phases[phases <= -math.pi + 1e-12] = math.pi
    log_u = (z * (1j * phases)) @ z.conj().T
    return from_unitary(log_u)


# -- the three-exponential decomposition ----------------------------------------


@dataclass(frozen=True)
class RotationDecomposition:
    """M = exp(compact) exp(symmetric) exp(nilpotent); the last two unique."""

    compact: Supermatrix
    symmetric: Supermatrix
    nilpotent: Supermatrix
    residual: float

    def factors(self) -> tuple[Supermatrix, Supermatrix, Supermatrix]:
        return self.compact, self.symmetric, self.nilpotent

    def reconstruct(self) -> Supermatrix:
        return expm(self.compact) @ expm(self.symmetric) @ expm(self.nilpotent)


def decompose_rotation(mat: Supermatrix, tol: float = DEFAULT_TOL
                       ) -> RotationDecomposition:
    """Split a superrotation into compact, symmetric and nilpotent exponents."""
    if not check_so0(mat, tol).ok:
        raise MembershipError("decomposition requires a special superrotation")
    m, n = _shape(mat)
    body = mat.body_matrix()
    if np.abs(body.imag).max(initial=0.0) > tol * max(1.0, np.abs(body).max()):
        raise MembershipError("body must be real for the real-log decomposition")
    a0 = body[:m, :m].real
    d0 = body[m:, m:].real
    x0 = rotation_log(a0, tol)
    r, z0 = symplectic_polar(d0, tol)
    y0 = compact_symplectic_log(r, tol)
    size = mat.size
    compact_body = np.zeros((size, size))
    compact_body[:m, :m] = x0
    compact_body[m:, m:] = y0
    symmetric_body = np.zeros((size, size))
    symmetric_body[m:, m:] = z0
    compact = Supermatrix.from_body(m, 2 * n, compact_body, mat.order)
    symmetric = Supermatrix.from_body(m, 2 * n, symmetric_body, mat.order)
    group_body = expm(compact) @ expm(symmetric)
    # B^-1 M has body I in exact arithmetic; the log of I + nil(B^-1 M) keeps
    # Z free of body rounding, and the residual reports that rounding
    nilpotent = logm(Supermatrix.eye(m, 2 * n, mat.order)
                     + (group_body.inverse() @ mat).nilpotent_part())
    recon = group_body @ expm(nilpotent)
    residual = (recon - mat).norm() / max(1.0, mat.norm())
    return RotationDecomposition(compact, symmetric, nilpotent, residual)


# -- conjugation onto the standard orthosymplectic form ---------------------------


def _interleave_permutation(n: int) -> np.ndarray:
    """Orthogonal P with P^T J P = Omega: column 2j-1 -> split slot j."""
    p = np.zeros((2 * n, 2 * n))
    for j in range(n):
        p[j, 2 * j] = 1.0
        p[n + j, 2 * j + 1] = 1.0
    return p


def osp_standard_form(mat: Supermatrix, tol: float = DEFAULT_TOL) -> Supermatrix:
    """Conjugate an algebra element onto the standard orthosymplectic shape.

    The conjugator diag(I_m, i sqrt(2) P^T) carries the Gram matrix of the
    inner product onto diag(I_m, J_{2n}).
    """
    if not check_so0_algebra(mat, tol).ok:
        raise MembershipError("standard form requires an algebra element")
    m, n = _shape(mat)
    size = mat.size
    perm = _interleave_permutation(n)
    right = np.eye(size, dtype=complex)
    right[m:, m:] = 1j * math.sqrt(2.0) * perm.T
    left = np.eye(size, dtype=complex)
    left[m:, m:] = (-1j / math.sqrt(2.0)) * perm
    stack = left @ mat.mat.stack @ right
    return Supermatrix(mat.p, mat.q, mat.mat.with_stack(mat.mat.masks, stack), validate=False)


def osp_defect(mat: Supermatrix) -> float:
    """Residual of Y^{ST} G + G Y against the standard form G = diag(I_m, J_{2n})."""
    m, n = _shape(mat)
    gram = np.eye(m + 2 * n)
    gram[m:, m:] = split_symplectic_form(n)
    return _residuals(mat, gram, group=False)[0]


# -- seeded random generators ------------------------------------------------------


def _sp_basis(n: int) -> list[np.ndarray]:
    """Basis of the symplectic Lie algebra for Omega_{2n}, 0-based entries."""
    def e(i, j):
        mat = np.zeros((2 * n, 2 * n))
        mat[i - 1, j - 1] = 1.0
        return mat

    basis = []
    for j in range(1, n + 1):
        for k in range(j, n + 1):
            basis.append(e(2 * j, 2 * k - 1) + e(2 * k, 2 * j - 1))
            basis.append(e(2 * j - 1, 2 * k) + e(2 * k - 1, 2 * j))
            basis.append(e(2 * k, 2 * j) - e(2 * j - 1, 2 * k - 1))
    for j in range(1, n + 1):
        for k in range(j + 1, n + 1):
            basis.append(e(2 * j, 2 * k) - e(2 * k - 1, 2 * j - 1))
    return basis


def _random_so0_from_rng(m: int, n: int, order: int, rng,
                         scale: float) -> Supermatrix:
    zero = GrassmannNumber.zero(order)
    a_grid = [[zero for _ in range(m)] for _ in range(m)]
    for j in range(m):
        for k in range(j + 1, m):
            g = random_grassmann(rng, order, parity="even", scale=scale)
            a_grid[j][k] = g
            a_grid[k][j] = -g
    a = GrassmannMatrix.from_entries(a_grid, order) if m else \
        GrassmannMatrix.zeros(0, 0, order)
    c_grid = [
        [random_grassmann(rng, order, parity="odd", scale=scale) for _ in range(m)]
        for _ in range(2 * n)
    ]
    c = GrassmannMatrix.from_entries(c_grid, order) if m and n else \
        GrassmannMatrix.zeros(2 * n, m, order)
    omega = GrassmannMatrix.from_body(symplectic_form(n), order)
    b = (c.transpose() @ omega).scale(0.5)
    d = GrassmannMatrix.zeros(2 * n, 2 * n, order)
    for basis_mat in _sp_basis(n):
        g = random_grassmann(rng, order, parity="even", scale=scale)
        d = d + GrassmannMatrix.from_body(basis_mat, order).scale(g)
    return Supermatrix.from_blocks(a, b, c, d)


def random_so0(m: int, n: int, order: int, seed: int,
               scale: float = 0.25) -> Supermatrix:
    """Seeded random element of the Lie algebra (exact membership)."""
    rng = np.random.default_rng(seed)
    return _random_so0_from_rng(m, n, order, rng, scale)


def random_rotation(m: int, n: int, order: int, seed: int, factors: int = 3,
                    scale: float = 0.25) -> Supermatrix:
    """Seeded random superrotation: a product of algebra exponentials."""
    rng = np.random.default_rng(seed)
    result = Supermatrix.eye(m, 2 * n, order)
    for _ in range(factors):
        result = result @ expm(_random_so0_from_rng(m, n, order, rng, scale))
    return result


def random_supermatrix(m: int, n: int, order: int, seed: int,
                       scale: float = 0.25) -> Supermatrix:
    """Seeded random parity-valid supermatrix (no group constraint)."""
    rng = np.random.default_rng(seed)
    size = m + 2 * n
    zero = GrassmannNumber.zero(order)
    grid = [[zero for _ in range(size)] for _ in range(size)]
    for i in range(size):
        for j in range(size):
            diag_block = (i < m) == (j < m)
            parity = "even" if diag_block else "odd"
            grid[i][j] = random_grassmann(rng, order, parity=parity, scale=scale)
    return Supermatrix.from_entries(m, 2 * n, grid, order)
