"""The superspace rotation group and its Lie algebra.

Membership tests for the inner-product-preserving supermatrices and their
super-antisymmetric generators, the constructive decomposition of any
superrotation into three exponentials (compact, symmetric, nilpotent), the
real matrix-log helpers behind it, the unitary squashing of the compact
symplectic block, and seeded random generators for both levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import AlgebraError, MembershipError, NotInvertibleError, SingularBodyError
from .grassmann import (CANON_EPS, DEFAULT_TOL, GrassmannNumber, _blade_product,
                        _nilpotent_matrix_series, _parity_array, _random_stack, _union_add)
from .supermatrix import (
    Supermatrix,
    _block_body_inverse,
    _log_coeff,
    _q_gram_body,
    expm,
    split_symplectic_form,
    symplectic_form,
)

# Sine up to which a rotation's eigenvalue is read as real (+-1): such a plane
# turns by at most this, so reading it either way agrees to within this.
_PLANE_EPS = 1e-13


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


def _residuals(mat: Supermatrix, gram: np.ndarray, group: bool,
               tol: float = 0.0) -> tuple[float, float, bool]:
    """(norm, block residual) of M^{ST} G M - G (group) or X^{ST} G + G X,
    one blade stack for a real block-diagonal body G (so M^{ST} G is M^T G
    with its C block negated), and whether both are within tol times the
    scale max(1, norm of mat).  The moduli are taken once, and every norm sums
    them over the slices that are not all zero, as a matrix stores none.  A
    non-finite entry or an overflowing norm raises AlgebraError; numpy's
    overflow warnings are not raised on the way."""
    p, x = mat.p, mat.mat
    with np.errstate(over="ignore", invalid="ignore"):
        left = x.stack.transpose(0, 2, 1) @ gram
        left[:, p:, :p] *= -1.0
        if group:
            stack = _union_add(*_blade_product(
                np.matmul, x.masks, left, x.masks, x.stack, mat.order, gram.shape),
                (0,), -gram[None])[1]
        else:
            stack = left + gram @ x.stack
        if not np.isfinite(stack).all():
            raise AlgebraError("non-finite entry in the defining expression")
        size = np.abs(stack)
        total, a, b, d = (float(part[part.any(axis=(1, 2))].sum()) for part in (
            size, size[:, :p, :p], size[:, :p, p:], size[:, p:, p:]))
        scale = max(1.0, mat.norm())
    blocks = max(a, b, d if group else 2.0 * d)
    if not (math.isfinite(total) and math.isfinite(blocks) and math.isfinite(scale)):
        raise AlgebraError("a norm of the membership test overflows")
    return total, blocks, total <= tol * scale and blocks <= tol * scale


def check_o0(mat: Supermatrix, tol: float = DEFAULT_TOL) -> GroupReport:
    """Does mat preserve the super inner product, M^{ST} Q M = Q?

    The defining expression M^{ST} Q M - Q is built once, as one blade
    stack (``_residuals``).  Its A, B and D blocks are the three block
    equations of the group (C is minus the transpose of B), so
    ``defining_residual`` is its norm and ``block_residual`` the largest of
    those three block norms.  A Berezinian that fails on a singular body is
    reported as sdet None with ok False.  Raises MembershipError for odd q
    and AlgebraError when an entry of the expression is not finite or a
    norm overflows.
    """
    defining, blocks, ok = _residuals(mat, _q_gram_body(*_shape(mat)), True, tol)
    try:
        sdet = mat.sdet()
        deviation = min((sdet - 1.0).norm(), (sdet + 1.0).norm())
    except (NotInvertibleError, SingularBodyError):
        sdet, deviation = None, math.inf
    return GroupReport(ok and deviation <= tol, defining, blocks, sdet, deviation)


def check_so0(mat: Supermatrix, tol: float = DEFAULT_TOL) -> GroupReport:
    """check_o0 plus sdet = 1."""
    base = check_o0(mat, tol)
    if base.sdet is None:
        return base
    deviation = (base.sdet - 1.0).norm()
    return replace(base, ok=base.ok and deviation <= tol, sdet_deviation=deviation)


def check_so0_algebra(mat: Supermatrix, tol: float = DEFAULT_TOL) -> AlgebraReport:
    """Membership in the Lie algebra, X^{ST} Q + Q X = 0.

    The expression is built once (``_residuals``); ``defining_residual``
    is its norm.  In the blocks A, B, C, D of X, its A, B and D blocks are
    A^T + A, B - C^T Omega / 2 and -(D^T Omega + Omega D) / 2, so
    ``block_residual``, the largest norm of A^T + A, B - C^T Omega / 2 and
    D^T Omega + Omega D, is max(|A block|, |B block|, 2 |D block|).
    Raises AlgebraError when an entry of the expression is not finite or a
    norm overflows.
    """
    defining, blocks, ok = _residuals(mat, _q_gram_body(*_shape(mat)), False, tol)
    return AlgebraReport(ok, defining, blocks)


def grade_path(mat: Supermatrix, t: float, tol: float = DEFAULT_TOL) -> Supermatrix:
    """Connectivity path M(t) = sum_j t^j [M]_j from the body (t=0) to M (t=1)."""
    if not check_so0(mat, tol).ok:
        raise MembershipError("grade path requires a special superrotation")
    weights = np.array([t ** mask.bit_count() for mask in mat.mat.masks])
    return mat._like(mat.mat.masks, weights.reshape(-1, 1, 1) * mat.mat.stack)


# -- real matrix logarithms -----------------------------------------------------


def _unitary_eig(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal eigenvectors and eigenphases in [-pi, pi] of a unitary u.

    With v = u turned so the widest gap between its eigenvalues centres on -1,
    and Y = (I + v)^-1, the symmetrized Cayley transform i(I - v)(I + v)^-1 is
    i(Y - Y^H), Hermitian and bounded: one ``eigh`` gives the vectors, and the
    phases are the angles of u's Rayleigh quotients.
    """
    phases = np.sort(np.angle(np.linalg.eigvals(u)))
    gaps = np.concatenate((phases[1:], phases[:1] + 2.0 * math.pi)) - phases
    widest = gaps.argmax()
    y = np.linalg.inv(np.eye(len(u)) - np.exp(-1j * (phases[widest] + 0.5 * gaps[widest])) * u)
    vecs = np.linalg.eigh(1j * (y - y.conj().T))[1]
    return vecs, np.angle((vecs.conj() * (u @ vecs)).sum(axis=0))


def rotation_log(a0: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Antisymmetric log of a special orthogonal matrix.

    Re q and Im q of one eigenvector q (``_unitary_eig``) per conjugate pair
    are orthonormalized into rotation planes; a real basis of the -1
    eigenvectors left over is paired into angle-pi planes (the branch
    convention, not canonical).  Each angle is read from a0 in its plane.
    """
    a0 = np.asarray(a0, dtype=float)
    size = a0.shape[0]
    if size == 0:
        return np.zeros((0, 0))
    if np.abs(a0.T @ a0 - np.eye(size)).max() > tol:
        raise MembershipError("matrix is not orthogonal")
    if abs(np.linalg.det(a0) - 1.0) > tol:
        raise MembershipError("matrix is not special orthogonal")
    vecs, phases = _unitary_eig(a0)
    sines = np.sin(phases)
    # columns Re q, Im q of one eigenvector q per conjugate pair
    frame = np.linalg.qr(np.ascontiguousarray(vecs[:, sines > _PLANE_EPS]).view(float))[0]
    if (np.cos(phases[np.abs(sines) <= _PLANE_EPS]) < 0).any():
        rest = np.eye(size) - frame @ frame.T
        cosines, basis = np.linalg.eigh(rest @ (a0 + a0.T) @ rest)
        flips = basis[:, cosines < -1.0]
        if flips.shape[1] % 2:
            raise MembershipError("odd number of -1 eigenvalues; determinant is -1")
        frame = np.hstack([frame, flips])
    t = frame.T @ a0 @ frame
    angles = np.arctan2(t[1::2, ::2].diagonal() - t[::2, 1::2].diagonal(),
                        t[::2, ::2].diagonal() + t[1::2, 1::2].diagonal())
    x, y = frame[:, ::2], frame[:, 1::2]
    return (y * angles) @ x.T - (x * angles) @ y.T


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

    Unitary log from the eigenvectors and eigenphases of the unitary
    squashing (``_unitary_eig``), phases in (-pi, pi] (ties at -pi become
    +pi), pulled back through the squashing.
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
    vecs, phases = _unitary_eig(u)
    # u V = V e^(i phases) exactly when the Schur form V^H u V is diagonal
    if np.abs(u @ vecs - vecs * np.exp(1j * phases)).max() > math.sqrt(tol):
        raise MembershipError("unitary Schur form is not diagonal")
    phases[phases <= -math.pi + 1e-12] = math.pi
    return from_unitary((vecs * (1j * phases)) @ vecs.conj().T)


# -- the three-exponential decomposition ----------------------------------------


@dataclass(frozen=True)
class RotationDecomposition:
    """M = exp(compact) exp(symmetric) exp(nilpotent); the last two unique.

    ``residual`` is |exp(compact) exp(symmetric) exp(nilpotent) - M| / max(1, |M|),
    from the body-only factor the split formed after its membership check
    (``_split_rotation``); ``lift_rotation`` shares the split, not the residual.
    """

    compact: Supermatrix
    symmetric: Supermatrix
    nilpotent: Supermatrix
    residual: float

    def factors(self) -> tuple[Supermatrix, Supermatrix, Supermatrix]:
        return self.compact, self.symmetric, self.nilpotent

    def reconstruct(self) -> Supermatrix:
        return expm(self.compact) @ expm(self.symmetric) @ expm(self.nilpotent)


def _split_rotation(mat: Supermatrix, tol: float
                    ) -> tuple[Supermatrix, Supermatrix, Supermatrix, Supermatrix]:
    """(X, Y, Z, B) with mat = B exp(Z) and B = exp(X) exp(Y) body-only.

    X and Y come from real logs of the body blocks, so B is block diagonal
    and is inverted by ``_block_body_inverse`` (A first, NotInvertibleError);
    Z = log(I + nil(B^-1 M)) is free of body rounding.  MembershipError comes
    from, in order, ``check_o0``'s residuals (one kernel product), the body
    logs (det A0 = -1, D0 not symplectic) and sdet M = 1.  X and Y are
    trace-free and Z bodiless, so with r = det A0 / det D0, |sdet M - 1| <=
    |r - 1| + |r| (exp|str Z| - 1), at no product.  That carries B0 - M0
    times |Z| (1e-10 at |M| = 2e4), so past tol ``sdet`` decides, as in check_so0.
    """
    m, n = _shape(mat)
    if not _residuals(mat, _q_gram_body(m, n), True, tol)[2]:
        raise MembershipError("decomposition requires a special superrotation")
    body = mat.body_matrix()
    if np.abs(body.imag).max(initial=0.0) > tol * max(1.0, np.abs(body).max(initial=0.0)):
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
    b0_inv = _block_body_inverse(group_body.body_matrix(), m)
    x = mat.mat.nilpotent_part()
    nilpotent = mat._like(*_nilpotent_matrix_series(x.masks, b0_inv @ x.stack, mat.order,
                                                    _log_coeff))
    ratio = float(np.linalg.det(a0) / np.linalg.det(d0))
    if not (abs(ratio - 1.0) + abs(ratio) * math.expm1(nilpotent.supertrace().norm()) <= tol
            or (mat.sdet() - 1.0).norm() <= tol):
        raise MembershipError("decomposition requires a special superrotation")
    return compact, symmetric, nilpotent, group_body


def decompose_rotation(mat: Supermatrix, tol: float = DEFAULT_TOL
                       ) -> RotationDecomposition:
    """Split a superrotation into compact, symmetric and nilpotent exponents,
    with the reconstruction residual of ``RotationDecomposition``."""
    compact, symmetric, nilpotent, group_body = _split_rotation(mat, tol)
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
    return mat._like(mat.mat.masks, left @ mat.mat.stack @ right)


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
    """A seeded so_0 element built on one real blade stack.

    The draws are ``random_grassmann``'s, made in its order by one
    ``rng.normal`` call: the even blades of each upper-triangle entry of A,
    row by row; the odd blades of each entry of C; then the even blades of
    the coefficient of each ``_sp_basis`` element.  A is that triangle minus
    its transpose, B = C^T Omega / 2 one product with a body matrix, and D
    the running sum of coefficient times basis element, in basis order.
    """
    parity = _parity_array(order)
    even, odd = np.flatnonzero(parity == 0), np.flatnonzero(parity == 1)
    basis = _sp_basis(n)
    upper = np.triu_indices(m, 1)
    counts = [len(upper[0]) * len(even), 2 * n * m * len(odd), len(basis) * len(even)]
    draws = rng.normal(0.0, scale, sum(counts))
    # random_grassmann keeps its coefficients canonical
    draws[np.abs(draws) < CANON_EPS] = 0.0
    a_draws, c_draws, d_draws = np.split(draws, np.cumsum(counts[:2]))
    stack = np.zeros((1 << order, m + 2 * n, m + 2 * n))
    triangle = np.zeros((len(even), m, m))
    triangle[:, upper[0], upper[1]] = a_draws.reshape(-1, len(even)).T
    stack[even, :m, :m] = triangle - triangle.transpose(0, 2, 1)
    c = c_draws.reshape(2 * n, m, len(odd)).transpose(2, 0, 1)
    stack[odd, m:, :m] = c
    stack[odd, :m, m:] = 0.5 * (c.transpose(0, 2, 1) @ symplectic_form(n))
    d = np.zeros((len(even), 2 * n, 2 * n))
    for coeffs, basis_mat in zip(d_draws.reshape(-1, len(even)), basis):
        d = d + coeffs[:, None, None] * basis_mat
    stack[even, m:, m:] = d
    return Supermatrix._adopt(m, 2 * n, order, range(1 << order), stack)


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
    """Seeded random parity-valid supermatrix (no group constraint):
    ``random_grassmann``'s draws, entry by entry, row by row, on one stack,
    even in the diagonal blocks and odd off them."""
    bosonic = np.arange(m + 2 * n) < m
    stack = _random_stack(np.random.default_rng(seed), order,
                          bosonic[:, None] != bosonic[None, :], scale)
    return Supermatrix._adopt(m, 2 * n, order, range(1 << order), stack)
