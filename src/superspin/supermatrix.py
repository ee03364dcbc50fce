"""Block supermatrices over the Grassmann algebra.

A matrix over Lambda_N is stored as a stack of complex matrices indexed by
blade mask, so ordinary numpy products drive the entry arithmetic; the blade
reordering sign is the only Grassmann-specific ingredient.  Supermatrix adds
the (p|q) parity pattern, supertranspose, supertrace, Berezinian, inverse and
the exp/ln pair.
"""

from __future__ import annotations

import itertools
import math
from typing import Mapping, Sequence

import numpy as np

from .exceptions import (
    AlgebraError,
    LogDomainError,
    NotInvertibleError,
    OrderMismatchError,
    ParityError,
    ShapeMismatchError,
    SingularBodyError,
)
from .grassmann import CANON_EPS, DEFAULT_TOL, GrassmannNumber, flip_table

# Relative truncation threshold for the exp/ln power series.
SERIES_EPS = 1e-14

# Bodies with condition number beyond this are treated as singular.
COND_LIMIT = 1e12


class GrassmannMatrix:
    """Rectangular matrix with Grassmann-number entries (no parity pattern).

    blades maps blade mask -> complex ndarray of shape (rows, cols); absent
    masks are zero slices.
    """

    __slots__ = ("rows", "cols", "order", "blades")

    def __init__(self, rows: int, cols: int, order: int,
                 blades: Mapping[int, np.ndarray] | None = None):
        self.rows = rows
        self.cols = cols
        self.order = order
        data: dict[int, np.ndarray] = {}
        if blades:
            for mask, slice_ in blades.items():
                arr = np.asarray(slice_, dtype=complex)
                if arr.shape != (rows, cols):
                    raise ShapeMismatchError(
                        f"blade slice shape {arr.shape} != ({rows}, {cols})"
                    )
                if not np.all(np.isfinite(arr)):
                    raise AlgebraError("non-finite entry in blade slice")
                if np.any(arr != 0):
                    data[mask] = arr.copy()
        self.blades = data

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int, order: int) -> "GrassmannMatrix":
        return cls(rows, cols, order)

    @classmethod
    def eye(cls, size: int, order: int) -> "GrassmannMatrix":
        return cls(size, size, order, {0: np.eye(size, dtype=complex)})

    @classmethod
    def from_body(cls, body: np.ndarray, order: int) -> "GrassmannMatrix":
        body = np.asarray(body, dtype=complex)
        return cls(body.shape[0], body.shape[1], order, {0: body})

    @classmethod
    def from_entries(cls, entries: Sequence[Sequence[GrassmannNumber]],
                     order: int | None = None) -> "GrassmannMatrix":
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        if order is None:
            order = entries[0][0].order
        out = cls(rows, cols, order)
        for i, row in enumerate(entries):
            if len(row) != cols:
                raise ShapeMismatchError("ragged entry grid")
            for j, g in enumerate(row):
                if g.order != order:
                    raise OrderMismatchError("mixed Grassmann orders in matrix")
                for mask, c in g.terms.items():
                    slice_ = out.blades.get(mask)
                    if slice_ is None:
                        slice_ = np.zeros((rows, cols), dtype=complex)
                        out.blades[mask] = slice_
                    slice_[i, j] = c
        return out

    # -- access ------------------------------------------------------------

    def entry(self, i: int, j: int) -> GrassmannNumber:
        terms = {mask: s[i, j] for mask, s in self.blades.items() if s[i, j] != 0}
        return GrassmannNumber(self.order, terms)

    def entries(self) -> list[list[GrassmannNumber]]:
        return [[self.entry(i, j) for j in range(self.cols)] for i in range(self.rows)]

    def body(self) -> np.ndarray:
        slice_ = self.blades.get(0)
        if slice_ is None:
            return np.zeros((self.rows, self.cols), dtype=complex)
        return slice_.copy()

    def submatrix(self, rows: slice, cols: slice) -> "GrassmannMatrix":
        blades = {m: s[rows, cols] for m, s in self.blades.items()}
        probe = np.zeros((self.rows, self.cols))[rows, cols]
        return GrassmannMatrix(probe.shape[0], probe.shape[1], self.order, blades)

    # -- arithmetic --------------------------------------------------------

    def _require_same_shape(self, other: "GrassmannMatrix") -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatchError(
                f"shape mismatch: {(self.rows, self.cols)} vs {(other.rows, other.cols)}"
            )
        if self.order != other.order:
            raise OrderMismatchError(f"order mismatch: {self.order} vs {other.order}")

    def __add__(self, other: "GrassmannMatrix") -> "GrassmannMatrix":
        self._require_same_shape(other)
        blades = dict(self.blades)
        for mask, s in other.blades.items():
            blades[mask] = blades[mask] + s if mask in blades else s
        return GrassmannMatrix(self.rows, self.cols, self.order, blades)

    def __sub__(self, other: "GrassmannMatrix") -> "GrassmannMatrix":
        return self + (-other)

    def __neg__(self) -> "GrassmannMatrix":
        return self.scale(-1.0)

    def scale(self, factor) -> "GrassmannMatrix":
        """Left-multiply every entry by a complex scalar or GrassmannNumber."""
        if isinstance(factor, GrassmannNumber):
            if factor.order != self.order:
                raise OrderMismatchError("order mismatch in scale")
            flip = flip_table(self.order)
            out: dict[int, np.ndarray] = {}
            for fm, fc in factor.terms.items():
                ff = flip[fm]
                for mask, s in self.blades.items():
                    if fm & mask:
                        continue
                    key = fm | mask
                    term = (-fc if (ff & mask).bit_count() & 1 else fc) * s
                    out[key] = out[key] + term if key in out else term
            return GrassmannMatrix(self.rows, self.cols, self.order, out)
        return GrassmannMatrix(
            self.rows, self.cols, self.order,
            {m: factor * s for m, s in self.blades.items()},
        )

    def __matmul__(self, other: "GrassmannMatrix") -> "GrassmannMatrix":
        if self.cols != other.rows:
            raise ShapeMismatchError(
                f"cannot multiply {(self.rows, self.cols)} by {(other.rows, other.cols)}"
            )
        if self.order != other.order:
            raise OrderMismatchError(f"order mismatch: {self.order} vs {other.order}")
        flip = flip_table(self.order)
        out: dict[int, np.ndarray] = {}
        for ma, sa in self.blades.items():
            fa = flip[ma]
            for mb, sb in other.blades.items():
                if ma & mb:
                    continue
                key = ma | mb
                term = sa @ sb
                if (fa & mb).bit_count() & 1:
                    term = -term
                out[key] = out[key] + term if key in out else term
        return GrassmannMatrix(self.rows, other.cols, self.order, out)

    def transpose(self) -> "GrassmannMatrix":
        """Plain entrywise transpose (no parity signs)."""
        return GrassmannMatrix(
            self.cols, self.rows, self.order,
            {m: s.T for m, s in self.blades.items()},
        )

    def grade(self, k: int) -> "GrassmannMatrix":
        return GrassmannMatrix(
            self.rows, self.cols, self.order,
            {m: s for m, s in self.blades.items() if m.bit_count() == k},
        )

    def body_part(self) -> "GrassmannMatrix":
        return self.grade(0)

    def nilpotent_part(self) -> "GrassmannMatrix":
        return GrassmannMatrix(
            self.rows, self.cols, self.order,
            {m: s for m, s in self.blades.items() if m != 0},
        )

    def norm(self) -> float:
        """Entry-sum norm: sum over entries of Grassmann coefficient norms."""
        return float(sum(np.abs(s).sum() for s in self.blades.values()))

    def is_zero(self, tol: float = 0.0) -> bool:
        return self.norm() <= tol

    def isclose(self, other: "GrassmannMatrix", tol: float = DEFAULT_TOL) -> bool:
        scale = max(1.0, self.norm(), other.norm())
        return (self - other).norm() <= tol * scale

    # -- inverse and determinant --------------------------------------------

    def inverse(self) -> "GrassmannMatrix":
        """Inverse via body inverse plus the finite nilpotent Neumann series."""
        if self.rows != self.cols:
            raise ShapeMismatchError("inverse of a non-square matrix")
        body = self.body()
        if body.shape[0] and np.linalg.cond(body) > COND_LIMIT:
            raise NotInvertibleError("matrix body is numerically singular")
        body_inv = np.linalg.inv(body) if body.shape[0] else body
        inv0 = GrassmannMatrix.from_body(body_inv, self.order)
        correction = (inv0 @ self.nilpotent_part()).scale(-1.0)
        result = GrassmannMatrix.eye(self.rows, self.order)
        power = GrassmannMatrix.eye(self.rows, self.order)
        for _ in range(self.order):
            power = power @ correction
            if not power.blades:
                break
            result = result + power
        return result @ inv0

    def det(self) -> GrassmannNumber:
        """Determinant for matrices with commuting (even) entries.

        Leibniz expansion for size <= 4, Gaussian elimination with
        body-modulus pivoting beyond that.
        """
        size = self.rows
        if size != self.cols:
            raise ShapeMismatchError("determinant of a non-square matrix")
        if size == 0:
            return GrassmannNumber.one(self.order)
        if size <= 4:
            return self._det_leibniz()
        return self._det_gauss()

    def _det_leibniz(self) -> GrassmannNumber:
        size = self.rows
        grid = self.entries()
        total = GrassmannNumber.zero(self.order)
        for perm in itertools.permutations(range(size)):
            sign = _permutation_sign(perm)
            term = GrassmannNumber.scalar(self.order, float(sign))
            for i in range(size):
                term = term * grid[i][perm[i]]
                if not term.terms:
                    break
            total = total + term
        return total

    def _det_gauss(self) -> GrassmannNumber:
        size = self.rows
        grid = self.entries()
        det = GrassmannNumber.one(self.order)
        sign = 1
        for col in range(size):
            pivot_row = max(range(col, size), key=lambda r: abs(grid[r][col].body))
            if abs(grid[pivot_row][col].body) == 0:
                raise SingularBodyError("singular body during elimination")
            if pivot_row != col:
                grid[col], grid[pivot_row] = grid[pivot_row], grid[col]
                sign = -sign
            pivot = grid[col][col]
            det = det * pivot
            pivot_inv = pivot.inv()
            for r in range(col + 1, size):
                factor = grid[r][col] * pivot_inv
                if not factor.terms:
                    continue
                grid[r] = [
                    grid[r][c] - factor * grid[col][c] for c in range(size)
                ]
        return det * float(sign)

    def __repr__(self):
        return (
            f"GrassmannMatrix({self.rows}x{self.cols}, N={self.order}, "
            f"masks={sorted(self.blades)})"
        )


def _permutation_sign(perm: Sequence[int]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def symplectic_form(n: int) -> np.ndarray:
    """Omega_{2n}: block diagonal of [[0, 1], [-1, 0]]."""
    omega = np.zeros((2 * n, 2 * n))
    for j in range(n):
        omega[2 * j, 2 * j + 1] = 1.0
        omega[2 * j + 1, 2 * j] = -1.0
    return omega


def split_symplectic_form(n: int) -> np.ndarray:
    """J_{2n} = [[0, I_n], [-I_n, 0]]."""
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    return j


class Supermatrix:
    """(p|q) block supermatrix: diagonal blocks even, off-diagonal blocks odd."""

    __slots__ = ("p", "q", "mat")

    def __init__(self, p: int, q: int, mat: GrassmannMatrix, validate: bool = True):
        if mat.rows != mat.cols or mat.rows != p + q:
            raise ShapeMismatchError(f"expected square size {p + q}, got {mat.rows}")
        self.p = p
        self.q = q
        self.mat = mat
        if validate:
            self.validate_parity()

    # -- constructors ------------------------------------------------------

    @property
    def order(self) -> int:
        return self.mat.order

    @property
    def size(self) -> int:
        return self.p + self.q

    @classmethod
    def zeros(cls, p: int, q: int, order: int) -> "Supermatrix":
        return cls(p, q, GrassmannMatrix.zeros(p + q, p + q, order), validate=False)

    @classmethod
    def eye(cls, p: int, q: int, order: int) -> "Supermatrix":
        return cls(p, q, GrassmannMatrix.eye(p + q, order), validate=False)

    @classmethod
    def from_body(cls, p: int, q: int, body: np.ndarray, order: int) -> "Supermatrix":
        return cls(p, q, GrassmannMatrix.from_body(body, order))

    @classmethod
    def from_entries(cls, p: int, q: int,
                     entries: Sequence[Sequence[GrassmannNumber]],
                     order: int | None = None) -> "Supermatrix":
        return cls(p, q, GrassmannMatrix.from_entries(entries, order))

    @classmethod
    def from_blocks(cls, a: GrassmannMatrix, b: GrassmannMatrix,
                    c: GrassmannMatrix, d: GrassmannMatrix) -> "Supermatrix":
        p, q = a.rows, d.rows
        order = a.order
        blades: dict[int, np.ndarray] = {}
        for src, (r0, c0) in ((a, (0, 0)), (b, (0, p)), (c, (p, 0)), (d, (p, p))):
            for mask, s in src.blades.items():
                if mask not in blades:
                    blades[mask] = np.zeros((p + q, p + q), dtype=complex)
                blades[mask][r0:r0 + src.rows, c0:c0 + src.cols] = s
        return cls(p, q, GrassmannMatrix(p + q, p + q, order, blades))

    # -- parity -------------------------------------------------------------

    def validate_parity(self, tol: float = CANON_EPS) -> None:
        """Check the (p|q) even/odd block pattern; raises ParityError."""
        p = self.p
        for mask, s in self.mat.blades.items():
            even_mask = mask.bit_count() % 2 == 0
            if even_mask:
                bad = max(
                    float(np.abs(s[:p, p:]).max()) if self.q and p else 0.0,
                    float(np.abs(s[p:, :p]).max()) if self.q and p else 0.0,
                )
            else:
                bad = max(
                    float(np.abs(s[:p, :p]).max()) if p else 0.0,
                    float(np.abs(s[p:, p:]).max()) if self.q else 0.0,
                )
            if bad > tol:
                raise ParityError(
                    f"entries of blade mask {mask} violate the parity pattern "
                    f"(max offending modulus {bad:.3e})"
                )

    # -- block access --------------------------------------------------------

    def block_a(self) -> GrassmannMatrix:
        return self.mat.submatrix(slice(0, self.p), slice(0, self.p))

    def block_b(self) -> GrassmannMatrix:
        return self.mat.submatrix(slice(0, self.p), slice(self.p, self.size))

    def block_c(self) -> GrassmannMatrix:
        return self.mat.submatrix(slice(self.p, self.size), slice(0, self.p))

    def block_d(self) -> GrassmannMatrix:
        return self.mat.submatrix(slice(self.p, self.size), slice(self.p, self.size))

    def entry(self, i: int, j: int) -> GrassmannNumber:
        return self.mat.entry(i, j)

    def entries(self) -> list[list[GrassmannNumber]]:
        return self.mat.entries()

    # -- arithmetic ----------------------------------------------------------

    def _require_compatible(self, other: "Supermatrix") -> None:
        if (self.p, self.q) != (other.p, other.q):
            raise ShapeMismatchError(
                f"block shape mismatch: ({self.p}|{self.q}) vs ({other.p}|{other.q})"
            )
        if self.order != other.order:
            raise OrderMismatchError(f"order mismatch: {self.order} vs {other.order}")

    def __add__(self, other: "Supermatrix") -> "Supermatrix":
        self._require_compatible(other)
        return Supermatrix(self.p, self.q, self.mat + other.mat, validate=False)

    def __sub__(self, other: "Supermatrix") -> "Supermatrix":
        self._require_compatible(other)
        return Supermatrix(self.p, self.q, self.mat - other.mat, validate=False)

    def __neg__(self) -> "Supermatrix":
        return Supermatrix(self.p, self.q, -self.mat, validate=False)

    def scale(self, factor) -> "Supermatrix":
        return Supermatrix(self.p, self.q, self.mat.scale(factor), validate=False)

    def __matmul__(self, other: "Supermatrix") -> "Supermatrix":
        self._require_compatible(other)
        return Supermatrix(self.p, self.q, self.mat @ other.mat, validate=False)

    def supertranspose(self) -> "Supermatrix":
        """Blocks (A, B, C, D) -> (A^T, C^T, -B^T, D^T)."""
        p, size = self.p, self.size
        blades: dict[int, np.ndarray] = {}
        for mask, s in self.mat.blades.items():
            out = np.zeros((size, size), dtype=complex)
            out[:p, :p] = s[:p, :p].T
            out[:p, p:] = s[p:, :p].T
            out[p:, :p] = -s[:p, p:].T
            out[p:, p:] = s[p:, p:].T
            blades[mask] = out
        return Supermatrix(
            self.p, self.q,
            GrassmannMatrix(size, size, self.order, blades),
            validate=False,
        )

    def supertrace(self) -> GrassmannNumber:
        """tr(A) - tr(D); an even Grassmann number."""
        p = self.p
        terms: dict[int, complex] = {}
        for mask, s in self.mat.blades.items():
            val = np.trace(s[:p, :p]) - np.trace(s[p:, p:])
            if val != 0:
                terms[mask] = val
        return GrassmannNumber(self.order, terms)

    def body(self) -> "Supermatrix":
        return Supermatrix(self.p, self.q, self.mat.body_part(), validate=False)

    def body_matrix(self) -> np.ndarray:
        return self.mat.body()

    def nilpotent_part(self) -> "Supermatrix":
        return Supermatrix(self.p, self.q, self.mat.nilpotent_part(), validate=False)

    def grade(self, k: int) -> "Supermatrix":
        return Supermatrix(self.p, self.q, self.mat.grade(k), validate=False)

    def norm(self) -> float:
        return self.mat.norm()

    def isclose(self, other: "Supermatrix", tol: float = DEFAULT_TOL) -> bool:
        self._require_compatible(other)
        return self.mat.isclose(other.mat, tol)

    # -- inverse / Berezinian -------------------------------------------------

    def inverse(self) -> "Supermatrix":
        """Four-block inverse; requires invertible A and D bodies."""
        a, b = self.block_a(), self.block_b()
        c, d = self.block_c(), self.block_d()
        for name, blk in (("A", a), ("D", d)):
            body = blk.body()
            if body.shape[0] and np.linalg.cond(body) > COND_LIMIT:
                raise NotInvertibleError(f"body of block {name} is singular")
        a_inv = a.inverse() if self.p else a
        d_inv = d.inverse() if self.q else d
        schur_a = (a - b @ d_inv @ c).inverse() if self.p else a
        schur_d = (d - c @ a_inv @ b).inverse() if self.q else d
        top_right = -(a_inv @ b @ schur_d) if self.p and self.q else b
        bottom_left = -(d_inv @ c @ schur_a) if self.p and self.q else c
        return Supermatrix.from_blocks(schur_a, top_right, bottom_left, schur_d)

    def sdet(self) -> GrassmannNumber:
        """Berezinian det(A - B D^{-1} C) / det(D)."""
        a, b = self.block_a(), self.block_b()
        c, d = self.block_c(), self.block_d()
        if self.q == 0:
            return a.det()
        body = d.body()
        if np.linalg.cond(body) > COND_LIMIT:
            raise NotInvertibleError("body of block D is singular")
        det_d = d.det()
        if self.p == 0:
            return det_d.inv()
        schur = a - b @ d.inverse() @ c
        return schur.det() * det_d.inv()

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "N": self.order,
            "rows": [[g.to_dict() for g in row] for row in self.entries()],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Supermatrix":
        p, q, order = int(data["p"]), int(data["q"]), int(data["N"])
        rows = data["rows"]
        if len(rows) != p + q or any(len(r) != p + q for r in rows):
            raise ShapeMismatchError("rows grid does not match p + q")
        entries = [[GrassmannNumber.from_dict(g) for g in row] for row in rows]
        for row in entries:
            for g in row:
                if g.order != order:
                    raise OrderMismatchError("entry order differs from matrix order")
        return cls.from_entries(p, q, entries, order)

    def __repr__(self):
        return f"Supermatrix(p={self.p}, q={self.q}, N={self.order})"


def expm(m: Supermatrix) -> Supermatrix:
    """Matrix exponential by scaling and squaring over Lambda_N.

    Nilpotent input reduces to the finite sum directly; otherwise the
    argument is scaled so its entry-sum norm is at most 1 before the series.
    """
    norm = m.norm()
    nilpotent_only = 0 not in m.mat.blades
    s = 0
    if not nilpotent_only and norm > 1.0:
        s = max(0, math.ceil(math.log2(norm)))
    scaled = m.scale(0.5 ** s) if s else m
    result = Supermatrix.eye(m.p, m.q, m.order)
    term = Supermatrix.eye(m.p, m.q, m.order)
    for k in range(1, 200):
        term = (term @ scaled).scale(1.0 / k)
        if not term.mat.blades:
            break
        result = result + term
        if term.norm() <= SERIES_EPS * result.norm():
            break
    for _ in range(s):
        result = result @ result
    return result


def logm(m: Supermatrix) -> Supermatrix:
    """Series logarithm around the identity.

    Exact finite series when m - I is nilpotent; otherwise requires either
    ||m - I|| < 1 or the body of m - I to have spectral radius below 1.
    """
    delta = m - Supermatrix.eye(m.p, m.q, m.order)
    body = delta.body_matrix()
    body_norm = float(np.abs(body).max()) if body.size else 0.0
    if body_norm == 0.0:
        max_iter = m.order
    elif delta.norm() < 1.0:
        max_iter = 5000
    else:
        rho = float(np.max(np.abs(np.linalg.eigvals(body)))) if body.size else 0.0
        if rho >= 1.0 - 1e-12:
            raise LogDomainError(
                f"matrix is outside the logarithm domain (spectral radius {rho:.6f})"
            )
        max_iter = 5000
    result = Supermatrix.zeros(m.p, m.q, m.order)
    power = Supermatrix.eye(m.p, m.q, m.order)
    for k in range(1, max_iter + 1):
        power = power @ delta
        if not power.mat.blades:
            break
        result = result + power.scale((-1.0) ** (k + 1) / k)
        if k > 4 and power.norm() / k <= SERIES_EPS * max(1.0, result.norm()):
            break
    return result


def q_gram_matrix(m: int, n: int, order: int) -> Supermatrix:
    """Gram matrix of the super inner product: diag(I_m, -Omega_{2n}/2)."""
    body = np.zeros((m + 2 * n, m + 2 * n), dtype=complex)
    body[:m, :m] = np.eye(m)
    body[m:, m:] = -0.5 * symplectic_form(n)
    return Supermatrix.from_body(m, 2 * n, body, order)
