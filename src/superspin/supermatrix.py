"""Block supermatrices over the Grassmann algebra.

A matrix over Lambda_N is stored packed: an ascending tuple of the blade
masks that carry a nonzero slice, and one read-only array stacking those
slices, so that every entrywise operation is a whole-stack numpy op.  The
array is float64 when every imaginary part is +0.0 and complex128 otherwise
(``grassmann._as_stack``, applied by the constructor); the arrays built on
the way to a result take their operands' ``np.result_type``, so a real
matrix computes in real arithmetic and a complex operand makes it complex.
Products of matrices (``@`` and scaling by a GrassmannNumber) go through
``grassmann``'s blade-stack kernel, the one that multiplies Grassmann numbers.
``_Graded`` is a packed matrix under a grading, with its +, -, scale, norm
and isclose written once; Supermatrix, and ``clifford``'s Supervector and
ExtendedSuperbivector, subclass it.  Supermatrix adds the (p|q) parity
pattern, supertranspose, supertrace, Berezinian, inverse and the exp/ln pair.
The Berezinian, and ``det`` as its q = 0 case, is det A0 / det D0 *
exp(str log(I + X)) for M = M0 (I + X): numpy on the body M0 and a finite
sum of supertraces of powers of the nilpotent X, half of them formed as
matrices.  A body with condition number above COND_LIMIT raises
SingularBodyError (block A of ``sdet`` and ``det``) or NotInvertibleError
(block D of ``sdet``, either block of ``inverse``).  The exp/ln and nilpotent series
iterate on raw (masks, stack) pairs and build one matrix at the end; exp with
no body blade and ln with body exactly I are finite nilpotent series, summed
by the kernel's ``_nilpotent_matrix_series`` as the number series are.
"""

from __future__ import annotations

import functools
import math
import operator
from types import MappingProxyType
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
from .grassmann import (CANON_EPS, GrassmannNumber, _as_stack, _blade_product,
                        _drop_zero_slices, _isclose, _json_cells, _nilpotent_matrix_series,
                        _parity_array, _read_cells, _to_dict, _to_json, _union_add, json_int)

# Relative truncation threshold for the exp/ln power series.
SERIES_EPS = 1e-14

# Bodies with condition number beyond this are treated as singular.
COND_LIMIT = 1e12


# -- matrices ---------------------------------------------------------------------


class GrassmannMatrix:
    """Rectangular matrix with Grassmann-number entries (no parity pattern).

    ``masks`` is the ascending tuple of blade masks with a nonzero slice and
    ``stack`` the read-only array of shape (len(masks), rows, cols) holding
    those slices; absent masks are zero slices.  The stack is float64 when
    every imaginary part is +0.0 and complex128 otherwise
    (``grassmann._as_stack``).  Build one from a ``{mask: slice}`` mapping
    (``blades``, copied) or directly from ``masks`` (strictly ascending, each
    below 2^order) and ``stack``, which is adopted and made read-only when
    it is float64 or has imaginary parts, else replaced by its real part.
    Either way the masks and the slice shapes are checked, the slices must
    be finite (``AlgebraError`` otherwise), and all-zero slices are dropped.
    """

    __slots__ = ("rows", "cols", "order", "masks", "stack")

    def __init__(self, rows: int, cols: int, order: int,
                 blades: Mapping[int, np.ndarray] | None = None, *,
                 masks: Sequence[int] = (), stack: np.ndarray | None = None):
        if stack is None:
            masks = tuple(sorted(blades)) if blades else ()
            slices = [np.asarray(blades[m]) for m in masks]
            for arr in slices:
                if arr.shape != (rows, cols):
                    raise ShapeMismatchError(
                        f"blade slice shape {arr.shape} != ({rows}, {cols})"
                    )
            stack = np.stack(slices) if slices else np.zeros((0, rows, cols))
        masks = tuple(masks)
        if masks and not (0 <= masks[0] and masks[-1] < 1 << order
                          and all(map(operator.lt, masks, masks[1:]))):
            raise AlgebraError(
                f"blade masks must be ascending, unique and below 2^{order}: {masks}"
            )
        stack = _as_stack(stack)
        if stack.shape != (len(masks), rows, cols):
            raise ShapeMismatchError(
                f"blade stack shape {stack.shape} != ({len(masks)}, {rows}, {cols})"
            )
        if not np.isfinite(stack).all():
            raise AlgebraError("non-finite entry in blade slice")
        masks, stack = _drop_zero_slices(masks, stack)
        stack.flags.writeable = False
        self.rows = rows
        self.cols = cols
        self.order = order
        self.masks = masks
        self.stack = stack

    def with_stack(self, masks: Sequence[int], stack: np.ndarray) -> "GrassmannMatrix":
        """A matrix of this order holding ``stack`` (adopted) under ``masks``."""
        return GrassmannMatrix(stack.shape[1], stack.shape[2], self.order,
                               masks=masks, stack=stack)

    @property
    def blades(self) -> Mapping[int, np.ndarray]:
        """Read-only {mask: slice} view of the stack."""
        return MappingProxyType(dict(zip(self.masks, self.stack)))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int, order: int) -> "GrassmannMatrix":
        return cls(rows, cols, order)

    @classmethod
    def eye(cls, size: int, order: int) -> "GrassmannMatrix":
        return cls(size, size, order, masks=(0,), stack=np.eye(size)[None])

    @classmethod
    def from_body(cls, body: np.ndarray, order: int) -> "GrassmannMatrix":
        body = np.array(body)
        return cls(body.shape[0], body.shape[1], order, masks=(0,), stack=body[None])

    @classmethod
    def from_entries(cls, entries: Sequence[Sequence[GrassmannNumber]],
                     order: int | None = None) -> "GrassmannMatrix":
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        if order is None:
            if not cols:
                raise ShapeMismatchError("the order cannot be read from an empty entry grid")
            order = entries[0][0].order
        keys, ii, jj, values = [], [], [], []
        for i, row in enumerate(entries):
            if len(row) != cols:
                raise ShapeMismatchError("ragged entry grid")
            for j, g in enumerate(row):
                if g.order != order:
                    raise OrderMismatchError("mixed Grassmann orders in matrix")
                for mask, c in g.terms.items():
                    keys.append(mask)
                    ii.append(i)
                    jj.append(j)
                    values.append(c)
        masks = tuple(sorted(set(keys)))
        position = {m: k for k, m in enumerate(masks)}
        stack = np.zeros((len(masks), rows, cols), dtype=complex)
        stack[[position[m] for m in keys], ii, jj] = values
        return cls(rows, cols, order, masks=masks, stack=stack)

    # -- access ------------------------------------------------------------

    def _number(self, cell: list[complex]) -> GrassmannNumber:
        """The entry whose blade coefficients, in ``masks`` order, are ``cell``."""
        return GrassmannNumber(self.order, {m: c for m, c in zip(self.masks, cell) if c})

    def entry(self, i: int, j: int) -> GrassmannNumber:
        return self._number(self.stack[:, i, j].tolist())

    def entries(self) -> list[list[GrassmannNumber]]:
        return [[self._number(cell) for cell in row]
                for row in self.stack.transpose(1, 2, 0).tolist()]

    def body(self) -> np.ndarray:
        if self.masks and self.masks[0] == 0:
            return self.stack[0].copy()
        return np.zeros((self.rows, self.cols), dtype=self.stack.dtype)

    def submatrix(self, rows: slice, cols: slice) -> "GrassmannMatrix":
        return self.with_stack(self.masks, self.stack[:, rows, cols])

    # -- arithmetic --------------------------------------------------------

    def _require_compatible(self, other: "GrassmannMatrix") -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatchError(
                f"shape mismatch: {(self.rows, self.cols)} vs {(other.rows, other.cols)}"
            )
        if self.order != other.order:
            raise OrderMismatchError(f"order mismatch: {self.order} vs {other.order}")

    def __add__(self, other: "GrassmannMatrix") -> "GrassmannMatrix":
        self._require_compatible(other)
        return self.with_stack(*_union_add(self.masks, self.stack, other.masks, other.stack))

    def __sub__(self, other: "GrassmannMatrix") -> "GrassmannMatrix":
        self._require_compatible(other)
        return self.with_stack(*_union_add(self.masks, self.stack, other.masks, -other.stack))

    def __neg__(self) -> "GrassmannMatrix":
        return self.scale(-1.0)

    def scale(self, factor) -> "GrassmannMatrix":
        """Left-multiply every entry by a complex scalar or GrassmannNumber."""
        return self.with_stack(*self._scaled(factor))

    def _scaled(self, factor) -> tuple[tuple[int, ...], np.ndarray]:
        """``scale``'s (masks, stack), before a matrix is built from them."""
        if isinstance(factor, GrassmannNumber):
            if factor.order != self.order:
                raise OrderMismatchError("order mismatch in scale")
            return _blade_product(np.multiply, *factor._packed(), self.masks, self.stack,
                                  self.order, (self.rows, self.cols))
        return self.masks, factor * self.stack

    def __matmul__(self, other: "GrassmannMatrix") -> "GrassmannMatrix":
        if self.cols != other.rows:
            raise ShapeMismatchError(
                f"cannot multiply {(self.rows, self.cols)} by {(other.rows, other.cols)}"
            )
        if self.order != other.order:
            raise OrderMismatchError(f"order mismatch: {self.order} vs {other.order}")
        return self.with_stack(*_blade_product(
            np.matmul, self.masks, self.stack, other.masks, other.stack, self.order,
            (self.rows, other.cols)))

    def transpose(self) -> "GrassmannMatrix":
        """Plain entrywise transpose (no parity signs)."""
        return self.with_stack(self.masks, self.stack.transpose(0, 2, 1))

    def grade(self, k: int) -> "GrassmannMatrix":
        picked = [i for i, m in enumerate(self.masks) if m.bit_count() == k]
        return self.with_stack([self.masks[i] for i in picked], self.stack[picked])

    def body_part(self) -> "GrassmannMatrix":
        return self.grade(0)

    def nilpotent_part(self) -> "GrassmannMatrix":
        start = 1 if self.masks and self.masks[0] == 0 else 0
        return self.with_stack(self.masks[start:], self.stack[start:])

    def norm(self) -> float:
        """Entry-sum norm: sum over entries of Grassmann coefficient norms."""
        return float(np.abs(self.stack).sum())

    isclose = _isclose

    # -- inverse and determinant --------------------------------------------

    def inverse(self) -> "GrassmannMatrix":
        """Inverse via body inverse plus the finite nilpotent Neumann series."""
        if self.rows != self.cols:
            raise ShapeMismatchError("inverse of a non-square matrix")
        return self._inverse_from_body(
            _body_inverse(self.body(), NotInvertibleError, "matrix body"))

    def _inverse_from_body(self, body_inverse: np.ndarray) -> "GrassmannMatrix":
        """Inverse given the inverse of this matrix's body: the Neumann series
        of X = M0^-1 (M - M0), times M0^-1 (body products are plain matmuls)."""
        x = self.nilpotent_part()
        masks, stack = _nilpotent_matrix_series(x.masks, body_inverse @ x.stack, self.order,
                                                lambda k: (-1.0) ** k)
        return self.with_stack(masks, stack @ body_inverse)

    def det(self) -> GrassmannNumber:
        """Determinant of a matrix with commuting (even) entries: the q = 0
        case of ``Supermatrix.sdet``, det M0 * exp(tr log(I + X)).  A
        numerically singular body raises SingularBodyError."""
        if self.rows != self.cols:
            raise ShapeMismatchError("determinant of a non-square matrix")
        return Supermatrix(self.rows, 0, self, validate=False).sdet()

    def __repr__(self):
        return (
            f"GrassmannMatrix({self.rows}x{self.cols}, N={self.order}, "
            f"masks={list(self.masks)})"
        )


def _body_inverse(body: np.ndarray, error: type[AlgebraError], what: str) -> np.ndarray:
    """Inverse of a square body matrix; ``error`` when its condition number
    exceeds COND_LIMIT."""
    if body.size and np.linalg.cond(body) > COND_LIMIT:
        raise error(f"{what} is numerically singular")
    return np.linalg.inv(body)


def _block_body_inverse(body: np.ndarray, p: int) -> np.ndarray:
    """Inverse of a block-diagonal body diag(A0, D0), A0 of size p: each
    block inverted as ``_body_inverse``, NotInvertibleError naming the
    singular block (A checked first)."""
    inverse = np.zeros_like(body)
    inverse[:p, :p] = _body_inverse(body[:p, :p], NotInvertibleError, "body of block A")
    inverse[p:, p:] = _body_inverse(body[p:, p:], NotInvertibleError, "body of block D")
    return inverse


def _trace_of_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """tr(a b) over the last two axes, shaped (..., 1, 1): a pairwise
    ``_blade_product`` op, as ``np.multiply`` is for numbers.  With the
    supertrace signs on the rows of a, it is str(a b)."""
    return np.einsum("...ij,...ji->...", a, b)[..., None, None]


def _log_coeff(k: int) -> float:
    """Taylor coefficient of log(1 + x)."""
    return (-1.0) ** (k + 1) / k if k else 0.0


@functools.cache
def _wrong_blocks(p: int, q: int) -> np.ndarray:
    """(2, p + q, p + q) weights: 1.0 on the blocks an even blade (row 0,
    the odd blocks B and C) or an odd blade (row 1, the even blocks A and
    D) must leave empty, 0.0 elsewhere."""
    weights = np.ones((2, p + q, p + q))
    weights[0, :p, :p] = weights[0, p:, p:] = 0.0
    weights[1, :p, p:] = weights[1, p:, :p] = 0.0
    weights.flags.writeable = False
    return weights


def symplectic_form(n: int) -> np.ndarray:
    """Omega_{2n}: block diagonal of [[0, 1], [-1, 0]], a fresh array."""
    return _omega(n).copy()


@functools.cache
def _omega(n: int) -> np.ndarray:
    """``symplectic_form(n)`` as one read-only array, for the package's own reads."""
    omega = np.zeros((2 * n, 2 * n))
    for j in range(n):
        omega[2 * j, 2 * j + 1] = 1.0
        omega[2 * j + 1, 2 * j] = -1.0
    omega.flags.writeable = False
    return omega


def split_symplectic_form(n: int) -> np.ndarray:
    """J_{2n} = [[0, I_n], [-I_n, 0]]."""
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    return j


class _Graded:
    """A packed GrassmannMatrix ``mat`` under a grading ``_grading``, a pair
    such as (p, q) or (m, n).  A subclass builds each result with its own
    ``_adopt(a, b, order, masks, stack)``; an operand of another grading or
    order raises ShapeMismatchError or OrderMismatchError, naming the class."""

    __slots__ = ("mat",)

    @property
    def order(self) -> int:
        return self.mat.order

    def _like(self, masks: Sequence[int], stack: np.ndarray):
        """The element of this grading and order holding ``stack``."""
        return self._adopt(*self._grading, self.mat.order, masks, stack)

    def _require_compatible(self, other: "_Graded") -> None:
        name = type(self).__name__
        if self._grading != other._grading:
            raise ShapeMismatchError(
                f"{name} grading mismatch: {self._grading} vs {other._grading}")
        if self.mat.order != other.mat.order:
            raise OrderMismatchError(
                f"{name} order mismatch: {self.mat.order} vs {other.mat.order}")

    def __add__(self, other):
        self._require_compatible(other)
        return self._like(*_union_add(self.mat.masks, self.mat.stack,
                                      other.mat.masks, other.mat.stack))

    def __sub__(self, other):
        self._require_compatible(other)
        return self._like(*_union_add(self.mat.masks, self.mat.stack,
                                      other.mat.masks, -other.mat.stack))

    def __neg__(self):
        return self.scale(-1.0)

    def scale(self, factor):
        """Left-multiply by a complex number or an even GrassmannNumber; an
        odd or mixed one raises ParityError."""
        if isinstance(factor, GrassmannNumber) and not factor.is_even():
            raise ParityError(f"{type(self).__name__} scaling factor must be even")
        return self._like(*self.mat._scaled(factor))

    def norm(self) -> float:
        """Entry-sum norm of ``mat``."""
        return self.mat.norm()

    isclose = _isclose


class Supermatrix(_Graded):
    """(p|q) block supermatrix: diagonal blocks even, off-diagonal blocks odd."""

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int, mat: GrassmannMatrix, validate: bool = True):
        if min(p, q) < 0 or mat.rows != mat.cols or mat.rows != p + q:
            raise ShapeMismatchError(f"expected p, q >= 0 and square size {p + q}, "
                                     f"got ({p}|{q}) and {mat.rows}x{mat.cols}")
        self.p = p
        self.q = q
        self.mat = mat
        if validate:
            self.validate_parity()

    _grading = property(lambda self: (self.p, self.q))

    @classmethod
    def _adopt(cls, p: int, q: int, order: int, masks: Sequence[int],
               stack: np.ndarray) -> "Supermatrix":
        """The (p|q) supermatrix holding ``stack`` under ``masks``; no parity check."""
        return cls(p, q, GrassmannMatrix(p + q, p + q, order, masks=masks, stack=stack),
                   validate=False)

    # -- constructors ------------------------------------------------------

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
        masks = tuple(sorted(set(a.masks).union(b.masks, c.masks, d.masks)))
        position = {m: k for k, m in enumerate(masks)}
        stack = np.zeros((len(masks), p + q, p + q),
                         dtype=np.result_type(a.stack, b.stack, c.stack, d.stack))
        for src, (r0, c0) in ((a, (0, 0)), (b, (0, p)), (c, (p, 0)), (d, (p, p))):
            stack[[position[m] for m in src.masks],
                  r0:r0 + src.rows, c0:c0 + src.cols] = src.stack
        return cls(p, q, GrassmannMatrix(p + q, p + q, a.order, masks=masks, stack=stack))

    # -- parity -------------------------------------------------------------

    def validate_parity(self, tol: float = CANON_EPS) -> None:
        """Check the (p|q) even/odd block pattern; raises ParityError.

        The largest modulus each blade has in the blocks its parity must
        leave empty, from one product of the moduli with the (p, q) weights
        of ``_wrong_blocks`` picked by the masks' parities: the first mask
        above ``tol`` is named."""
        masks, s = self.mat.masks, self.mat.stack
        weights = _wrong_blocks(self.p, self.q)[_parity_array(self.order)[list(masks)]]
        bad = (np.abs(s) * weights).max(axis=(1, 2), initial=0.0)
        offending = np.flatnonzero(bad > tol)
        if offending.size:
            k = offending[0]
            raise ParityError(
                f"entries of blade mask {masks[k]} violate the parity pattern "
                f"(max offending modulus {bad[k]:.3e})"
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

    def __matmul__(self, other: "Supermatrix") -> "Supermatrix":
        self._require_compatible(other)
        return Supermatrix(self.p, self.q, self.mat @ other.mat, validate=False)

    def supertranspose(self) -> "Supermatrix":
        """Blocks (A, B, C, D) -> (A^T, C^T, -B^T, D^T)."""
        p = self.p
        out = self.mat.stack.transpose(0, 2, 1).copy()
        out[:, p:, :p] *= -1.0
        return self._like(self.mat.masks, out)

    def supertrace(self) -> GrassmannNumber:
        """tr(A) - tr(D); an even Grassmann number."""
        p, s = self.p, self.mat.stack
        values = (np.trace(s[:, :p, :p], axis1=1, axis2=2)
                  - np.trace(s[:, p:, p:], axis1=1, axis2=2))
        return GrassmannNumber(
            self.order, {m: v for m, v in zip(self.mat.masks, values.tolist()) if v}
        )

    def body(self) -> "Supermatrix":
        return Supermatrix(self.p, self.q, self.mat.body_part(), validate=False)

    def body_matrix(self) -> np.ndarray:
        return self.mat.body()

    def nilpotent_part(self) -> "Supermatrix":
        return Supermatrix(self.p, self.q, self.mat.nilpotent_part(), validate=False)

    def grade(self, k: int) -> "Supermatrix":
        return Supermatrix(self.p, self.q, self.mat.grade(k), validate=False)

    # -- inverse / Berezinian -------------------------------------------------

    def inverse(self) -> "Supermatrix":
        """The finite Neumann series of ``GrassmannMatrix.inverse`` around
        the body, block diagonal as B and C are odd: ``_block_body_inverse``
        raises NotInvertibleError naming a singular block (A checked first)."""
        return Supermatrix(self.p, self.q, self.mat._inverse_from_body(
            _block_body_inverse(self.mat.body(), self.p)), validate=False)

    def sdet(self) -> GrassmannNumber:
        """Berezinian sdet M = det A0 / det D0 * exp(str log(I + X)).

        M = M0 (I + X) with M0 the body, block diagonal as B and C are odd,
        and X = M0^{-1} (M - M0) nilpotent, so str log(I + X) is the finite
        sum of (-1)^{k+1} / k * str(X^k) over k <= N; one formula for every
        (p, q).  Only the powers X^k with k <= h = ceil(N / 2) are formed as
        matrices; for h < k <= N, str(X^k) is the supertrace of the product
        X^h X^{k-h}, one kernel product under ``_trace_of_product`` that
        forms no matrix.  A numerically singular body raises
        NotInvertibleError for D0 (checked first), SingularBodyError for A0.
        The sums run without numpy's overflow warnings: a non-finite
        coefficient that reaches the result raises AlgebraError there.
        """
        p, mat, order, size = self.p, self.mat, self.order, self.size
        body = mat.body()
        a0, d0 = body[:p, :p], body[p:, p:]
        inv0 = np.zeros_like(body)
        inv0[p:, p:] = _body_inverse(d0, NotInvertibleError, "body of block D")
        inv0[:p, :p] = _body_inverse(a0, SingularBodyError, "body of block A")
        start = 1 if mat.masks and mat.masks[0] == 0 else 0
        sign = np.where(np.arange(size) < p, 1.0, -1.0)
        product = functools.partial(_blade_product, order=order)
        half = (order + 1) // 2
        with np.errstate(over="ignore", invalid="ignore"):
            masks, x = mat.masks[start:], inv0 @ mat.stack[start:]
            powers = [(masks, x)]  # X^1 .. X^h, or up to the first X^k = 0
            while powers[-1][0] and len(powers) < half:
                powers.append(_drop_zero_slices(*product(np.matmul, *powers[-1], masks, x,
                                                         shape=(size, size))))
            str_log = np.zeros(1 << order, dtype=x.dtype)
            for k, (pm, pw) in enumerate(powers, start=1):
                str_log[list(pm)] += _log_coeff(k) * np.einsum("kii,i->k", pw, sign)
            if powers[-1][0]:  # X^h != 0: the supertraces of X^h X^{k-h}
                top_masks, signed_top = powers[-1][0], sign[:, None] * powers[-1][1]
                for k in range(half + 1, order + 1):
                    tm, tv = product(_trace_of_product, top_masks, signed_top,
                                     *powers[k - half - 1], shape=(1, 1))
                    str_log[list(tm)] += _log_coeff(k) * tv[:, 0, 0]
        nonzero = np.flatnonzero(str_log)
        str_log = GrassmannNumber(order, dict(zip(nonzero.tolist(),
                                                  str_log[nonzero].tolist())))
        return str_log.exp() * complex(np.linalg.det(a0) / np.linalg.det(d0))

    # -- serialization ---------------------------------------------------------

    def _json_tree(self) -> dict:
        """``to_dict``'s tree, each row a list of cells read straight from
        the stack by ``_json_cells``."""
        size = self.size
        return {
            "p": self.p,
            "q": self.q,
            "N": self.order,
            "rows": _json_cells(self.order, self.mat.masks,
                                self.mat.stack.reshape(len(self.mat.masks), size * size).T,
                                [size] * size),
        }

    to_json = _to_json
    to_dict = _to_dict

    @classmethod
    def from_dict(cls, data: Mapping) -> "Supermatrix":
        """Inverse of ``to_dict``, read straight into the stack by
        ``_read_cells``: entries must have the matrix's order, and the
        parity pattern is checked."""
        p, q, order = (json_int(data[key], key) for key in ("p", "q", "N"))
        rows = data["rows"]
        size = p + q
        if len(rows) != size or any(len(r) != size for r in rows):
            raise ShapeMismatchError("rows grid does not match p + q")
        masks, values = _read_cells([entry for row in rows for entry in row], order,
                                    range(size * size), size * size, "matrix")
        return cls(p, q, GrassmannMatrix(size, size, order, masks=masks,
                                         stack=values.reshape(len(masks), size, size)))

    def __repr__(self):
        return f"Supermatrix(p={self.p}, q={self.q}, N={self.order})"


@np.errstate(over="ignore", invalid="ignore")
def expm(m: Supermatrix) -> Supermatrix:
    """Matrix exponential over Lambda_N: the finite sum of x^k / k! for input
    with no body blade, else scaling and squaring, with the argument scaled
    to entry-sum norm at most 1 and a Taylor series to SERIES_EPS.  Terms
    stay raw blade stacks; an argument whose norm overflows, a square with
    a non-finite entry (the squaring stops there) or a non-finite sum raises
    AlgebraError, without a numpy warning from the norm, a term or a square.

    The series stops at the first term with norm not above SERIES_EPS times
    the norm of the sum.  That norm is taken only when the term is within a
    factor 2 of SERIES_EPS times |I| + the sum of the term norms so far, an
    upper bound on it (the triangle inequality, far above rounding): a term
    above that is above the test, so the loop stops at the same term."""
    mat, size = m.mat, m.size
    if not mat.masks or mat.masks[0] != 0:
        return m._like(*_nilpotent_matrix_series(mat.masks, mat.stack, m.order,
                                                 lambda k: 1.0 / math.factorial(k)))
    norm = mat.norm()
    if not math.isfinite(norm):
        raise AlgebraError("entry-sum norm overflows, so exp cannot scale its argument")
    s = math.ceil(math.log2(max(norm, 1.0)))
    masks, stack = mat.masks, 0.5 ** s * mat.stack
    product = functools.partial(_blade_product, np.matmul, order=m.order, shape=(size, size))
    total_masks, total = term_masks, term = (0,), np.eye(size, dtype=stack.dtype)[None]
    bound = float(size)  # |I| + the norms of the terms so far
    for k in range(1, 200):
        term_masks, term = _drop_zero_slices(*product(term_masks, term, masks, stack))
        if not term_masks:
            break
        term = term * (1.0 / k)
        total_masks, total = _union_add(total_masks, total, term_masks, term)
        term_norm = np.abs(term).sum()
        bound += term_norm
        # "not >" also stops on a NaN term; the final build reports it
        if not (term_norm > 2.0 * SERIES_EPS * bound
                or term_norm > SERIES_EPS * np.abs(total).sum()):
            break
    for _ in range(s):
        total_masks, total = _drop_zero_slices(*product(total_masks, total, total_masks, total))
        if not np.isfinite(total).all():
            raise AlgebraError("non-finite entry in blade slice")
    return m._like(total_masks, total)


def logm(m: Supermatrix) -> Supermatrix:
    """Series logarithm around the identity, on raw blade stacks as ``expm``.

    Finite when m - I has no body blade; otherwise requires either
    ||m - I|| < 1 or the body of m - I to have spectral radius below 1, and
    raises LogDomainError when 5000 terms do not meet the stopping test.
    The norm tests and sums run without numpy's overflow warnings; the one
    matrix built at the end refuses a non-finite entry (AlgebraError).
    """
    mat, size, max_iter = m.mat, m.size, 5000
    eye = np.eye(size, dtype=mat.stack.dtype)[None]
    masks, stack = _drop_zero_slices(*_union_add(mat.masks, mat.stack, (0,), -eye))
    if not masks or masks[0] != 0:
        return m._like(*_nilpotent_matrix_series(masks, stack, m.order, _log_coeff))
    product = functools.partial(_blade_product, np.matmul, order=m.order, shape=(size, size))
    total_masks, total = (), np.zeros((0, size, size), dtype=stack.dtype)
    power_masks, power = (0,), eye
    with np.errstate(over="ignore", invalid="ignore"):
        if np.abs(stack).sum() >= 1.0:
            rho = float(np.max(np.abs(np.linalg.eigvals(stack[0]))))
            if rho >= 1.0 - 1e-12:
                raise LogDomainError(
                    f"matrix is outside the logarithm domain (spectral radius {rho:.3e})"
                )
        for k in range(1, max_iter + 1):
            power_masks, power = _drop_zero_slices(*product(power_masks, power, masks, stack))
            if not power_masks:
                break
            total_masks, total = _union_add(total_masks, total, power_masks,
                                            _log_coeff(k) * power)
            power_norm = np.abs(power).sum()
            if k > 4 and power_norm / k <= SERIES_EPS * max(1.0, np.abs(total).sum()):
                break
        else:
            raise LogDomainError(
                f"logarithm series did not converge in {max_iter} terms "
                f"(last term norm {power_norm / max_iter:.3e})")
    return m._like(total_masks, total)


@functools.cache
def _q_gram_body(m: int, n: int) -> np.ndarray:
    """diag(I_m, -Omega_{2n} / 2) = diag(I_m, Omega_{2n}^T / 2), one read-only array."""
    gram = np.eye(m + 2 * n)
    gram[m:, m:] = 0.5 * _omega(n).T
    gram.flags.writeable = False
    return gram


def q_gram_matrix(m: int, n: int, order: int) -> Supermatrix:
    """Gram matrix of the super inner product: diag(I_m, -Omega_{2n}/2)."""
    return Supermatrix.from_body(m, 2 * n, _q_gram_body(m, n), order)
