"""Spin elements over superspace: formal products of exponentials of extended
superbivectors, their induced superrotations, the compact/symmetric/nilpotent
generator split, the Stirling-number oscillator exponentials, kernel signs of
the double cover, and the fractional Fourier correspondence.

Spin elements stay formal (factor lists); everything quantitative routes
through the matrix representation, and a kernel sign is read from the
windings of its body blocks.
The oscillator exponentials and powers are weighted sums of one memoised
table of ladder products a^j b^j per (n, plane, cap), so they make no product.
The generator split works on a bivector's packed matrix S: its nilpotent
part, and the Cartan split of its body's symplectic block by Omega.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .clifford import (
    DEFAULT_CAP,
    CliffordElement,
    ExtendedSuperbivector,
    bivector_to_matrix,
    check_signature,
    matrix_to_bivector,
)
from .exceptions import AlgebraError, CapExceededError, MembershipError, ShapeMismatchError
from .grassmann import DEFAULT_TOL, GrassmannNumber, _json_text, _to_dict, json_int
from .orthosymplectic import _residuals, _split_body, _split_nilpotent, to_unitary
from .supermatrix import Supermatrix, _omega, _q_gram_body, expm


class SpinElement:
    """Formal product exp(B_1)...exp(B_k); the empty product is the identity.

    ``_body`` is None, or (B_1, B_2, exp(phi(B_1)) exp(phi(B_2))) as
    ``lift_rotation`` formed it, for ``action_matrix`` to start from while
    the first two factors are still those objects."""

    __slots__ = ("m", "n", "order", "factors", "_body")

    def __init__(self, m: int, n: int, order: int,
                 factors: Sequence[ExtendedSuperbivector] = ()):
        check_signature(m, n, order)
        for f in factors:
            if (f.m, f.n, f.order) != (m, n, order):
                raise ShapeMismatchError("factor signature mismatch")
        self.m = m
        self.n = n
        self.order = order
        self.factors = tuple(factors)
        self._body = None

    @classmethod
    def identity(cls, m: int, n: int, order: int) -> "SpinElement":
        return cls(m, n, order)

    def __mul__(self, other: "SpinElement") -> "SpinElement":
        if (self.m, self.n, self.order) != (other.m, other.n, other.order):
            raise ShapeMismatchError("cannot concatenate spin elements")
        return SpinElement(self.m, self.n, self.order,
                           self.factors + other.factors)

    def _json_tree(self) -> dict:
        """``to_dict``'s tree, the factors as bivector trees."""
        return {"m": self.m, "n": self.n, "N": self.order, "factors": list(self.factors)}

    to_json = _json_text
    to_dict = _to_dict

    @classmethod
    def from_dict(cls, data: Mapping) -> "SpinElement":
        factors = [ExtendedSuperbivector.from_dict(f)
                   for f in data.get("factors", [])]
        return cls(*(json_int(data[key], key) for key in ("m", "n", "N")), factors)

    def __repr__(self):
        return (f"SpinElement(m={self.m}, n={self.n}, N={self.order}, "
                f"factors={len(self.factors)})")


def action_matrix(s: SpinElement, tol: float = 1e-8) -> Supermatrix:
    """Superrotation induced by a spin element: the product of the factor
    exponentials in the matrix representation, checked by ``check_o0``'s
    residuals alone: str phi(B) = 0 exactly, so the sdet is 1 by construction.

    An element from ``lift_rotation`` keeps exp(phi(B_1)) exp(phi(B_2)), the
    product's first step, so only the later factors are exponentiated; the
    result is the same bits as for a fresh element of the same factors."""
    factors, start, body = s.factors, [], s._body
    if body is not None and len(factors) > 1 and factors[0] is body[0] and factors[1] is body[1]:
        factors, start = factors[2:], [body[2]]
    result = functools.reduce(Supermatrix.__matmul__, start + [
        expm(bivector_to_matrix(factor)) for factor in factors
    ] or [Supermatrix.eye(s.m, 2 * s.n, s.order)])
    if not _residuals(result, _q_gram_body(s.m, s.n), True, tol)[2]:
        raise MembershipError("spin action left the superrotation group")
    return result


# -- compact / symmetric / nilpotent split -------------------------------------


@dataclass(frozen=True)
class BivectorSplit:
    """Direct-sum split of an extended superbivector.

    compact: generators of the compact subgroup (bosonic rotations plus the
    antisymmetric fermionic combinations); symmetric: the symmetric fermionic
    combinations driving the polar stretch; nilpotent: everything with
    nilpotent or odd coefficients.
    """

    compact: ExtendedSuperbivector
    symmetric: ExtendedSuperbivector
    nilpotent: ExtendedSuperbivector

    def total(self) -> ExtendedSuperbivector:
        return self.compact + self.symmetric + self.nilpotent


def split_bivector(biv: ExtendedSuperbivector) -> BivectorSplit:
    """Exact three-way split of S; the pieces sum back to the input.

    The nilpotent part of S is the nilpotent summand.  The body's A block
    goes to the compact summand, and its D block splits by the Cartan split
    of sp(2n): the half (S_D - Omega S_D Omega) / 2, whose generator commutes
    with Omega, is compact and (S_D + Omega S_D Omega) / 2 symmetric.
    """
    m, omega, mat = biv.m, _omega(biv.n), biv.mat
    compact = mat.body()
    d = compact[m:, m:].copy()
    turned = omega @ d @ omega
    compact[m:, m:] = (d - turned) / 2
    symmetric = np.zeros_like(compact)
    symmetric[m:, m:] = (d + turned) / 2
    start = 1 if mat.masks[:1] == (0,) else 0
    return BivectorSplit(*(biv._like(masks, stack) for masks, stack in (
        ((0,), compact[None]), ((0,), symmetric[None]), (mat.masks[start:], mat.stack[start:]))))


def lift_rotation(mat: Supermatrix, tol: float = DEFAULT_TOL) -> SpinElement:
    """Three-factor spin element exp(B_1) exp(B_2) exp(B_3) covering the given
    superrotation, with the membership check of ``decompose_rotation``.

    B_1 and B_2 are its compact and symmetric exponents X and Y.  B_3 is
    Z = log(I + nil(B^-1 M)) taken against B = exp(phi(B_1)) exp(phi(B_2)),
    the body product of the element itself, not against decompose's
    exp(X) exp(Y), which can differ from it by rounding.  The element keeps
    B for ``action_matrix``; decompose's residual is not formed."""
    compact, symmetric, ratio = _split_body(mat, tol)
    first, second = (matrix_to_bivector(x, tol) for x in (compact, symmetric))
    body = expm(bivector_to_matrix(first)) @ expm(bivector_to_matrix(second))
    third = matrix_to_bivector(_split_nilpotent(mat, body, ratio, tol), tol)
    element = SpinElement(mat.p, mat.q // 2, mat.order, (first, second, third))
    element._body = (first, second, body)
    return element


# -- oscillator exponentials ------------------------------------------------------


def stirling2(k: int, j: int) -> int:
    """Stirling number of the second kind."""
    if j < 0 or j > k:
        return 0
    if k == 0:
        return 1 if j == 0 else 0
    table = [[0] * (k + 1) for _ in range(k + 1)]
    table[0][0] = 1
    for kk in range(1, k + 1):
        for jj in range(1, kk + 1):
            table[kk][jj] = table[kk - 1][jj - 1] + jj * table[kk - 1][jj]
    return table[k][j]


def ladder_pair(m: int, n: int, order: int, plane: int,
                cap: int = DEFAULT_CAP) -> tuple[CliffordElement, CliffordElement]:
    """The plane's ladder combinations a = e'_{2p-1} - i e'_{2p} and
    b = e'_{2p-1} + i e'_{2p}, whose commutator [a, b] = 2i is central."""
    if not 1 <= plane <= n:
        raise ShapeMismatchError(f"plane {plane} out of range 1..{n}")
    odd1 = CliffordElement.basis_eprime(m, n, order, 2 * plane - 1, cap)
    odd2 = CliffordElement.basis_eprime(m, n, order, 2 * plane, cap)
    return odd1 - odd2 * 1j, odd1 + odd2 * 1j


@functools.lru_cache(maxsize=32)
def _ladder_table(n: int, plane: int, cap: int) -> tuple[tuple[tuple, ...], ...]:
    """a^j b^j in normal order, j = 1..cap//2, as immutable (key, complex) pairs:
    a and b have scalar coefficients, so every coefficient is a body value and
    the table does not depend on m or N.  At cap 8 it holds 3/7/13/21 pairs."""
    mul = functools.partial(CliffordElement.multiply, strict=True)
    powers = (itertools.accumulate([x] * (cap // 2), mul)
              for x in ladder_pair(0, n, 0, plane, cap))
    return tuple(tuple((key, c.body) for key, c in mul(a_j, b_j).terms.items())
                 for a_j, b_j in zip(*powers))


def _ladder_sum(weights: Sequence[complex], factor: complex, plane: int, m: int, n: int,
                order: int, cap: int, one: complex = 0.0) -> CliffordElement:
    """factor (one + sum_j weights[j-1] a^j b^j), summed over the ladder table
    into body values per key and built once by ``CliffordElement._adopt``:
    the table's keys are valid for any m and N, and the values are checked
    and canonicalised there, as ``GrassmannNumber.scalar`` would."""
    sums = {(0, (0,) * (2 * n)): one}
    for weight, terms in zip(weights, _ladder_table(n, plane, cap)):
        for key, value in terms:
            sums[key] = sums.get(key, 0.0) + value * weight
    return CliffordElement._adopt(m, n, order, cap,
                                  {key: value * factor for key, value in sums.items()})


def oscillator_power(k: int, plane: int, m: int, n: int, order: int,
                     cap: int = DEFAULT_CAP) -> CliffordElement:
    """(ab)^k in normal order via Stirling numbers of the second kind:
    (ab)^k = sum_j (-2i)^{k-j} S(k,j) a^j b^j over the cached ladder table."""
    if k < 1:
        raise ShapeMismatchError("power must be at least 1")
    if 2 * k > cap:
        raise CapExceededError(f"(ab)^{k} has degree {2 * k} > cap {cap}")
    check_signature(m, n, order)
    return _ladder_sum([complex(0.0, -2.0) ** (k - j) * stirling2(k, j) for j in range(1, k + 1)],
                       1.0, plane, m, n, order, cap)


@dataclass(frozen=True)
class OscillatorExpansion:
    """Normal-ordered oscillator exponential with its truncation certificate."""

    element: CliffordElement
    truncation_bound: float


def oscillator_exp(theta: float, plane: int, m: int, n: int, order: int,
                   cap: int = DEFAULT_CAP) -> OscillatorExpansion:
    """exp(theta (e'_{2p-1}^2 + e'_{2p}^2)) in normal order.

    Equal to e^{-i theta} (1 + sum_{j>=1} (-2i)^{-j} (e^{-2i theta}-1)^j / j!
    a^j b^j).  At integer multiples of pi the series telescopes to (+-1)
    exactly with zero truncation error; otherwise it is truncated at the cap
    with a reported coefficient-tail bound.  Only the weights depend on theta;
    the a^j b^j come from the cached ladder table, so no Clifford product is made.
    """
    check_signature(m, n, order)
    if not 1 <= plane <= n:
        raise ShapeMismatchError(f"plane {plane} out of range 1..{n}")
    if not math.isfinite(theta):
        raise AlgebraError(f"theta must be finite, got {theta!r}")
    ratio = theta / math.pi
    nearest = round(ratio)
    if abs(ratio - nearest) <= 1e-12:
        value = -1.0 if nearest % 2 else 1.0
        return OscillatorExpansion(
            CliffordElement.scalar(m, n, order, value, cap), 0.0
        )
    phase = cmath.exp(-2j * theta) - 1.0
    jmax = cap // 2
    weights = [complex(0.0, -2.0) ** (-j) * phase ** j / math.factorial(j)
               for j in range(1, jmax + 1)]
    bound = (abs(phase) ** (jmax + 1)
             / math.factorial(jmax + 1) / 2.0 ** (jmax + 1))
    return OscillatorExpansion(_ladder_sum(weights, cmath.exp(-1j * theta), plane,
                                           m, n, order, cap, one=1.0), bound)


# -- double cover ------------------------------------------------------------------


def _compact_membership(biv: ExtendedSuperbivector, tol: float) -> None:
    split = split_bivector(biv)
    scale = max(1.0, biv.norm())
    if split.symmetric.norm() > tol * scale or split.nilpotent.norm() > tol * scale:
        raise MembershipError("kernel sign is defined on compact generators only")


def _windings(block: np.ndarray, tol: float) -> int:
    """Sum of |k| over the eigenvalues 2 pi i k of a body block or its
    unitary squashing, read by ``eigvals`` as the block may be complex;
    MembershipError when a k is off an integer by more than tol."""
    turns = np.linalg.eigvals(block) / (2j * math.pi)
    k = np.round(turns.real)
    if np.abs(turns - k).max(initial=0.0) > tol:
        raise MembershipError("body angles are not 2 pi multiples")
    return int(np.abs(k).sum())


def kernel_sign(biv: ExtendedSuperbivector, tol: float = 1e-8) -> int | None:
    """Sign of exp(B) for a compact generator whose rotation is the identity.

    Returns +1 or -1 for kernel members, None when the induced rotation is
    not the identity.  Both factors are read from ``_windings``: a 2 pi k
    turn of the A block of phi(B) in one plane gives the pair +-k, from
    exp(k pi e_i e_j) = (-1)^k, and each k of the D block's unitary
    squashing gives exp(k pi (e'^2 + e'^2)), telescoped to (-1)^k.
    """
    _compact_membership(biv, tol)
    m, generator = biv.m, bivector_to_matrix(biv)
    rotation = expm(generator)
    eye = Supermatrix.eye(m, 2 * biv.n, biv.order)
    if (rotation - eye).norm() > tol * max(1.0, rotation.norm()):
        return None
    body = generator.body_matrix()
    turns = _windings(body[:m, :m], tol) // 2 + _windings(to_unitary(body[m:, m:]), tol)
    return -1 if turns % 2 else 1


# -- fractional Fourier transforms ---------------------------------------------------


def fractional_fourier(thetas: Sequence[float], m: int, order: int) -> SpinElement:
    """One-factor spin element of the fractional Fourier transform per plane.

    The generator is sum_j (theta_j / 2) pi (e'_{2j-1}^2 + e'_{2j}^2); its
    rotation acts as the block rotation by angle pi*theta_j in plane j.  Under
    the operator identifications e'_{2j-1} ~ e^{i pi/4} d/da_j and
    e'_{2j} ~ e^{-i pi/4} a_j this is the order-2*theta_j fractional Fourier
    transform in the j-th variable (up to the phase e^{-i theta_j pi / 2}).
    """
    n = len(thetas)
    bb = {}
    for j, theta in enumerate(thetas, start=1):
        coeff = GrassmannNumber.scalar(order, theta * math.pi / 2.0)
        if coeff.terms:
            bb[(2 * j - 1, 2 * j - 1)] = coeff
            bb[(2 * j, 2 * j)] = coeff
    factor = ExtendedSuperbivector(m, n, order, {}, {}, bb)
    return SpinElement(m, n, order, [factor])
