"""Normal-ordered arithmetic in the tensor product of Lambda_N with the
Clifford-Weyl algebra on m orthogonal and 2n symplectic generators.

Generators: e_1..e_m square to -1 and anticommute; e'_1..e'_2n obey the Weyl
relations e'_u e'_v - e'_v e'_u = g_{uv} with the symplectic pairing g; the
two families anticommute with each other; Grassmann coefficients commute with
all of them.  Elements are kept in normal order: ascending e-blade first,
then e'_1^{a_1}...e'_{2n}^{a_{2n}}, with total fermionic degree capped.

A product is one loop over key pairs (e-blade mask, fermionic multi-index):
each pair's Grassmann coefficient product runs on the blade-stack kernel, and
``_key_product`` normal-orders the two basis monomials into weighted output
keys.  Clifford products are few and small (the bracket of superbivectors,
the bosonic factor of the double-cover sign, the ladder products behind the
oscillator elements), so the loop holds no cache.
Supervectors are packed (m + 2n) x 1 columns of the same kernel, so inner,
wedge, reflections and the commutator action are whole-stack products.
An extended superbivector is one packed graded-antisymmetric
(m + 2n) x (m + 2n) matrix S, chosen so that the isomorphism onto the Lie
algebra so_0 is phi(B) = S K and its inverse S = X K^-1, with
K = blockdiag(-2 I_m, Omega_2n) the form of ``inner``; its arithmetic is
whole-stack, and its commutator action on a supervector is phi(B) x.

Both classes subclass ``supermatrix._Graded``, which writes their linear
operations and comparison once.  One construction: every Supervector and
ExtendedSuperbivector result is built once, by the class's ``_adopt``, from
the raw (masks, stack) of its last step, with no intermediate GrassmannMatrix
or GrassmannNumber.  The -0.0 rule: ``_drop_tiny`` canonicalises a stack only
when some entry below the threshold is not zero; otherwise the stack is kept
as it is, -0.0 parts included, as the per-number canonical form keeps them.  Their stacks follow
the kernel's dtype rule (``grassmann._as_stack``): float64 when every
coefficient is real, as for the paper's real vectors, reflections and
bivectors, and complex128 once a complex operand enters; on a float64
stack ``_drop_tiny`` and ``reflect``'s 2<x,w> filter take |x| directly,
which for real x is max(|re|, |im|), and scan no imaginary part.

A Supervector keeps its supersphere measurement (``_sphere``), so a mirror
applied to many vectors is measured once; the tolerances of
``on_supersphere`` are compared on every call.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .exceptions import (
    AlgebraError,
    CapExceededError,
    MembershipError,
    OrderMismatchError,
    ParityError,
    ShapeMismatchError,
)
from .grassmann import (
    CANON_EPS,
    DEFAULT_TOL,
    MAX_ORDER,
    GrassmannNumber,
    _as_stack,
    _blade_product,
    _drop_zero_slices,
    _isclose,
    _json_cells,
    _json_text,
    _kept,
    _parity_array,
    _random_stack,
    _read_cells,
    _to_dict,
    _union_add,
    json_int,
    random_grassmann,
    reorder_sign,
)
from .supermatrix import GrassmannMatrix, Supermatrix, _Graded, _q_gram_body

DEFAULT_CAP = 8

# Tolerance for discarding non-vector residue when extracting supervectors.
EXTRACT_TOL = 1e-10

def symplectic_pairing(u: int, v: int) -> int:
    """g_{uv} for 1-based fermionic indices: +1 on (2j-1, 2j), -1 swapped."""
    if u == v + 1 and u % 2 == 0:
        return -1
    if v == u + 1 and v % 2 == 0:
        return 1
    return 0


def _blade_mul(mask_a: int, mask_b: int) -> tuple[int, int]:
    """Product of e-blades with e_j^2 = -1: (sign, result mask)."""
    sign = reorder_sign(mask_a, mask_b)
    if (mask_a & mask_b).bit_count() & 1:
        sign = -sign
    return sign, mask_a ^ mask_b


@functools.cache
def _plane_reorder(p1: int, q1: int, p2: int, q2: int) -> tuple[tuple[int, int, float], ...]:
    """Normal-order x^p1 y^q1 x^p2 y^q2 within one symplectic plane.

    With [x, y] = 1 one has y^q x^p = sum_k (-1)^k k! C(p,k) C(q,k)
    x^{p-k} y^{q-k}; returns (x exponent, y exponent, coefficient) triples.
    """
    return tuple(
        (p1 + p2 - k, q1 + q2 - k,
         ((-1.0) ** k) * math.factorial(k) * math.comb(p2, k) * math.comb(q1, k))
        for k in range(min(q1, p2) + 1)
    )


_Key = tuple[int, tuple[int, ...]]


def _key_product(key_a: _Key, key_b: _Key, n: int,
                 cap: int) -> tuple[list[tuple[_Key, float]], int]:
    """Normal-ordered product of two basis monomials: its (key, weight)
    terms within the cap, and the largest degree above the cap (0 when
    there is none)."""
    (ea, aa), (eb, ab) = key_a, key_b
    sign, emask = _blade_mul(ea, eb)
    # e-generators of the right factor step over the left fermionic
    # monomial; both families anticommute.
    if sum(aa) & 1 and eb.bit_count() & 1:
        sign = -sign
    # per-plane Weyl reordering, planes commute with each other
    planes = [_plane_reorder(aa[2 * t], aa[2 * t + 1], ab[2 * t], ab[2 * t + 1])
              for t in range(n)]
    terms, top = [], 0
    for combo in itertools.product(*planes):
        weight = math.prod((c for _, _, c in combo), start=float(sign))
        if weight == 0.0:
            continue
        alpha = tuple(e for px, qy, _ in combo for e in (px, qy))
        if sum(alpha) > cap:
            top = max(top, sum(alpha))
        else:
            terms.append(((emask, alpha), weight))
    return terms, top


def _drop_tiny(values: np.ndarray, eps: float | np.ndarray = CANON_EPS) -> np.ndarray:
    """``values`` canonical as GrassmannNumber keeps its terms: when an
    entry whose |re| and |im| are both below ``eps`` is not zero, a copy with
    every such entry set to +0.0; otherwise ``values`` itself, so its -0.0
    parts survive."""
    top = (np.maximum(np.abs(values.real), np.abs(values.imag))
           if values.dtype.kind == "c" else np.abs(values))
    tiny = top < eps
    return np.where(tiny, 0.0, values) if (tiny & (top > 0.0)).any() else values


class CliffordElement:
    """Degree-capped normal-ordered element of Lambda_N (x) C_{m,2n}."""

    __slots__ = ("m", "n", "order", "cap", "terms", "truncated")

    def __init__(self, m: int, n: int, order: int, cap: int = DEFAULT_CAP,
                 terms: Mapping[tuple[int, tuple[int, ...]], GrassmannNumber] | None = None,
                 truncated: bool = False):
        check_signature(m, n, order)
        self.m = m
        self.n = n
        self.order = order
        self.cap = cap
        self.truncated = truncated
        data: dict[tuple[int, tuple[int, ...]], GrassmannNumber] = {}
        if terms:
            for (emask, alpha), coeff in terms.items():
                alpha = tuple(alpha)
                if emask >> m:
                    raise ShapeMismatchError(f"e-blade mask {emask} out of range for m={m}")
                if len(alpha) != 2 * n:
                    raise ShapeMismatchError("fermionic multi-index length must be 2n")
                if sum(alpha) > cap:
                    raise CapExceededError(
                        f"term degree {sum(alpha)} exceeds cap {cap}"
                    )
                if coeff.order != order:
                    raise OrderMismatchError("coefficient order mismatch")
                if coeff.terms:
                    key = (emask, alpha)
                    data[key] = data[key] + coeff if key in data else coeff
        self.terms = {k: v for k, v in data.items() if v.terms}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, m, n, order, cap=DEFAULT_CAP):
        return cls(m, n, order, cap)

    @classmethod
    def scalar(cls, m, n, order, value, cap=DEFAULT_CAP):
        coeff = value if isinstance(value, GrassmannNumber) else \
            GrassmannNumber.scalar(order, value)
        return cls(m, n, order, cap, {(0, (0,) * (2 * n)): coeff})

    @classmethod
    def basis_e(cls, m, n, order, j, cap=DEFAULT_CAP):
        """The bosonic generator e_j, 1-based."""
        if not 1 <= j <= m:
            raise ShapeMismatchError(f"e index {j} out of range 1..{m}")
        return cls(m, n, order, cap,
                   {(1 << (j - 1), (0,) * (2 * n)): GrassmannNumber.one(order)})

    @classmethod
    def basis_eprime(cls, m, n, order, u, cap=DEFAULT_CAP):
        """The fermionic generator e'_u, 1-based."""
        if not 1 <= u <= 2 * n:
            raise ShapeMismatchError(f"e' index {u} out of range 1..{2 * n}")
        alpha = [0] * (2 * n)
        alpha[u - 1] = 1
        return cls(m, n, order, cap, {(0, tuple(alpha)): GrassmannNumber.one(order)})

    @classmethod
    def _adopt(cls, m: int, n: int, order: int, cap: int,
               values: Mapping[_Key, complex]) -> "CliffordElement":
        """The element whose coefficient at each key of ``values`` is that
        body value, the keys taken as valid: each value is held as
        ``GrassmannNumber.scalar`` holds it (AlgebraError when it is not
        finite, dropped when both parts are below CANON_EPS)."""
        elem = object.__new__(cls)
        elem.m, elem.n, elem.order, elem.cap, elem.truncated = m, n, order, cap, False
        elem.terms = {}
        for key, value in values.items():
            c = complex(value)
            if not cmath.isfinite(c):
                raise AlgebraError(f"non-finite coefficient {c!r}")
            if abs(c.real) >= CANON_EPS or abs(c.imag) >= CANON_EPS:
                elem.terms[key] = GrassmannNumber._adopt(order, {0: c})
        return elem

    def _like(self, terms, truncated=False):
        return CliffordElement(self.m, self.n, self.order, self.cap, terms,
                               truncated=self.truncated or truncated)

    # -- arithmetic --------------------------------------------------------

    def _require_compatible(self, other: "CliffordElement") -> None:
        if (self.m, self.n, self.order) != (other.m, other.n, other.order):
            raise ShapeMismatchError("incompatible Clifford algebra signatures")

    def __add__(self, other):
        if isinstance(other, CliffordElement):
            self._require_compatible(other)
            out = dict(self.terms)
            for key, coeff in other.terms.items():
                out[key] = out[key] + coeff if key in out else coeff
            return CliffordElement(self.m, self.n, self.order, max(self.cap, other.cap),
                                   out, truncated=self.truncated or other.truncated)
        if isinstance(other, (int, float, complex, GrassmannNumber)):
            return self + CliffordElement.scalar(self.m, self.n, self.order,
                                                 other, self.cap)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._like({k: -v for k, v in self.terms.items()})

    def scale(self, factor) -> "CliffordElement":
        """Right-multiply every coefficient by a complex or Grassmann scalar."""
        return self._like({k: v * factor for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, CliffordElement):
            return self.multiply(other, strict=False)
        if isinstance(other, (int, float, complex, GrassmannNumber)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex, GrassmannNumber)):
            return self.scale(other)
        return NotImplemented

    def multiply(self, other: "CliffordElement", strict: bool = False) -> "CliffordElement":
        """Normal-ordered product; over-cap terms raise in strict mode.

        One loop over key pairs: each pair's coefficient product, when it
        is nonzero, adds its weighted multiples to the output keys of
        ``_key_product``.  A combination above the cap marks the result
        ``truncated`` (or raises ``CapExceededError`` in strict mode) only
        when its key pair's coefficient product is nonzero.
        """
        self._require_compatible(other)
        cap = max(self.cap, other.cap)
        out: dict[_Key, GrassmannNumber] = {}
        degree = 0
        for key_a, coeff_a in self.terms.items():
            for key_b, coeff_b in other.terms.items():
                coeff = coeff_a * coeff_b
                if not coeff.terms:
                    continue
                terms, top = _key_product(key_a, key_b, self.n, cap)
                degree = max(degree, top)
                for key, weight in terms:
                    term = coeff * weight
                    out[key] = out[key] + term if key in out else term
        if degree and strict:
            raise CapExceededError(f"product degree {degree} exceeds cap {cap}")
        return CliffordElement(self.m, self.n, self.order, cap, out,
                               truncated=self.truncated or other.truncated or bool(degree))

    # -- structure ---------------------------------------------------------

    def scalar_part(self) -> GrassmannNumber:
        return self.terms.get((0, (0,) * (2 * self.n)),
                              GrassmannNumber.zero(self.order))

    def fermionic_degree(self) -> int:
        return max((sum(a) for (_, a) in self.terms), default=0)

    def norm(self) -> float:
        return sum(c.norm() for c in self.terms.values())

    isclose = _isclose

    def as_supervector(self, tol: float = EXTRACT_TOL) -> "Supervector":
        """Extract a supervector; residue above tol * norm is an error."""
        even = [GrassmannNumber.zero(self.order) for _ in range(self.m)]
        odd = [GrassmannNumber.zero(self.order) for _ in range(2 * self.n)]
        residue = 0.0
        for (emask, alpha), coeff in self.terms.items():
            deg = sum(alpha)
            if emask.bit_count() == 1 and deg == 0:
                even[emask.bit_length() - 1] = coeff
            elif emask == 0 and deg == 1:
                odd[alpha.index(1)] = coeff
            else:
                residue += coeff.norm()
        if residue > tol * max(1.0, self.norm()):
            raise AlgebraError(
                f"element is not a supervector (residue norm {residue:.3e})"
            )
        return Supervector(self.m, self.n, self.order, even, odd)

    def as_superbivector(self, tol: float = EXTRACT_TOL) -> "ExtendedSuperbivector":
        """Extract an extended superbivector from the normal-ordered form.

        The symmetrized fermionic products contribute a scalar shift
        (e'_u (.) e'_v = e'_u e'_v - g_{uv}/2 for u < v); the actual scalar
        part must match the shift implied by the extracted coefficients.
        """
        b, bq, bb = {}, {}, {}
        residue = 0.0
        for (emask, alpha), coeff in self.terms.items():
            k = emask.bit_count()
            deg = sum(alpha)
            if k == 2 and deg == 0:
                b[((emask & -emask).bit_length(), emask.bit_length())] = coeff
            elif k == 1 and deg == 1:
                bq[(emask.bit_length(), alpha.index(1) + 1)] = coeff
            elif k == 0 and deg == 2:
                support = [i + 1 for i, a in enumerate(alpha) if a]
                bb[(support[0], support[-1])] = coeff
            elif k or deg:
                residue += coeff.norm()
        if residue > tol * max(1.0, self.norm()):
            raise AlgebraError(
                f"element is not an extended superbivector (residue {residue:.3e})"
            )
        biv = ExtendedSuperbivector(self.m, self.n, self.order, b, bq, bb)
        expected = biv.to_clifford().scalar_part()
        if (self.scalar_part() - expected).norm() > tol * max(1.0, self.norm()):
            raise AlgebraError("scalar part inconsistent with symmetrized products")
        return biv

    # -- serialization -------------------------------------------------------

    def _json_tree(self) -> dict:
        """``to_dict``'s tree, the terms by ascending key."""
        return {
            "m": self.m,
            "n": self.n,
            "N": self.order,
            "cap": self.cap,
            "truncated": self.truncated,
            "terms": [
                {"emask": emask, "alpha": list(alpha), "coeff": coeff}
                for (emask, alpha), coeff in sorted(self.terms.items())
            ],
        }

    to_json = _json_text
    to_dict = _to_dict

    @classmethod
    def from_dict(cls, data: Mapping) -> "CliffordElement":
        """Inverse of ``to_dict``: every coefficient read in one pass, one
        number per distinct (emask, alpha) key, so a repeated key is summed."""
        m, n, order = (json_int(data[key], key) for key in ("m", "n", "N"))
        keys, coeffs, cells = {}, [], []
        for t in data.get("terms", []):
            key = (json_int(t["emask"], "emask"), tuple(json_int(a, "alpha") for a in t["alpha"]))
            coeffs.append(t["coeff"])
            cells.append(keys.setdefault(key, len(keys)))
        terms = dict(zip(keys, GrassmannNumber._read_many(coeffs, order, cells, len(keys),
                                                          "Clifford element")))
        truncated = data.get("truncated", False)
        if type(truncated) is not bool:
            raise TypeError(f"truncated must be a boolean, got {truncated!r}")
        return cls(m, n, order, json_int(data.get("cap", DEFAULT_CAP), "cap"), terms,
                   truncated=truncated)

    def __repr__(self):
        return (f"CliffordElement(m={self.m}, n={self.n}, N={self.order}, "
                f"terms={len(self.terms)}, cap={self.cap})")


class Supervector(_Graded):
    """Element of R^{m,2n}(Lambda_N): m even and 2n odd Grassmann coordinates,
    stored as one packed (m + 2n) x 1 column ``mat``, canonical as
    GrassmannNumber is.

    Every result is built once, by ``_adopt``, from the raw (masks, stack)
    of the operation that made it: one canonicalisation (``_drop_tiny``,
    which keeps the stack, -0.0 parts included, when no entry is tiny) and
    one GrassmannMatrix, which checks finiteness and the masks.  Results of
    checked operands skip the shape, order and parity checks: the blade
    product fixes parity.  ``from_column`` holds a canonical checked column
    as it is."""

    __slots__ = ("m", "n", "_sphere")

    def __init__(self, m: int, n: int, order: int,
                 even: Sequence[GrassmannNumber], odd: Sequence[GrassmannNumber]):
        if len(even) != m or len(odd) != 2 * n:
            raise ShapeMismatchError("coordinate counts must be m and 2n")
        entries = [[g] for g in (*even, *odd)]
        self.m, self.n = m, n
        self.mat = (GrassmannMatrix.from_entries(entries, order) if entries
                    else GrassmannMatrix.zeros(0, 1, order))
        self._check()

    _grading = property(lambda self: (self.m, self.n))

    @classmethod
    def _adopt(cls, m: int, n: int, order: int, masks: Sequence[int],
               stack: np.ndarray) -> "Supervector":
        """The vector whose column holds ``stack`` (len(masks), m + 2n, 1),
        canonicalised; no parity check."""
        vec = object.__new__(cls)
        vec.m, vec.n = m, n
        vec.mat = GrassmannMatrix(m + 2 * n, 1, order, masks=masks, stack=_drop_tiny(stack))
        return vec

    def _check(self) -> None:
        """Order in range; no odd mask in an even row, no even mask in an odd row."""
        check_signature(self.m, self.n, self.order)
        odd = _parity_array(self.order)[list(self.mat.masks)] == 1
        entries = self.mat.stack[:, :, 0]
        if entries[odd, :self.m].any():
            raise ParityError("bosonic coordinates must be even")
        if entries[~odd, self.m:].any():
            raise ParityError("fermionic coordinates must be odd")

    @property
    def even(self) -> tuple[GrassmannNumber, ...]:
        return tuple(self.mat.entry(i, 0) for i in range(self.m))

    @property
    def odd(self) -> tuple[GrassmannNumber, ...]:
        return tuple(self.mat.entry(i, 0) for i in range(self.m, self.mat.rows))

    @classmethod
    def zero(cls, m, n, order):
        return cls.from_column(m, n, GrassmannMatrix.zeros(max(m + 2 * n, 0), 1, order))

    @classmethod
    def unit(cls, m, n, order, index: int):
        """Unit vector along the bosonic e_index (1-based)."""
        if not 1 <= index <= m:
            raise ShapeMismatchError(f"e index {index} out of range 1..{m}")
        even = [GrassmannNumber.zero(order)] * m
        even[index - 1] = GrassmannNumber.one(order)
        return cls(m, n, order, even, [GrassmannNumber.zero(order)] * (2 * n))

    @classmethod
    def from_coefficients(cls, m, n, order, even, odd):
        def conv(g):
            return g if isinstance(g, GrassmannNumber) else GrassmannNumber.scalar(order, g)
        return cls(m, n, order, [conv(g) for g in even], [conv(g) for g in odd])

    def to_clifford(self, cap: int = DEFAULT_CAP) -> CliffordElement:
        zeros = (0,) * (2 * self.n)
        terms = {(1 << j, zeros): g for j, g in enumerate(self.even)}
        terms.update({(0, zeros[:u] + (1,) + zeros[u + 1:]): g
                      for u, g in enumerate(self.odd)})
        return CliffordElement(self.m, self.n, self.order, cap, terms)

    def to_column(self) -> GrassmannMatrix:
        return self.mat

    @classmethod
    def from_column(cls, m: int, n: int, col: GrassmannMatrix) -> "Supervector":
        if min(m, n) < 0 or col.cols != 1 or col.rows != m + 2 * n:
            raise ShapeMismatchError("column shape does not match (m, n)")
        if _drop_tiny(col.stack) is col.stack:
            vec = object.__new__(cls)
            vec.m, vec.n, vec.mat = m, n, col
        else:
            vec = cls._adopt(m, n, col.order, col.masks, col.stack)
        vec._check()
        return vec

    def square(self) -> GrassmannNumber:
        """w^2 = -<w, w> as a central even Grassmann number."""
        return -inner(self, self)

    def body_vector(self) -> np.ndarray:
        return self.mat.body()[:self.m, 0]

    def on_supersphere(self, tol: float = DEFAULT_TOL, nil_tol: float = 1e-12) -> bool:
        """w^2 = -1, i.e. <w, w> = 1: exact nilpotent cancellation plus a
        unit-sphere body, read off the raw stack of <w, w> with each
        coefficient, and the body deviation 1 - c_0, held as a
        GrassmannNumber holds it (AlgebraError when not finite, dropped when
        both parts are below CANON_EPS); the nilpotent moduli are summed in
        mask order, as ``GrassmannNumber.norm`` sums them.

        The two measured numbers do not depend on the tolerances, so the
        vector keeps them in ``_sphere`` with the ``mat`` and (m, n) they
        were read from, and a later call, at any ``tol`` and ``nil_tol``,
        only compares them again; a vector whose ``mat``, m or n has been
        replaced is measured again.  A non-finite <w, w> keeps nothing and
        raises on every call."""
        kept = getattr(self, "_sphere", None)
        if kept is None or kept[0] is not self.mat or kept[1:3] != (self.m, self.n):
            kept = self._sphere = (self.mat, self.m, self.n, *self._sphere_measure())
        return kept[3] <= nil_tol and kept[4] <= tol

    def _sphere_measure(self) -> tuple[float, float]:
        """``on_supersphere``'s (nilpotent modulus sum, |1 - c_0|)."""
        masks, stack = _inner_stack(self, self)
        values = stack[:, 0, 0]
        nonfinite = values[~np.isfinite(values)]
        if nonfinite.size:
            raise AlgebraError(f"non-finite coefficient {complex(nonfinite[0])!r}")
        norm, dev = 0, 1.0
        for mask, c in zip(masks, values.tolist()):
            if abs(c.real) >= CANON_EPS or abs(c.imag) >= CANON_EPS:
                if mask:
                    norm += abs(c)
                else:
                    dev = 1.0 - c
        if abs(dev.real) < CANON_EPS and abs(dev.imag) < CANON_EPS:
            dev = 0.0
        return norm, abs(dev)

    def _json_tree(self) -> dict:
        """``to_dict``'s tree, the even and the odd coordinates each a list
        of cells read straight from the column."""
        even, odd = _json_cells(self.order, self.mat.masks, self.mat.stack[:, :, 0].T,
                                (self.m, 2 * self.n))
        return {"m": self.m, "n": self.n, "N": self.order, "even": even, "odd": odd}

    to_json = _json_text
    to_dict = _to_dict

    @classmethod
    def from_dict(cls, data: Mapping) -> "Supervector":
        """Inverse of ``to_dict``, read straight into the column; parity is checked."""
        m, n, order = (json_int(data[key], key) for key in ("m", "n", "N"))
        even, odd = data.get("even", []), data.get("odd", [])
        if len(even) != m or len(odd) != 2 * n:
            raise ShapeMismatchError("coordinate counts must be m and 2n")
        size = m + 2 * n
        masks, values = _read_cells([*even, *odd], order, range(size), size, "supervector")
        return cls.from_column(m, n, GrassmannMatrix(
            size, 1, order, masks=masks, stack=values.reshape(len(masks), size, 1)))

    def __repr__(self):
        return f"Supervector(m={self.m}, n={self.n}, N={self.order})"


def check_signature(m: int, n: int, order: int) -> None:
    """m, n >= 0 (ShapeMismatchError), order in [0, MAX_ORDER] (OrderMismatchError)."""
    if min(m, n) < 0:
        raise ShapeMismatchError(f"m and n must be non-negative, got m={m}, n={n}")
    if not 0 <= order <= MAX_ORDER:
        raise OrderMismatchError(f"order must be in [0, {MAX_ORDER}], got {order}")


class _Layout(NamedTuple):
    """Where an extended superbivector's coefficients sit in its matrix S.

    ``index[f]`` maps the keys of family f (b, bq, bb), ascending, to
    coefficient numbers i, and coefficient i is scale[i] * S[rows[i], cols[i]]
    (keys 1-based, cells 0-based): b_jk = -S[k, j], bq_ju = -S[m + u, j],
    bb_uv = S[m + u, m + v] and bb_uu = S[m + u, m + u] / 2.  The mirror cell
    (cols[i], rows[i]) holds the same entry, negated where scale[i] < 0.
    ``canon`` is CANON_EPS per entry of S, doubled on the D diagonal.
    """

    index: tuple[Mapping[tuple[int, int], int], ...]
    rows: np.ndarray
    cols: np.ndarray
    scale: np.ndarray
    canon: np.ndarray


@functools.cache
def _layout(m: int, n: int) -> _Layout:
    (j, k), (u, v) = np.triu_indices(m, 1), np.triu_indices(2 * n)
    mixed = np.repeat(np.arange(m), 2 * n), np.tile(np.arange(2 * n), m)
    keys = [list(zip((a + 1).tolist(), (b + 1).tolist())) for a, b in ((j, k), mixed, (u, v))]
    starts = np.cumsum([0] + [len(family) for family in keys]).tolist()
    layout = _Layout(
        tuple(MappingProxyType({key: start + i for i, key in enumerate(family)})
              for family, start in zip(keys, starts)),
        np.concatenate([k, m + mixed[1], m + u]), np.concatenate([j, mixed[0], m + v]),
        np.concatenate([-np.ones(starts[2]), np.where(u == v, 0.5, 1.0)]),
        CANON_EPS * (1.0 + np.diag(np.arange(m + 2 * n) >= m)))
    for array in layout[1:]:
        array.flags.writeable = False
    return layout


def _times(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """values * weights for real weights; for complex values the real and
    imaginary parts are scaled apart, so a signed zero part stays as
    GrassmannNumber keeps it.  An overflow gives inf without a warning, for
    the matrix built from the result to refuse."""
    with np.errstate(over="ignore"):
        if values.dtype.kind != "c":
            return values * weights
        out = np.empty(np.broadcast_shapes(values.shape, weights.shape), dtype=complex)
        out.real = values.real * weights
        out.imag = values.imag * weights
    return out


def _mirrored(layout: _Layout, size: int, cells: np.ndarray) -> np.ndarray:
    """The stack of S whose coefficient cells hold ``cells`` (one row per
    blade), mirrored into the graded-antisymmetric rest of S."""
    stack = np.zeros((len(cells), size, size), dtype=cells.dtype)
    stack[:, layout.rows, layout.cols] = cells
    stack[:, layout.cols, layout.rows] = np.where(layout.scale < 0, -cells, cells)
    return stack


class ExtendedSuperbivector(_Graded):
    """Degree-2 element: orthogonal (b, even), mixed (bq, odd) and symplectic
    (bb, even, the body allowed) coefficient families.

    Stored as one packed (m + 2n) x (m + 2n) graded-antisymmetric matrix
    ``mat`` = S with the (m|2n) parity pattern: S_A antisymmetric with b_jk
    at (j, k), bq_ju at (j, m + u) with S_C = -S_B^T, and S_D symmetric with
    bb_uv at (u, v) and 2 bb_uu on the diagonal, so that phi(B) = S K (see
    ``bivector_to_matrix``).  S is canonical as GrassmannNumber is; ``b``,
    ``bq`` and ``bb`` list the nonzero coefficients.

    As for Supervector, every result is built once, by ``_adopt``, from the
    raw (masks, stack) of the operation that made it: one canonicalisation
    against the per-entry threshold of S (``_drop_tiny``, keeping the stack
    and its -0.0 parts when no entry is tiny) and one GrassmannMatrix.
    Results of checked operands skip the parity check.
    """

    __slots__ = ("m", "n")

    _RULES = ("bosonic pair {} needs 1<=j<k<=m", "mixed pair {} out of range",
              "symplectic pair {} needs 1<=u<=v<=2n")

    def __init__(self, m: int, n: int, order: int,
                 b: Mapping[tuple[int, int], GrassmannNumber] | None = None,
                 bq: Mapping[tuple[int, int], GrassmannNumber] | None = None,
                 bb: Mapping[tuple[int, int], GrassmannNumber] | None = None):
        check_signature(m, n, order)
        layout = _layout(m, n)
        masks, cells, values = [], [], []
        for index, family, rule in zip(layout.index, (b, bq, bb), self._RULES):
            for key, g in (family or {}).items():
                if key not in index:
                    raise ShapeMismatchError(rule.format(key))
                if g.order != order:
                    raise OrderMismatchError("coefficient order mismatch")
                masks += g.terms
                cells += [index[key]] * len(g.terms)
                values += g.terms.values()
        keys, slot = np.unique(np.asarray(masks, dtype=np.int64), return_inverse=True)
        coeffs = np.zeros((len(keys), len(layout.scale)), dtype=complex)
        coeffs[slot, cells] = values
        self._fill(m, n, order, keys.tolist(), _as_stack(coeffs))

    def _fill(self, m: int, n: int, order: int, masks: list[int], coeffs: np.ndarray) -> None:
        """Hold the canonical coefficients ``coeffs`` (one row per blade of
        ``masks``, one column per coefficient number) as S; check parity."""
        # S is canonical: its entries are canonical coefficients, negated or doubled
        layout, size = _layout(m, n), m + 2 * n
        self.m, self.n = m, n
        self.mat = GrassmannMatrix(size, size, order, masks=masks, stack=_mirrored(
            layout, size, _times(coeffs, 1.0 / layout.scale)))
        self._check()

    @classmethod
    def _adopt(cls, m: int, n: int, order: int, masks: Sequence[int],
               stack: np.ndarray) -> "ExtendedSuperbivector":
        """The bivector whose S holds ``stack`` (len(masks), m + 2n, m + 2n),
        canonicalised; no parity check."""
        size = m + 2 * n
        biv = object.__new__(cls)
        biv.m, biv.n = m, n
        biv.mat = GrassmannMatrix(size, size, order, masks=masks,
                                  stack=_drop_tiny(stack, _layout(m, n).canon))
        return biv

    _grading = property(lambda self: (self.m, self.n))

    def _check(self) -> None:
        """Even b and bb, odd bq: the (m|2n) parity pattern of S."""
        Supermatrix(self.m, 2 * self.n, self.mat, validate=False).validate_parity(0.0)

    def _values(self) -> np.ndarray:
        """Every coefficient, one row per blade of ``mat``."""
        layout = _layout(self.m, self.n)
        return _times(self.mat.stack[:, layout.rows, layout.cols], layout.scale)

    def _family(self, f: int) -> dict[tuple[int, int], GrassmannNumber]:
        index = _layout(self.m, self.n).index[f]
        values = self._values()[:, list(index.values())].T.tolist()
        return {key: self.mat._number(cell) for key, cell in zip(index, values) if any(cell)}

    b = property(lambda self: self._family(0), doc="{(j, k): b_jk}, j < k")
    bq = property(lambda self: self._family(1), doc="{(j, u): bq_ju}")
    bb = property(lambda self: self._family(2), doc="{(u, v): bb_uv}, u <= v")

    @classmethod
    def zero(cls, m, n, order):
        return cls(m, n, order)

    def norm(self) -> float:
        """Sum of the coefficients' norms."""
        return float(np.abs(self._values()).sum())

    def is_strict(self, tol: float = 0.0) -> bool:
        """True when every symplectic coefficient is nilpotent (zero body)."""
        d = self.mat.body()[self.m:, self.m:]
        return bool((np.abs(d) * np.where(np.eye(len(d)), 0.5, 1.0) <= tol).all())

    def to_clifford(self, cap: int = DEFAULT_CAP) -> CliffordElement:
        """b_jk e_j e_k + bq_ju e_j e'_u + bb_uv e'_u (.) e'_v in normal order,
        e'_u (.) e'_v = e'_u e'_v - g_uv / 2 for u < v."""
        def key(emask, *us):
            return emask, tuple(us.count(w) for w in range(1, 2 * self.n + 1))

        terms = {key((1 << (j - 1)) | (1 << (k - 1))): g for (j, k), g in self.b.items()}
        terms.update({key(1 << (j - 1), u): g for (j, u), g in self.bq.items()})
        terms.update({key(0, u, v): g for (u, v), g in self.bb.items()})
        terms[key(0)] = sum((g * (-0.5 * symplectic_pairing(u, v))
                             for (u, v), g in self.bb.items()), GrassmannNumber.zero(self.order))
        return CliffordElement(self.m, self.n, self.order, cap, terms)

    def _json_tree(self) -> dict:
        """``to_dict``'s tree: the nonzero coefficients of each family by
        ascending key as a list of pairs, cells read straight from the stack."""
        index = _layout(self.m, self.n).index
        b, bq, bb = _json_cells(self.order, self.mat.masks, self._values().T,
                                [len(family) for family in index],
                                [key for family in index for key in family])
        return {"m": self.m, "n": self.n, "N": self.order, "b": b, "bq": bq, "B": bb}

    to_json = _json_text
    to_dict = _to_dict

    @classmethod
    def from_dict(cls, data: Mapping) -> "ExtendedSuperbivector":
        """Inverse of ``to_dict``, read straight into the coefficient cells (a
        repeated key is summed); parity is checked."""
        m, n, order = (json_int(data[key], key) for key in ("m", "n", "N"))
        check_signature(m, n, order)
        layout = _layout(m, n)
        entries, cells = [], []
        for index, name, rule in zip(layout.index, ("b", "bq", "B"), cls._RULES):
            for item in data.get(name, []):
                key = (json_int(item["j"], "j"), json_int(item["k"], "k"))
                if key not in index:
                    raise ShapeMismatchError(rule.format(key))
                entries.append(item["coeff"])
                cells.append(index[key])
        biv = object.__new__(cls)
        biv._fill(m, n, order, *_read_cells(entries, order, cells, len(layout.scale),
                                            "bivector"))
        return biv

    def __repr__(self):
        sizes = {"b": len(self.b), "bq": len(self.bq), "bb": len(self.bb)}
        return (f"ExtendedSuperbivector(m={self.m}, n={self.n}, N={self.order}, "
                f"coeffs={sizes})")


def clifford_exp(x: CliffordElement, max_terms: int = 200) -> CliffordElement:
    """Power-series exponential inside the degree-capped algebra.

    Exact (finite) for nilpotent-coefficient input; absolutely convergent for
    purely bosonic input; for general capped elements the truncated flag of
    the result reports any degree loss.  AlgebraError when max_terms terms
    do not meet the stop test.
    """
    result = CliffordElement.scalar(x.m, x.n, x.order, 1.0, x.cap)
    term = result
    for k in range(1, max_terms + 1):
        term = term.multiply(x) * (1.0 / k)
        if not term.terms:
            break
        result = result + term
        if term.norm() <= 1e-16 * max(1.0, result.norm()):
            break
    else:
        raise AlgebraError(f"exp series did not converge in {max_terms} terms")
    return result


# -- inner product and wedge --------------------------------------------------


@np.errstate(over="ignore", invalid="ignore")
def _inner_stack(x: Supervector, y: Supervector) -> tuple[tuple[int, ...], np.ndarray]:
    """(masks, (k, 1, 1) stack) of <x, y>: one 1 x s by s x 1 blade product.
    An overflow leaves a non-finite coefficient, for the caller to reject,
    without a numpy warning."""
    return _blade_product(np.matmul, x.mat.masks, x.mat.stack.transpose(0, 2, 1),
                          y.mat.masks, _q_gram_body(x.m, x.n) @ y.mat.stack, x.order, (1, 1))


def inner(x: Supervector, y: Supervector) -> GrassmannNumber:
    """Generalized inner product, equal to -{x,y}/2 and to x^T G y with G
    the body Gram matrix."""
    x._require_compatible(y)
    masks, stack = _inner_stack(x, y)
    return GrassmannNumber(x.order, dict(zip(masks, stack[:, 0, 0].tolist())))


def wedge(x: Supervector, y: Supervector) -> ExtendedSuperbivector:
    """Wedge product of supervectors; its symplectic part is nilpotent.

    With P = x y^T, S = P - sigma(P^T), sigma flipping the sign of the D
    block, and the D diagonal doubled: b_jk and bq_ju are entries of
    P - P^T, bb_uv (u <= v) of P + P^T.
    """
    x._require_compatible(y)
    m, size = x.m, x.mat.rows
    masks, outer = _blade_product(np.matmul, x.mat.masks, x.mat.stack, y.mat.masks,
                                  y.mat.stack.transpose(0, 2, 1), x.order, (size, size))
    flipped = outer.transpose(0, 2, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        stack = outer - flipped
        stack[:, m:, m:] = outer[:, m:, m:] + flipped[:, m:, m:]
        stack[:, range(m, size), range(m, size)] *= 2.0
    return ExtendedSuperbivector._adopt(m, x.n, x.order, masks, stack)


# -- the linear action of a superbivector -------------------------------------


def bivector_to_matrix(biv: ExtendedSuperbivector) -> Supermatrix:
    """Supermatrix phi(B) of the commutator action x -> [B, x], in so_0:
    S K with K = ``_reflection_form``, one product with a body matrix.  An
    entry that overflows raises AlgebraError, without a numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        stack = biv.mat.stack @ _reflection_form(biv.m, biv.n)
    return Supermatrix._adopt(biv.m, 2 * biv.n, biv.order, biv.mat.masks, stack)


def matrix_to_bivector(x: Supermatrix, tol: float = DEFAULT_TOL) -> ExtendedSuperbivector:
    """Inverse of ``bivector_to_matrix`` on so_0: S = X K^-1, its lower A, C
    and upper D blocks mirrored into the rest.  X must pass
    ``check_so0_algebra`` (MembershipError) and the parity pattern."""
    from .orthosymplectic import check_so0_algebra

    report = check_so0_algebra(x, tol)
    if not report.ok:
        raise MembershipError(
            f"matrix is not in so_0 (residual {report.residual:.3e})"
        )
    m, n = x.p, x.q // 2
    layout = _layout(m, n)
    product = x.mat.stack @ _reflection_form_inverse(m, n)
    biv = ExtendedSuperbivector._adopt(m, n, x.order, x.mat.masks, _mirrored(
        layout, x.size, product[:, layout.rows, layout.cols]))
    biv._check()
    return biv


def commutator_action(biv: ExtendedSuperbivector, x: Supervector) -> Supervector:
    """[B, x] = phi(B) x: ``apply_matrix`` of ``bivector_to_matrix``, the
    matrix that defines phi.  An entry that overflows raises AlgebraError."""
    biv._require_compatible(x)
    return apply_matrix(bivector_to_matrix(biv), x)


@np.errstate(over="ignore", invalid="ignore")
def apply_matrix(mat: Supermatrix, x: Supervector) -> Supervector:
    """Supermatrix action on a supervector: one product with its column.  An
    entry that overflows raises AlgebraError, without a numpy warning."""
    if mat.p != x.m or mat.q != 2 * x.n or mat.order != x.order:
        raise ShapeMismatchError("matrix and vector shapes differ")
    return x._like(*_blade_product(np.matmul, mat.mat.masks, mat.mat.stack, x.mat.masks,
                                   x.mat.stack, x.order, (x.mat.rows, 1)))


# -- supervector reflections ---------------------------------------------------


@functools.cache
def _reflection_form(m: int, n: int) -> np.ndarray:
    """K = -2 Q = blockdiag(-2 I_m, Omega_{2n}) for Q the Gram body, so that
    <w, x> = -(w^T K x) / 2."""
    form = -2.0 * _q_gram_body(m, n)
    form.flags.writeable = False
    return form


@functools.cache
def _reflection_form_inverse(m: int, n: int) -> np.ndarray:
    """K^-1 = blockdiag(-I_m / 2, Omega_{2n}^T)."""
    form = _reflection_form(m, n).T.copy()
    form[:m, :m] = -0.5 * np.eye(m)
    form.flags.writeable = False
    return form


def reflection_matrix(w: Supervector) -> Supermatrix:
    """Supermatrix of x -> w x w for w on the supersphere; sdet is -1.

    It is I + (w w^T) K: one outer product and one multiply by the body K.
    """
    if not w.on_supersphere():
        raise MembershipError("reflection axis must satisfy w^2 = -1")
    size = w.mat.rows
    masks, outer = _blade_product(np.matmul, w.mat.masks, w.mat.stack, w.mat.masks,
                                  w.mat.stack.transpose(0, 2, 1), w.order, (size, size))
    return Supermatrix._adopt(w.m, 2 * w.n, w.order, *_union_add(
        (0,), np.eye(size, dtype=outer.dtype)[None], masks, outer @ _reflection_form(w.m, w.n)))


@np.errstate(over="ignore", invalid="ignore")
def reflect(w: Supervector, x: Supervector) -> Supervector:
    """The reflection w x w, computed as x - 2<x,w> w.

    {x, w} = -2<x,w> (see ``inner``) gives w x = -2<x,w> - x w, and w^2 = -1
    gives w x w = -2<x,w> w - x w^2 = x - 2<x,w> w; <x,w> is even and
    central, so it commutes past w.  Raises MembershipError unless w is on
    the supersphere (w^2 = -1), the same check as ``reflection_matrix``,
    whose action equals this map.

    On raw stacks: 2<x,w> is checked and held as a GrassmannNumber would be
    (finite, parts below CANON_EPS dropped, even, float64 unless some
    imaginary part is not +0.0), w scaled by it is canonicalised and held
    as a Supervector would be, and x minus that is the one result built.
    An overflow on the way raises AlgebraError, without a numpy warning.
    """
    w._require_compatible(x)
    if not w.on_supersphere():
        raise MembershipError("reflection axis must satisfy w^2 = -1")
    masks, stack = _inner_stack(x, w)
    values = stack[:, 0, 0]
    kept = _kept(values)
    twice = _as_stack(values[kept] * 2.0)
    if not (np.isfinite(values).all() and np.isfinite(twice).all()):
        raise AlgebraError("non-finite coefficient in 2<x, w>")
    masks = np.asarray(masks, dtype=np.int64)[kept]
    if _parity_array(x.order)[masks].any():
        raise ParityError("Supervector scaling factor must be even")
    masks, kick = _blade_product(np.multiply, tuple(masks.tolist()), twice[:, None, None],
                                 w.mat.masks, w.mat.stack, w.order, (w.mat.rows, 1))
    masks, kick = _drop_zero_slices(masks, _as_stack(_drop_tiny(kick)))
    return x._like(*_union_add(x.mat.masks, x.mat.stack, masks, -kick))


def random_supervector(m: int, n: int, order: int, seed: int,
                       scale: float = 0.5) -> Supervector:
    """Seeded random supervector with real coefficients of correct parity:
    ``random_grassmann``'s draws, even then odd coordinates, on one stack."""
    check_signature(m, n, order)
    stack = _random_stack(np.random.default_rng(seed), order,
                          (np.arange(m + 2 * n) >= m)[:, None], scale)
    return Supervector._adopt(m, n, order, range(1 << order), stack)


def random_sphere_vector(m: int, n: int, order: int, seed: int,
                         nilpotent_scale: float = 0.3) -> Supervector:
    """Seeded random supersphere point.

    Draws a unit body in R^m plus nilpotent corrections, then rescales by
    <w,w>^{-1/2}; the correction is exact because the error is nilpotent.
    """
    rng = np.random.default_rng(seed)
    body = rng.normal(size=m)
    body /= np.linalg.norm(body)
    even = [
        GrassmannNumber.scalar(order, body[j])
        + random_grassmann(rng, order, parity="even", scale=nilpotent_scale,
                           grade_min=2)
        for j in range(m)
    ]
    odd = [random_grassmann(rng, order, parity="odd", scale=nilpotent_scale)
           for _ in range(2 * n)]
    w = Supervector(m, n, order, even, odd)
    factor = inner(w, w).fpow(-0.5)
    return w.scale(factor)
