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
whole-stack, and the commutator action has a table of its own over S.
"""

from __future__ import annotations

import functools
import itertools
import json
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
    _blade_product,
    _json_cells,
    _json_text,
    _parity_array,
    _read_cells,
    json_int,
    random_grassmann,
    reorder_sign,
)
from .supermatrix import GrassmannMatrix, Supermatrix, _q_gram_body

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
    """``values`` with the entries whose |re| and |im| are both below
    ``eps`` set to zero, as GrassmannNumber canonicalises."""
    return np.where((np.abs(values.real) < eps) & (np.abs(values.imag) < eps), 0.0, values)


class CliffordElement:
    """Degree-capped normal-ordered element of Lambda_N (x) C_{m,2n}."""

    __slots__ = ("m", "n", "order", "cap", "terms", "truncated")

    def __init__(self, m: int, n: int, order: int, cap: int = DEFAULT_CAP,
                 terms: Mapping[tuple[int, tuple[int, ...]], GrassmannNumber] | None = None,
                 truncated: bool = False):
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

    def isclose(self, other: "CliffordElement", tol: float = DEFAULT_TOL) -> bool:
        self._require_compatible(other)
        scale = max(1.0, self.norm(), other.norm())
        return (self - other).norm() <= tol * scale

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

    def to_json(self, newline: str = "\n") -> str:
        """``to_dict``'s JSON text (``newline`` as in ``_json_text``), the
        terms by ascending key."""
        return _json_text({
            "m": self.m,
            "n": self.n,
            "N": self.order,
            "cap": self.cap,
            "truncated": self.truncated,
            "terms": [
                {"emask": emask, "alpha": list(alpha), "coeff": coeff}
                for (emask, alpha), coeff in sorted(self.terms.items())
            ],
        }, newline)

    def to_dict(self) -> dict:
        return json.loads(self.to_json())

    @classmethod
    def from_dict(cls, data: Mapping) -> "CliffordElement":
        terms = {
            (json_int(t["emask"], "emask"), tuple(json_int(a, "alpha") for a in t["alpha"])):
                GrassmannNumber.from_dict(t["coeff"])
            for t in data.get("terms", [])
        }
        truncated = data.get("truncated", False)
        if type(truncated) is not bool:
            raise TypeError(f"truncated must be a boolean, got {truncated!r}")
        return cls(*(json_int(data[key], key) for key in ("m", "n", "N")),
                   json_int(data.get("cap", DEFAULT_CAP), "cap"), terms, truncated=truncated)

    def __repr__(self):
        return (f"CliffordElement(m={self.m}, n={self.n}, N={self.order}, "
                f"terms={len(self.terms)}, cap={self.cap})")


class Supervector:
    """Element of R^{m,2n}(Lambda_N): m even and 2n odd Grassmann coordinates,
    stored as one packed (m + 2n) x 1 column ``col``, canonical as
    GrassmannNumber is.  Results built from checked columns skip the shape,
    order and parity checks (``_adopt``): the blade product fixes parity."""

    __slots__ = ("m", "n", "order", "col")

    def __init__(self, m: int, n: int, order: int,
                 even: Sequence[GrassmannNumber], odd: Sequence[GrassmannNumber]):
        if len(even) != m or len(odd) != 2 * n:
            raise ShapeMismatchError("coordinate counts must be m and 2n")
        entries = [[g] for g in (*even, *odd)]
        self.m, self.n, self.order = m, n, order
        self.col = (GrassmannMatrix.from_entries(entries, order) if entries
                    else GrassmannMatrix.zeros(0, 1, order))
        self._check()

    @classmethod
    def _adopt(cls, m: int, n: int, col: GrassmannMatrix) -> "Supervector":
        clean = _drop_tiny(col.stack)
        vec = object.__new__(cls)
        vec.m, vec.n, vec.order = m, n, col.order
        vec.col = col if (clean == col.stack).all() else col.with_stack(col.masks, clean)
        return vec

    def _check(self) -> None:
        """Order in range; no odd mask in an even row, no even mask in an odd row."""
        check_signature(self.m, self.n, self.order)
        odd = _parity_array(self.order)[list(self.col.masks)] == 1
        entries = self.col.stack[:, :, 0]
        if entries[odd, :self.m].any():
            raise ParityError("bosonic coordinates must be even")
        if entries[~odd, self.m:].any():
            raise ParityError("fermionic coordinates must be odd")

    @property
    def even(self) -> tuple[GrassmannNumber, ...]:
        return tuple(self.col.entry(i, 0) for i in range(self.m))

    @property
    def odd(self) -> tuple[GrassmannNumber, ...]:
        return tuple(self.col.entry(i, 0) for i in range(self.m, self.col.rows))

    @classmethod
    def zero(cls, m, n, order):
        return cls.from_column(m, n, GrassmannMatrix.zeros(max(m + 2 * n, 0), 1, order))

    @classmethod
    def unit(cls, m, n, order, index: int, fermionic: bool = False):
        """Unit vector along e_index or e'_index (1-based)."""
        even = [GrassmannNumber.zero(order)] * m
        odd = [GrassmannNumber.zero(order)] * (2 * n)
        (odd if fermionic else even)[index - 1] = GrassmannNumber.one(order)
        return cls(m, n, order, even, odd)

    @classmethod
    def from_coefficients(cls, m, n, order, even, odd):
        def conv(g):
            return g if isinstance(g, GrassmannNumber) else GrassmannNumber.scalar(order, g)
        return cls(m, n, order, [conv(g) for g in even], [conv(g) for g in odd])

    def _require_compatible(self, other: "Supervector") -> None:
        if (self.m, self.n, self.order) != (other.m, other.n, other.order):
            raise ShapeMismatchError("incompatible supervector shapes")

    def __add__(self, other: "Supervector") -> "Supervector":
        self._require_compatible(other)
        return Supervector._adopt(self.m, self.n, self.col + other.col)

    def __sub__(self, other: "Supervector") -> "Supervector":
        self._require_compatible(other)
        return Supervector._adopt(self.m, self.n, self.col - other.col)

    def __neg__(self):
        return self.scale(-1.0)

    def scale(self, factor) -> "Supervector":
        """Scale by a complex number or an even Grassmann number."""
        if isinstance(factor, GrassmannNumber) and not factor.is_even():
            raise ParityError("supervector scaling factor must be even")
        return Supervector._adopt(self.m, self.n, self.col.scale(factor))

    def norm(self) -> float:
        return self.col.norm()

    def isclose(self, other: "Supervector", tol: float = DEFAULT_TOL) -> bool:
        self._require_compatible(other)
        scale = max(1.0, self.norm(), other.norm())
        return (self - other).norm() <= tol * scale

    def to_clifford(self, cap: int = DEFAULT_CAP) -> CliffordElement:
        zeros = (0,) * (2 * self.n)
        terms = {(1 << j, zeros): g for j, g in enumerate(self.even)}
        terms.update({(0, zeros[:u] + (1,) + zeros[u + 1:]): g
                      for u, g in enumerate(self.odd)})
        return CliffordElement(self.m, self.n, self.order, cap, terms)

    def to_column(self) -> GrassmannMatrix:
        return self.col

    @classmethod
    def from_column(cls, m: int, n: int, col: GrassmannMatrix) -> "Supervector":
        if min(m, n) < 0 or col.cols != 1 or col.rows != m + 2 * n:
            raise ShapeMismatchError("column shape does not match (m, n)")
        vec = cls._adopt(m, n, col)
        vec._check()
        return vec

    def square(self) -> GrassmannNumber:
        """w^2 = -<w, w> as a central even Grassmann number."""
        return -inner(self, self)

    def body_vector(self) -> np.ndarray:
        return self.col.body()[:self.m, 0]

    def on_supersphere(self, tol: float = DEFAULT_TOL, nil_tol: float = 1e-12) -> bool:
        """w^2 = -1: exact nilpotent cancellation plus a unit-sphere body."""
        dev = self.square() + 1.0
        return dev.nilpotent().norm() <= nil_tol and abs(dev.body) <= tol

    def to_json(self, newline: str = "\n") -> str:
        """``to_dict``'s JSON text (``newline`` as in ``_json_text``), every
        coordinate rendered straight from the column."""
        cells, _ = _json_cells(self.order, self.col.masks, self.col.stack[:, :, 0].T)
        return _json_text({"m": self.m, "n": self.n, "N": self.order,
                           "even": cells[:self.m], "odd": cells[self.m:]}, newline)

    def to_dict(self) -> dict:
        return json.loads(self.to_json())

    @classmethod
    def from_dict(cls, data: Mapping) -> "Supervector":
        """Inverse of ``to_dict``, read straight into the column; parity is checked."""
        m, n, order = (json_int(data[key], key) for key in ("m", "n", "N"))
        even, odd = data.get("even", []), data.get("odd", [])
        if len(even) != m or len(odd) != 2 * n:
            raise ShapeMismatchError("coordinate counts must be m and 2n")
        size = m + 2 * n
        masks, values = _read_cells([*even, *odd], order, range(size), size)
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
    """values * weights for real weights, the real and imaginary parts
    scaled apart, so a signed zero part stays as GrassmannNumber keeps it."""
    out = np.empty(np.broadcast_shapes(values.shape, weights.shape), dtype=complex)
    out.real = values.real * weights
    out.imag = values.imag * weights
    return out


def _mirrored(layout: _Layout, size: int, cells: np.ndarray) -> np.ndarray:
    """The stack of S whose coefficient cells hold ``cells`` (one row per
    blade), mirrored into the graded-antisymmetric rest of S."""
    stack = np.zeros((len(cells), size, size), dtype=complex)
    stack[:, layout.rows, layout.cols] = cells
    stack[:, layout.cols, layout.rows] = np.where(layout.scale < 0, -cells, cells)
    return stack


class ExtendedSuperbivector:
    """Degree-2 element: orthogonal (b, even), mixed (bq, odd) and symplectic
    (bb, even, the body allowed) coefficient families.

    Stored as one packed (m + 2n) x (m + 2n) graded-antisymmetric matrix
    ``mat`` = S with the (m|2n) parity pattern: S_A antisymmetric with b_jk
    at (j, k), bq_ju at (j, m + u) with S_C = -S_B^T, and S_D symmetric with
    bb_uv at (u, v) and 2 bb_uu on the diagonal, so that phi(B) = S K (see
    ``bivector_to_matrix``).  S is canonical as GrassmannNumber is; ``b``,
    ``bq`` and ``bb`` list the nonzero coefficients.  Results built from
    checked matrices skip the parity check (``_adopt``).
    """

    __slots__ = ("m", "n", "order", "mat")

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
        self._fill(m, n, order, keys.tolist(), coeffs)

    def _fill(self, m: int, n: int, order: int, masks: list[int], coeffs: np.ndarray) -> None:
        """Hold the canonical coefficients ``coeffs`` (one row per blade of
        ``masks``, one column per coefficient number) as S; check parity."""
        # S is canonical: its entries are canonical coefficients, negated or doubled
        layout, size = _layout(m, n), m + 2 * n
        self.m, self.n, self.order = m, n, order
        self.mat = GrassmannMatrix(size, size, order, masks=masks, stack=_mirrored(
            layout, size, _times(coeffs, 1.0 / layout.scale)))
        self._check()

    @classmethod
    def _adopt(cls, m: int, n: int, mat: GrassmannMatrix) -> "ExtendedSuperbivector":
        clean = _drop_tiny(mat.stack, _layout(m, n).canon)
        biv = object.__new__(cls)
        biv.m, biv.n, biv.order = m, n, mat.order
        biv.mat = mat if (clean == mat.stack).all() else mat.with_stack(mat.masks, clean)
        return biv

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

    def _require_compatible(self, other: "ExtendedSuperbivector") -> None:
        if (self.m, self.n, self.order) != (other.m, other.n, other.order):
            raise ShapeMismatchError("incompatible superbivector shapes")

    def __add__(self, other: "ExtendedSuperbivector") -> "ExtendedSuperbivector":
        self._require_compatible(other)
        return ExtendedSuperbivector._adopt(self.m, self.n, self.mat + other.mat)

    def __sub__(self, other: "ExtendedSuperbivector") -> "ExtendedSuperbivector":
        self._require_compatible(other)
        return ExtendedSuperbivector._adopt(self.m, self.n, self.mat - other.mat)

    def __neg__(self):
        return self.scale(-1.0)

    def scale(self, factor) -> "ExtendedSuperbivector":
        """Scale by a complex number or an even Grassmann number."""
        if isinstance(factor, GrassmannNumber) and not factor.is_even():
            raise ParityError("superbivector scaling factor must be even")
        return ExtendedSuperbivector._adopt(self.m, self.n, self.mat.scale(factor))

    def norm(self) -> float:
        """Sum of the coefficients' norms."""
        return float(np.abs(self._values()).sum())

    def isclose(self, other: "ExtendedSuperbivector", tol: float = DEFAULT_TOL) -> bool:
        self._require_compatible(other)
        scale = max(1.0, self.norm(), other.norm())
        return (self - other).norm() <= tol * scale

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

    def to_json(self, newline: str = "\n") -> str:
        """``to_dict``'s JSON text (``newline`` as in ``_json_text``): the
        nonzero coefficients of each family by ascending key, rendered
        straight from the stack."""
        cells, sizes = _json_cells(self.order, self.mat.masks, self._values().T)
        b, bq, bb = ([{"j": j, "k": k, "coeff": cells[i]}
                      for (j, k), i in index.items() if sizes[i]]
                     for index in _layout(self.m, self.n).index)
        return _json_text(
            {"m": self.m, "n": self.n, "N": self.order, "b": b, "bq": bq, "B": bb}, newline)

    def to_dict(self) -> dict:
        return json.loads(self.to_json())

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
        biv._fill(m, n, order, *_read_cells(entries, order, cells, len(layout.scale)))
        return biv

    def __repr__(self):
        sizes = {"b": len(self.b), "bq": len(self.bq), "bb": len(self.bb)}
        return (f"ExtendedSuperbivector(m={self.m}, n={self.n}, N={self.order}, "
                f"coeffs={sizes})")


def clifford_exp(x: CliffordElement, max_terms: int = 200) -> CliffordElement:
    """Power-series exponential inside the degree-capped algebra.

    Exact (finite) for nilpotent-coefficient input; absolutely convergent for
    purely bosonic input; for general capped elements the truncated flag of
    the result reports any degree loss.
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
    return result


# -- inner product and wedge --------------------------------------------------


def inner(x: Supervector, y: Supervector) -> GrassmannNumber:
    """Generalized inner product, equal to -{x,y}/2 and to x^T G y with G
    the body Gram matrix: one 1 x s by s x 1 blade product."""
    x._require_compatible(y)
    masks, stack = _blade_product(
        np.matmul, x.col.masks, x.col.stack.transpose(0, 2, 1), y.col.masks,
        _q_gram_body(x.m, x.n) @ y.col.stack, x.order, (1, 1))
    return GrassmannNumber(x.order, dict(zip(masks, stack[:, 0, 0].tolist())))


def wedge(x: Supervector, y: Supervector) -> ExtendedSuperbivector:
    """Wedge product of supervectors; its symplectic part is nilpotent.

    With P = x y^T, S = P - sigma(P^T), sigma flipping the sign of the D
    block, and the D diagonal doubled: b_jk and bq_ju are entries of
    P - P^T, bb_uv (u <= v) of P + P^T.
    """
    x._require_compatible(y)
    m, size = x.m, x.col.rows
    outer = x.col @ y.col.transpose()
    flipped = outer.stack.transpose(0, 2, 1)
    stack = outer.stack - flipped
    stack[:, m:, m:] = outer.stack[:, m:, m:] + flipped[:, m:, m:]
    stack[:, range(m, size), range(m, size)] *= 2.0
    return ExtendedSuperbivector._adopt(m, x.n, outer.with_stack(outer.masks, stack))


# -- the linear action of a superbivector -------------------------------------


def bivector_to_matrix(biv: ExtendedSuperbivector) -> Supermatrix:
    """Supermatrix phi(B) of the commutator action x -> [B, x], in so_0:
    S K with K = ``_reflection_form``, one product with a body matrix."""
    mat = biv.mat
    return Supermatrix(biv.m, 2 * biv.n, mat.with_stack(
        mat.masks, mat.stack @ _reflection_form(biv.m, biv.n)), validate=False)


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
    biv = ExtendedSuperbivector._adopt(m, n, x.mat.with_stack(
        x.mat.masks, _mirrored(layout, x.size, product[:, layout.rows, layout.cols])))
    biv._check()
    return biv


@functools.cache
def _action_table(m: int, n: int) -> tuple[np.ndarray, ...]:
    """The terms of [B, x] as index arrays over S: term t adds
    factor[t] * S[row[t], col[t]] * x[source[t]] to coordinate target[t].

    From the commutators: b_jk sends x_j to 2 b_jk x_j in k and x_k to
    -2 b_jk x_k in j; bq_ju sends x_j to 2 bq_ju x_j in u and the partner w
    of u to +-bq_ju x'_w in j (+ for odd u); bb_uv sends the partner of u
    into v and that of v into u (S holds 2 bb_uu on the diagonal).
    """
    def partner(u: int) -> tuple[float, int]:
        # e'_u pairs with +x'_{u+1} for odd u, -x'_{u-1} for even u (1-based)
        return (1.0, m + u + 1) if u % 2 == 0 else (-1.0, m + u - 1)

    terms = []
    for j in range(m):
        for k in range(j + 1, m):
            terms += [(j, k, 2.0, j, k), (j, k, -2.0, k, j)]
        for u in range(2 * n):
            terms += [(j, m + u, 2.0, j, m + u), (j, m + u, *partner(u), j)]
    for u in range(2 * n):
        for v in range(u, 2 * n):
            half = 0.5 if u == v else 1.0
            (su, pu), (sv, pv) = partner(u), partner(v)
            terms += [(m + u, m + v, half * su, pu, m + v),
                      (m + u, m + v, half * sv, pv, m + u)]
    table = tuple(np.array(column) for column in zip(*terms)) if terms else (
        np.zeros(0, dtype=np.int64),) * 5
    for array in table:
        array.flags.writeable = False
    return table


def commutator_action(biv: ExtendedSuperbivector, x: Supervector) -> Supervector:
    """[B, x] from its own table of terms over S (``_action_table``);
    agrees with the matrix action.

    One elementwise blade product of the scaled entries of S with the
    gathered coordinates, summed into place by one ``np.add.at``.
    """
    if (biv.m, biv.n, biv.order) != (x.m, x.n, x.order):
        raise ShapeMismatchError("bivector and supervector shapes differ")
    rows, cols, factors, sources, targets = _action_table(x.m, x.n)
    masks, products = _blade_product(
        np.multiply, biv.mat.masks, (biv.mat.stack[:, rows, cols] * factors)[:, None, :],
        x.col.masks, x.col.stack[:, sources, 0][:, None, :], x.order, (1, len(rows)))
    out = np.zeros((len(masks), x.col.rows), dtype=complex)
    np.add.at(out, (slice(None), targets), products[:, 0, :])
    return Supervector._adopt(x.m, x.n, x.col.with_stack(masks, out[:, :, None]))


def apply_matrix(mat: Supermatrix, x: Supervector) -> Supervector:
    """Supermatrix action on a supervector: one product with its column."""
    if mat.p != x.m or mat.q != 2 * x.n or mat.order != x.order:
        raise ShapeMismatchError("matrix and vector shapes differ")
    return Supervector._adopt(x.m, x.n, mat.mat @ x.col)


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
    outer = w.col @ w.col.transpose()
    kick = outer.with_stack(outer.masks, outer.stack @ _reflection_form(w.m, w.n))
    return Supermatrix(w.m, 2 * w.n, GrassmannMatrix.eye(w.col.rows, w.order) + kick,
                       validate=False)


def reflect(w: Supervector, x: Supervector) -> Supervector:
    """The reflection w x w, computed as x - 2<x,w> w.

    {x, w} = -2<x,w> (see ``inner``) gives w x = -2<x,w> - x w, and w^2 = -1
    gives w x w = -2<x,w> w - x w^2 = x - 2<x,w> w; <x,w> is even and
    central, so it commutes past w.  Raises MembershipError unless w is on
    the supersphere (w^2 = -1), the same check as ``reflection_matrix``,
    whose action equals this map.
    """
    w._require_compatible(x)
    if not w.on_supersphere():
        raise MembershipError("reflection axis must satisfy w^2 = -1")
    return x - w.scale(inner(x, w) * 2.0)


def random_supervector(m: int, n: int, order: int, seed: int,
                       scale: float = 0.5) -> Supervector:
    """Seeded random supervector with real coefficients of correct parity."""
    rng = np.random.default_rng(seed)
    even = [random_grassmann(rng, order, parity="even", scale=scale)
            for _ in range(m)]
    odd = [random_grassmann(rng, order, parity="odd", scale=scale)
           for _ in range(2 * n)]
    return Supervector(m, n, order, even, odd)


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
