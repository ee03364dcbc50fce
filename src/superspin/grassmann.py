"""Arithmetic in the Grassmann algebra on N anticommuting generators over C.

Elements are stored sparsely as a map from blade bitmasks to complex
coefficients; bit i of a mask selects the generator f_{i+1}.  Every element
splits as body + nilpotent part, which makes exponential, logarithm and
fractional powers finite computations on the nilpotent side.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import Callable, Mapping

from .exceptions import AlgebraError, OrderMismatchError, SingularBodyError

MAX_ORDER = 16

# Absolute threshold below which a stored coefficient is treated as zero.
CANON_EPS = 1e-14

# Default relative tolerance for numeric comparisons throughout the package.
DEFAULT_TOL = 1e-9

_EVEN = "even"
_ODD = "odd"
_MIXED = "mixed"


def reorder_sign(a: int, b: int) -> int:
    """Sign from interleaving blade ``b`` behind blade ``a``.

    Counts pairs (i in a, j in b) with i > j; each such pair is one
    transposition of anticommuting generators.  This is the reference
    definition; the product kernels read the same sign from ``flip_table``.
    """
    a >>= 1
    swaps = 0
    while a:
        swaps += (a & b).bit_count()
        a >>= 1
    return 1 - ((swaps & 1) << 1)


@functools.cache
def flip_table(order: int) -> tuple[int, ...]:
    """Per-order blade sign table, built on first use.

    Bit j of ``flip[a]`` is set when blade ``a`` has an odd number of
    generators above j, so ``reorder_sign(a, b) == -1`` exactly when
    ``(flip[a] & b).bit_count()`` is odd.  Removing the top bit h of ``a``
    toggles the parity of every bit below h, hence
    ``flip[a] = flip[a ^ h] ^ (h - 1)``.
    """
    table = [0] * (1 << order)
    for a in range(1, 1 << order):
        h = 1 << (a.bit_length() - 1)
        table[a] = table[a ^ h] ^ (h - 1)
    return tuple(table)


def mul_terms(ta: Mapping[int, complex], tb: Mapping[int, complex],
              flip: tuple[int, ...]) -> dict[int, complex]:
    """Raw product of two {mask: coefficient} maps, not canonicalised.

    ``flip`` is ``flip_table(order)`` for an order covering every mask.
    """
    out: dict[int, complex] = {}
    get = out.get
    for ma, ca in ta.items():
        fa = flip[ma]
        for mb, cb in tb.items():
            if ma & mb:
                continue  # repeated generator squares to zero
            m = ma | mb
            if (fa & mb).bit_count() & 1:
                out[m] = get(m, 0.0) - ca * cb
            else:
                out[m] = get(m, 0.0) + ca * cb
    return out


def _nilpotent_series(u: "GrassmannNumber",
                      coeff: Callable[[int], complex]) -> "GrassmannNumber":
    """sum_k coeff(k) u^k for a nilpotent u (zero body).

    Every factor of u raises the lowest grade of a power by one, so u^k
    vanishes for some k <= order + 1; the sum stops there and is exact
    beyond rounding.
    """
    flip = flip_table(u.order)
    total: dict[int, complex] = {}
    power: dict[int, complex] = {0: 1.0}
    k = 0
    while power:
        c = coeff(k)
        for mask, value in power.items():
            total[mask] = total.get(mask, 0.0) + c * value
        power = mul_terms(power, u.terms, flip)
        k += 1
    return GrassmannNumber(u.order, total)


class GrassmannNumber:
    """Element of the order-N Grassmann algebra with complex coefficients.

    Instances are immutable; all operations return new numbers in canonical
    form (no stored coefficient with both |re| and |im| below CANON_EPS).
    """

    __slots__ = ("order", "terms")

    def __init__(self, order: int, terms: Mapping[int, complex] | None = None):
        if not 0 <= order <= MAX_ORDER:
            raise OrderMismatchError(f"order must be in [0, {MAX_ORDER}], got {order}")
        canonical: dict[int, complex] = {}
        if terms:
            limit = 1 << order
            for mask, coeff in terms.items():
                if not 0 <= mask < limit:
                    raise OrderMismatchError(f"mask {mask} out of range for order {order}")
                c = complex(coeff)
                if not cmath.isfinite(c):
                    raise AlgebraError(f"non-finite coefficient {c!r}")
                if abs(c.real) < CANON_EPS and abs(c.imag) < CANON_EPS:
                    continue
                canonical[mask] = c
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "terms", canonical)

    def __setattr__(self, name, value):
        raise AttributeError("GrassmannNumber is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "GrassmannNumber":
        return cls(order)

    @classmethod
    def scalar(cls, order: int, value: complex) -> "GrassmannNumber":
        return cls(order, {0: value})

    @classmethod
    def one(cls, order: int) -> "GrassmannNumber":
        return cls(order, {0: 1.0})

    @classmethod
    def generator(cls, order: int, j: int) -> "GrassmannNumber":
        """The generator f_j, 1-based."""
        if not 1 <= j <= order:
            raise OrderMismatchError(f"generator index {j} out of range 1..{order}")
        return cls(order, {1 << (j - 1): 1.0})

    @classmethod
    def blade(cls, order: int, mask: int, coeff: complex = 1.0) -> "GrassmannNumber":
        return cls(order, {mask: coeff})

    # -- ring operations ---------------------------------------------------

    def _require_same_order(self, other: "GrassmannNumber") -> None:
        if self.order != other.order:
            raise OrderMismatchError(
                f"order mismatch: {self.order} vs {other.order}"
            )

    def __add__(self, other):
        if isinstance(other, GrassmannNumber):
            self._require_same_order(other)
            out = dict(self.terms)
            for mask, c in other.terms.items():
                out[mask] = out.get(mask, 0.0) + c
            return GrassmannNumber(self.order, out)
        if isinstance(other, (int, float, complex)):
            out = dict(self.terms)
            out[0] = out.get(0, 0.0) + other
            return GrassmannNumber(self.order, out)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (GrassmannNumber, int, float, complex)):
            return self + (-other if isinstance(other, GrassmannNumber) else -other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return GrassmannNumber(self.order, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, GrassmannNumber):
            self._require_same_order(other)
            return GrassmannNumber(
                self.order, mul_terms(self.terms, other.terms, flip_table(self.order))
            )
        if isinstance(other, (int, float, complex)):
            return GrassmannNumber(
                self.order, {m: c * other for m, c in self.terms.items()}
            )
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self * other
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, GrassmannNumber):
            return self * other.inv()
        if isinstance(other, (int, float, complex)):
            return self * (1.0 / other)
        return NotImplemented

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        result = GrassmannNumber.one(self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- grading -----------------------------------------------------------

    def grade(self, k: int) -> "GrassmannNumber":
        """Projection onto the degree-k homogeneous part (zero for k > N)."""
        return GrassmannNumber(
            self.order, {m: c for m, c in self.terms.items() if m.bit_count() == k}
        )

    @property
    def body(self) -> complex:
        return self.terms.get(0, 0.0 + 0.0j)

    def nilpotent(self) -> "GrassmannNumber":
        return GrassmannNumber(
            self.order, {m: c for m, c in self.terms.items() if m != 0}
        )

    def parity(self) -> str:
        """'even', 'odd' or 'mixed'; the zero element counts as even."""
        has_even = any(m.bit_count() % 2 == 0 for m in self.terms)
        has_odd = any(m.bit_count() % 2 == 1 for m in self.terms)
        if has_even and has_odd:
            return _MIXED
        if has_odd:
            return _ODD
        return _EVEN

    def is_even(self) -> bool:
        return self.parity() == _EVEN

    def is_odd(self) -> bool:
        return not self.terms or self.parity() == _ODD

    # -- metrics -----------------------------------------------------------

    def norm(self) -> float:
        """Sum of coefficient moduli; submultiplicative."""
        return sum(abs(c) for c in self.terms.values())

    def is_zero(self, tol: float = 0.0) -> bool:
        return self.norm() <= tol

    def is_real(self, tol: float = DEFAULT_TOL) -> bool:
        return all(abs(c.imag) <= tol for c in self.terms.values())

    def isclose(self, other: "GrassmannNumber", tol: float = DEFAULT_TOL) -> bool:
        self._require_same_order(other)
        scale = max(1.0, self.norm(), other.norm())
        return (self - other).norm() <= tol * scale

    # -- transcendental maps -------------------------------------------------

    def exp(self) -> "GrassmannNumber":
        """exp(body) times the finite nilpotent series (exact beyond rounding)."""
        series = _nilpotent_series(self.nilpotent(), lambda k: 1.0 / math.factorial(k))
        return series * cmath.exp(self.body)

    def log(self) -> "GrassmannNumber":
        """Principal logarithm; requires a nonzero body."""
        b = self.body
        if b == 0:
            raise SingularBodyError("log of a Grassmann number with zero body")
        u = self.nilpotent() * (1.0 / b)
        return _nilpotent_series(
            u, lambda k: (-1.0) ** (k + 1) / k if k else cmath.log(b)
        )

    def inv(self) -> "GrassmannNumber":
        """Multiplicative inverse; requires a nonzero body."""
        b = self.body
        if b == 0:
            raise SingularBodyError("inverse of a Grassmann number with zero body")
        u = self.nilpotent() * (-1.0 / b)
        return _nilpotent_series(u, lambda k: 1.0) * (1.0 / b)

    def fpow(self, alpha: float) -> "GrassmannNumber":
        """Principal fractional power body**alpha * (1 + nil/body)**alpha."""
        b = self.body
        if b == 0:
            raise SingularBodyError("fractional power of a zero-body element")
        u = self.nilpotent() * (1.0 / b)
        series = _nilpotent_series(
            u, lambda k: math.prod((alpha - j) / (j + 1) for j in range(k))
        )
        return series * (b ** alpha)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "N": self.order,
            "terms": [
                {"mask": m, "re": self.terms[m].real, "im": self.terms[m].imag}
                for m in sorted(self.terms)
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "GrassmannNumber":
        order = int(data["N"])
        terms: dict[int, complex] = {}
        for item in data.get("terms", []):
            mask = int(item["mask"])
            value = complex(float(item["re"]), float(item.get("im", 0.0)))
            # a repeat adds to the first term, not to 0.0: -0.0 keeps its sign
            terms[mask] = terms[mask] + value if mask in terms else value
        return cls(order, terms)

    # -- misc ----------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, GrassmannNumber):
            return self.order == other.order and self.terms == other.terms
        if isinstance(other, (int, float, complex)):
            return self == GrassmannNumber.scalar(self.order, other)
        return NotImplemented

    __hash__ = None

    def _format_blade(self, mask: int) -> str:
        if mask == 0:
            return "1"
        return "f" + "".join(str(i + 1) for i in range(self.order) if mask >> i & 1)

    def __repr__(self):
        if not self.terms:
            return f"GrassmannNumber({self.order}, 0)"
        parts = [
            f"({self.terms[m]:.6g})*{self._format_blade(m)}" for m in sorted(self.terms)
        ]
        return f"GrassmannNumber({self.order}, {' + '.join(parts)})"


def random_grassmann(
    rng,
    order: int,
    parity: str | None = None,
    scale: float = 1.0,
    grade_min: int = 0,
    real: bool = True,
) -> GrassmannNumber:
    """Seeded random element with optional parity/grade restriction.

    Coefficients are N(0, scale^2) per admissible blade; `grade_min` > 0
    produces nilpotent draws.
    """
    terms: dict[int, complex] = {}
    for mask in range(1 << order):
        k = mask.bit_count()
        if k < grade_min:
            continue
        if parity == _EVEN and k % 2 == 1:
            continue
        if parity == _ODD and k % 2 == 0:
            continue
        c = rng.normal(0.0, scale)
        if not real:
            c = complex(c, rng.normal(0.0, scale))
        terms[mask] = complex(c)
    return GrassmannNumber(order, terms)
