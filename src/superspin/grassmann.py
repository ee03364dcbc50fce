"""Arithmetic in the Grassmann algebra on N anticommuting generators over C.

Elements are stored sparsely as a map from blade bitmasks to complex
coefficients; bit i of a mask selects the generator f_{i+1}.  Every element
splits as body + nilpotent part, which makes exponential, logarithm and
fractional powers finite computations on the nilpotent side.

The package's one product kernel lives here too.  It works on blade stacks
(ascending masks and one complex array of a slice per mask): ``_blade_product``
multiplies numbers (as (k, 1, 1) stacks), matrices, supervectors, bivectors
and Clifford coefficients, and ``_nilpotent_matrix_series`` sums every finite
nilpotent series, of numbers and of matrices alike.  The package's JSON
codec lives here as well: ``_json_cells`` renders Grassmann cells as text straight from a
blade stack, ``_json_text`` is the one writer (``json.dumps(indent=2)``
byte for byte), and ``_read_cells`` reads cells back into a stack.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

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
    definition, used by ``clifford._blade_mul`` and the test oracles; the
    product kernel reads the same sign from ``flip_table``.
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
    ``flip[a] = flip[a ^ h] ^ (h - 1)``.  ``_build_plan`` reads it as an
    array to sign every blade pair of a product.
    """
    table = [0] * (1 << order)
    for a in range(1, 1 << order):
        h = 1 << (a.bit_length() - 1)
        table[a] = table[a ^ h] ^ (h - 1)
    return tuple(table)


def json_int(value, name: str) -> int:
    """``value`` if it is a JSON integer (an int, not a bool), else
    TypeError: the decoders read every integer field through it, so a float
    or a string is refused, never truncated or parsed."""
    if type(value) is int:
        return value
    raise TypeError(f"{name} must be an integer, got {value!r}")


def json_float(value, name: str) -> float:
    """``value`` as a float if it is a JSON number (an int or a float, not
    a bool), else TypeError: a string, null or a list is refused, never
    parsed.  An int too large for a float raises OverflowError."""
    if type(value) in (int, float):
        return float(value)
    raise TypeError(f"{name} must be a number, got {value!r}")


# -- JSON text -----------------------------------------------------------------


class JSONText(str):
    """Finished JSON text, written at indent 0.  ``_json_text`` inlines it
    at any depth by indenting its lines, which is safe because JSON text
    holds no raw newline inside a string literal."""

    __slots__ = ()


_encode_str = json.encoder.encode_basestring_ascii


def _float_text(value: float) -> str:
    if math.isfinite(value):
        return float.__repr__(value)
    raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")


def _scalar_text(value) -> str | None:
    """``json``'s text for a str, None, bool, int or float (subclasses
    included, in the order ``json`` tests them); None for anything else."""
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    return None


def _key_text(key) -> str:
    """A dict key as ``json`` writes it: non-str keys become strings."""
    if isinstance(key, str):
        return _encode_str(key)
    text = _scalar_text(key)
    if text is None:
        raise TypeError(f"keys must be str, int, float, bool or None, "
                        f"not {key.__class__.__name__}")
    return f'"{text}"'


def _json_text(value, newline: str = "\n") -> str:
    """``json.dumps(value, indent=2, allow_nan=False)``, byte for byte, where
    a ``JSONText`` fragment stands for the value it encodes and an object
    with a ``to_json`` method (the package's payload classes) for its
    ``to_dict`` form, written by ``to_json(newline)``.

    ``newline`` is the line break plus the indent of ``value``'s own line.
    Exact types are tried first, with finite floats inlined in dicts (the
    coefficient fields); subclasses fall back to ``isinstance`` in the
    order ``json`` uses.  Non-finite floats raise ValueError and anything
    else ``json`` cannot write raises TypeError, as in ``json``.
    """
    kind = type(value)
    if kind is float:
        return _float_text(value)
    if kind is int:
        return int.__repr__(value)
    if kind is str:
        return _encode_str(value)
    if kind is JSONText:
        return value.replace("\n", newline)
    if kind is dict or isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        items = [
            (_encode_str(k) if type(k) is str else _key_text(k)) + ": "
            + (float.__repr__(v) if type(v) is float and v - v == 0.0
               else _json_text(v, inner))
            for k, v in value.items()
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if kind is list or isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        items = [_json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    text = _scalar_text(value)
    if text is not None:
        return text
    to_json = getattr(kind, "to_json", None)
    if to_json is None:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    return to_json(value, newline)


# One Grassmann number, as GrassmannNumber.to_json writes it at indent 0.
_TERM = '{\n      "mask": %d,\n      "re": %r,\n      "im": %r\n    }'
_CELL = '{\n  "N": %d,\n  "terms": [\n    %s\n  ]\n}'
_EMPTY_CELL = '{\n  "N": %d,\n  "terms": []\n}'


def _json_cells(order: int, masks: Sequence[int],
                values: np.ndarray) -> tuple[list[JSONText], list[int]]:
    """``GrassmannNumber.to_json`` of each row of ``values`` (cells x blades,
    the blades being ``masks``), rendered straight from the array, and each
    cell's number of terms: one canonical CANON_EPS filter over all
    coefficients, one template per term, floats through ``tolist`` so they
    keep their repr.  A kept non-finite coefficient raises ValueError, as
    ``json`` does."""
    re, im = values.real, values.imag
    kept = (np.abs(re) >= CANON_EPS) | (np.abs(im) >= CANON_EPS)
    ii, kk = np.nonzero(kept)
    if not np.isfinite(values[ii, kk]).all():
        raise ValueError("Out of range float values are not JSON compliant")
    terms = [_TERM % term for term in zip(
        np.asarray(masks, dtype=np.int64)[kk].tolist(), re[ii, kk].tolist(),
        im[ii, kk].tolist())]
    sizes = kept.sum(axis=1).tolist()
    ends = np.cumsum(sizes, dtype=np.int64).tolist()
    return [_cell(order, terms[start:end]) for start, end in zip([0] + ends, ends)], sizes


def _cell(order: int, terms: list[str]) -> JSONText:
    """One number's text from its rendered terms."""
    return JSONText(_CELL % (order, ",\n    ".join(terms)) if terms else _EMPTY_CELL % order)


def _read_cells(entries: Sequence[Mapping], order: int, cells: Sequence[int],
                count: int) -> tuple[list[int], np.ndarray]:
    """(masks, values) of JSON Grassmann numbers read as ``from_dict`` reads
    one: ascending masks, one row each, and ``count`` columns, entry e adding
    into column ``cells[e]``.  Sums
    (a repeated mask or column) start from -0.0, so a -0.0 part keeps its
    sign; one that overflows raises AlgebraError, not a warning.  Parts
    below CANON_EPS in both re and im become 0.0."""
    if not 0 <= order <= MAX_ORDER:
        raise OrderMismatchError(f"order must be in [0, {MAX_ORDER}], got {order}")
    limit = 1 << order
    masks, where, re, im = [], [], [], []
    for cell, entry in zip(cells, entries):
        if json_int(entry["N"], "N") != order:
            raise OrderMismatchError("entry order differs from matrix order")
        for item in entry.get("terms", []):
            mask = json_int(item["mask"], "mask")
            if not 0 <= mask < limit:
                raise OrderMismatchError(f"mask {mask} out of range for order {order}")
            masks.append(mask)
            where.append(cell)
            # JSON numbers only; a float skips the call
            real, imag = item["re"], item.get("im", 0.0)
            re.append(real if type(real) is float else json_float(real, "re"))
            im.append(imag if type(imag) is float else json_float(imag, "im"))
    keys, slot = np.unique(np.asarray(masks, dtype=np.int64), return_inverse=True)
    values = np.empty(len(masks), dtype=complex)
    values.real, values.imag = re, im
    stack = np.full((len(keys), count), complex(-0.0, -0.0))
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.at(stack, (slot, np.asarray(where, dtype=np.int64)), values)
    if not np.isfinite(stack).all():
        raise AlgebraError("non-finite entry in blade slice")
    stack[(np.abs(stack.real) < CANON_EPS) & (np.abs(stack.imag) < CANON_EPS)] = 0.0
    return keys.tolist(), stack


# -- the product kernel --------------------------------------------------------


# Bound, in array elements, on each intermediate of one product tile: the
# candidate pair grid and the gathered and combined slices.  Larger products
# are cut into tiles, so memory stays bounded up to MAX_ORDER.
_TILE_ELEMENTS = 1 << 20

# Pair plans with at most _CACHED_PAIRS candidate pairs (every pair of a
# dense order-5 product) are memoised, at most _PLAN_CACHE of them; a full
# cache holds about 5 MiB.  Number, matrix and series products share the
# cache (a body-only operand needs no plan): over three passes, benchmark
# clifford-reflect reuses 2 distinct plans and cli-mixed 6 to 7 (seeds 1, 7,
# 301, 4242), each hit above 98%.  Larger plans are built per product.
_CACHED_PAIRS = 1 << 10
_PLAN_CACHE = 64


class _PairPlan(NamedTuple):
    """Disjoint blade pairs of two mask tuples, grouped by product mask.

    Pair k combines left slice ``ia[k]`` with right slice ``ib[k]`` under
    ``sign[k]``; the groups start at ``starts`` and have product masks
    ``keys`` (ascending).
    """

    ia: np.ndarray
    ib: np.ndarray
    sign: np.ndarray
    starts: np.ndarray
    keys: tuple[int, ...]


@functools.cache
def _flip_array(order: int) -> np.ndarray:
    return np.asarray(flip_table(order), dtype=np.int64)


@functools.cache
def _parity_array(order: int) -> np.ndarray:
    """Bit-count parity of every mask below 2^order."""
    parity = np.zeros(1 << order, dtype=np.int8)
    for bit in range(order):
        parity[1 << bit:2 << bit] = parity[:1 << bit] ^ 1
    return parity


def _build_plan(masks_a: Sequence[int], masks_b: Sequence[int], order: int) -> _PairPlan:
    ma = np.asarray(masks_a, dtype=np.int64)
    mb = np.asarray(masks_b, dtype=np.int64)
    ia, ib = np.nonzero((ma[:, None] & mb[None, :]) == 0)
    left, right = ma[ia], mb[ib]
    keys = left | right
    by_key = np.argsort(keys, kind="stable")
    ia, ib, keys = ia[by_key], ib[by_key], keys[by_key]
    odd = _parity_array(order)[_flip_array(order)[left[by_key]] & right[by_key]]
    sign = 1.0 - 2.0 * odd
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    return _PairPlan(ia, ib, sign, starts, tuple(keys[starts].tolist()))


_cached_plan = functools.lru_cache(maxsize=_PLAN_CACHE)(_build_plan)


def _combine(plan: _PairPlan, op: Callable, a_stack: np.ndarray,
             b_stack: np.ndarray) -> np.ndarray:
    """Per product mask, the signed sum of op(left slice, right slice)."""
    terms = op(a_stack[plan.ia], b_stack[plan.ib])
    terms *= plan.sign[:, None, None]
    return np.add.reduceat(terms, plan.starts, axis=0)


def _blade_product(op: Callable, masks_a: tuple[int, ...], a_stack: np.ndarray,
                   masks_b: tuple[int, ...], b_stack: np.ndarray, order: int,
                   shape: tuple[int, int]) -> tuple[tuple[int, ...], np.ndarray]:
    """Grassmann product of two blade stacks: (masks, stack) of the result.

    ``op`` combines gathered slices pairwise (``np.matmul`` for matrix
    products, ``np.multiply`` for products with the (k, 1, 1) coefficient
    stack of a GrassmannNumber).  A body-only operand (masks (0,)) needs no
    plan: its pairs all have sign +1 and distinct product masks.
    """
    na, nb = len(masks_a), len(masks_b)
    if not na or not nb:
        return (), np.zeros((0, *shape), dtype=complex)
    if masks_a == (0,) or masks_b == (0,):
        out = op(a_stack[0], b_stack) if masks_a == (0,) else op(a_stack, b_stack[0])
        out *= 1.0  # the +1 sign: a complex product by 1 + 0j can flip a zero's sign
        return (masks_b if masks_a == (0,) else masks_a), out
    per_pair = max(a_stack[0].size, b_stack[0].size, shape[0] * shape[1], 1)
    tile = max(1, _TILE_ELEMENTS // per_pair)
    if na * nb <= tile:
        plan = (_cached_plan if na * nb <= _CACHED_PAIRS else _build_plan)(
            masks_a, masks_b, order)
        if not plan.keys:
            return (), np.zeros((0, *shape), dtype=complex)
        return plan.keys, _combine(plan, op, a_stack, b_stack)
    # Tiled: fix the output masks first (one bitwise test per pair, no
    # gather), so that each tile's groups are added into place and dropped;
    # collecting the tiles' results before their union is known would hold
    # up to one slice per tile and output mask at once.
    tb = min(nb, tile)
    ta = max(1, tile // tb)
    tiles = [(slice(a0, a0 + ta), slice(b0, b0 + tb))
             for a0 in range(0, na, ta) for b0 in range(0, nb, tb)]
    ma = np.asarray(masks_a, dtype=np.int64)
    mb = np.asarray(masks_b, dtype=np.int64)
    present = np.zeros(1 << order, dtype=bool)
    for sa, sb in tiles:
        left, right = ma[sa, None], mb[None, sb]
        present[(left | right)[(left & right) == 0]] = True
    keys = np.flatnonzero(present)
    out = np.zeros((len(keys), *shape), dtype=complex)
    for sa, sb in tiles:
        plan = _build_plan(masks_a[sa], masks_b[sb], order)
        if plan.keys:
            rows = np.searchsorted(keys, plan.keys)
            out[rows] += _combine(plan, op, a_stack[sa], b_stack[sb])
    return tuple(keys.tolist()), out


def _union_add(masks_a: tuple[int, ...], a_stack: np.ndarray, masks_b: tuple[int, ...],
               b_stack: np.ndarray) -> tuple[tuple[int, ...], np.ndarray]:
    """Blade-wise sum of two stacks: (masks, stack) over the union of masks."""
    if masks_a == masks_b:
        return masks_a, a_stack + b_stack
    masks = tuple(sorted(set(masks_a).union(masks_b)))
    position = {m: k for k, m in enumerate(masks)}.__getitem__
    stack = np.zeros((len(masks), *a_stack.shape[1:]), dtype=complex)
    stack[np.fromiter(map(position, masks_a), np.intp, len(masks_a))] = a_stack
    stack[np.fromiter(map(position, masks_b), np.intp, len(masks_b))] += b_stack
    return masks, stack


def _drop_zero_slices(masks: tuple[int, ...], stack: np.ndarray
                      ) -> tuple[tuple[int, ...], np.ndarray]:
    """(masks, stack) without the all-zero slices."""
    nonzero = stack.reshape(len(masks), stack.shape[1] * stack.shape[2]).any(axis=1)
    if nonzero.all():
        return masks, stack
    return tuple(m for m, keep in zip(masks, nonzero.tolist()) if keep), stack[nonzero]


def _nilpotent_matrix_series(masks: tuple[int, ...], stack: np.ndarray, order: int,
                             coeff: Callable[[int], complex]
                             ) -> tuple[tuple[int, ...], np.ndarray]:
    """(masks, stack) of sum_k coeff(k) x^k for x = (masks, stack) square with
    zero body, a matrix or, as a 1 x 1 stack, a number: x^k has no blades for
    some k <= order + 1, and the sum stops there."""
    size = stack.shape[1]
    # x has no body blade, so the k = 0 and k = 1 terms stack without a union
    total_masks = (0, *masks)
    total = np.concatenate((coeff(0) * np.eye(size, dtype=complex)[None], coeff(1) * stack))
    power_masks, power, k = masks, stack, 2
    while True:
        power_masks, power = _drop_zero_slices(*_blade_product(
            np.matmul, power_masks, power, masks, stack, order, (size, size)))
        if not power_masks:
            return total_masks, total
        total_masks, total = _union_add(total_masks, total, power_masks, coeff(k) * power)
        k += 1


# -- numbers ----------------------------------------------------------------------


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

    def _packed(self) -> tuple[tuple[int, ...], np.ndarray]:
        """(masks, stack): the ascending masks and their coefficients as a
        (k, 1, 1) blade stack."""
        masks = tuple(sorted(self.terms))
        return masks, np.array([self.terms[m] for m in masks],
                               dtype=complex).reshape(-1, 1, 1)

    def __mul__(self, other):
        if isinstance(other, GrassmannNumber):
            self._require_same_order(other)
            masks, stack = _blade_product(np.multiply, *self._packed(), *other._packed(),
                                          self.order, (1, 1))
            return GrassmannNumber(self.order, dict(zip(masks, stack[:, 0, 0].tolist())))
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

    def _series(self, scale: complex, coeff: Callable[[int], complex],
                factor: complex) -> "GrassmannNumber":
        """factor * sum_k coeff(k) u^k for u = scale * (nilpotent part), the
        finite series on the packed 1 x 1 stack (exact beyond rounding)."""
        masks, stack = self._packed()
        start = 1 if masks and masks[0] == 0 else 0
        masks, stack = _nilpotent_matrix_series(masks[start:], scale * stack[start:],
                                                self.order, coeff)
        return GrassmannNumber(self.order,
                               dict(zip(masks, (factor * stack[:, 0, 0]).tolist())))

    def exp(self) -> "GrassmannNumber":
        """exp(body) times the finite nilpotent series (exact beyond rounding)."""
        return self._series(1.0, lambda k: 1.0 / math.factorial(k), cmath.exp(self.body))

    def log(self) -> "GrassmannNumber":
        """Principal logarithm; requires a nonzero body."""
        b = self.body
        if b == 0:
            raise SingularBodyError("log of a Grassmann number with zero body")
        return self._series(1.0 / b, lambda k: (-1.0) ** (k + 1) / k if k else cmath.log(b),
                            1.0)

    def inv(self) -> "GrassmannNumber":
        """Multiplicative inverse; requires a nonzero body."""
        b = self.body
        if b == 0:
            raise SingularBodyError("inverse of a Grassmann number with zero body")
        return self._series(-1.0 / b, lambda k: 1.0, 1.0 / b)

    def fpow(self, alpha: float) -> "GrassmannNumber":
        """Principal fractional power body**alpha * (1 + nil/body)**alpha."""
        b = self.body
        if b == 0:
            raise SingularBodyError("fractional power of a zero-body element")
        return self._series(
            1.0 / b, lambda k: math.prod((alpha - j) / (j + 1) for j in range(k)), b ** alpha)

    # -- serialization -----------------------------------------------------

    def to_json(self, newline: str = "\n") -> str:
        """``to_dict``'s JSON text (``newline`` as in ``_json_text``), the
        terms by ascending mask."""
        # canonical and finite already: the terms need no filter
        return _json_text(_cell(self.order, [_TERM % (m, c.real, c.imag)
                                             for m, c in sorted(self.terms.items())]), newline)

    def to_dict(self) -> dict:
        return json.loads(self.to_json())

    @classmethod
    def from_dict(cls, data: Mapping) -> "GrassmannNumber":
        order = json_int(data["N"], "N")
        terms: dict[int, complex] = {}
        for item in data.get("terms", []):
            mask = json_int(item["mask"], "mask")
            # JSON numbers only; a float skips the call
            real, imag = item["re"], item.get("im", 0.0)
            value = complex(real if type(real) is float else json_float(real, "re"),
                            imag if type(imag) is float else json_float(imag, "im"))
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
