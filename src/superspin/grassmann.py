"""Arithmetic in the Grassmann algebra on N anticommuting generators over C.

Elements are stored sparsely as a map from blade bitmasks to complex
coefficients; bit i of a mask selects the generator f_{i+1}.  Every element
splits as body + nilpotent part, which makes exponential, logarithm and
fractional powers finite computations on the nilpotent side.

The package's one product kernel lives here too.  It works on blade stacks
(ascending masks and one array of a slice per mask, float64 when every
imaginary part is +0.0 and complex128 otherwise, ``_as_stack``'s rule; every
array the kernel allocates takes its operands' ``np.result_type``, so numpy's
promotion is the only switch between the two): ``_blade_product``
multiplies numbers (as (k, 1, 1) stacks), matrices, supervectors, bivectors
and Clifford coefficients, and ``_power_series`` is the one series loop,
finite or convergent, of the number maps and of the matrix exp, ln and
inverse.  A float64 stack's imaginary part is zero, so the CANON_EPS
filters (``_kept``, for ``_json_cells`` and ``clifford.reflect``, and
``clifford._drop_tiny``) take |x| of it directly, which is max(|re|, |im|)
for real x, and scan no imaginary part.  The package's JSON codec lives
here as well: ``_json_cells`` reads the Grassmann cells off a
blade stack as ``_Cells`` list nodes, one per matrix row, supervector
coordinate list or bivector family (order, each cell's term count, and all
their mask/re/im values as one flat list; a family's nonzero coefficients
are keyed pairs), and a lone number is one ``_Cell``.  ``_json_text`` is
the one writer (``json.dumps(indent=2)`` byte for byte) and writes payload
trees only: it turns one into a format string of escaped literal text and
cached cell or pair templates, joined a node at a time, and applies it
once.  ``_read_cells`` reads cells back into a stack in one pass over their
terms, and names the container of an entry of another order.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .exceptions import AlgebraError, ConvergenceError, OrderMismatchError, SingularBodyError

MAX_ORDER = 16

# Absolute threshold below which a stored coefficient is treated as zero.
CANON_EPS = 1e-14

# Default relative tolerance for numeric comparisons throughout the package.
DEFAULT_TOL = 1e-9

# Relative stop threshold of a convergent series, and the terms it may sum.
SERIES_EPS = 1e-14
SERIES_TERMS = 5000

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


def _isclose(self, other, tol: float = DEFAULT_TOL) -> bool:
    """Whether ``other``, of the same kind (``_require_compatible``), has
    (self - other).norm() <= tol * max(1, self.norm(), other.norm())."""
    self._require_compatible(other)
    scale = max(1.0, self.norm(), other.norm())
    return (self - other).norm() <= tol * scale


# -- JSON text -----------------------------------------------------------------


class _Cell(NamedTuple):
    """One Grassmann number in a JSON tree: its order, its number of terms
    and the terms' flat (mask, re, im) values.  ``_json_text`` writes it
    through a cell template."""

    order: int
    count: int
    values: list


class _Cells(NamedTuple):
    """A JSON list of Grassmann cells of one order (a matrix row, a
    supervector's even or odd coordinates): each cell's number of terms and
    all their values, flat as in ``_Cell``, or (mask, re) values when
    ``real`` says every im is +0.0, so the ``%`` pass formats no im.  With
    ``pair`` it is a bivector family, each cell the coeff of a
    ``{"j": j, "k": k, "coeff": cell}`` object whose int keys lead its
    values.  ``_json_text`` writes it as its cells' (or pairs') cached
    templates joined, so no object is built or walked for a cell."""

    order: int
    counts: list
    values: list
    real: bool
    pair: bool = False


# Cell templates are memoised while their total length stays within
# _TEMPLATE_BYTES (they are ASCII: one byte a character).  A template that
# would overfill the cache empties it first; one longer than the bound (a cell
# of more than 9000 to 17000 terms, by indent, so N >= 14) is built for each
# cell.  The (6, 2, 4) benchmark outputs use 18 to 20 templates, 4 of them for
# bivector pairs, 10 KB in all.
_TEMPLATE_BYTES = 1 << 20


class _Templates(dict):
    """Cell templates by (order, count, newline, real, pair): the text of a
    cell of ``count`` terms at indent ``newline``, with a ``%d``/``%r``/``%r``
    slot for each term's mask, re and im (im written as 0.0 if ``real``),
    or, if ``pair``, of a bivector pair object holding such a cell, with a
    ``%d`` slot for j and k first; ``size`` is their total length."""

    size = 0

    def __missing__(self, key: tuple[int, int, str, bool, bool]) -> str:
        order, count, newline, real, pair = key
        inner, item = newline + "  ", newline + "    "
        if pair:
            cell = self[order, count, inner, real, False]
            template = f'{{{inner}"j": %d,{inner}"k": %d,{inner}"coeff": {cell}{newline}}}'
        elif count:
            field = item + "  "
            im = "0.0" if real else "%r"
            term = f'{{{field}"mask": %d,{field}"re": %r,{field}"im": {im}{item}}}'
            template = (f'{{{inner}"N": {order},{inner}"terms": [{item}{term}'
                        + ("," + item + term) * (count - 1) + f'{inner}]{newline}}}')
        else:
            template = f'{{{inner}"N": {order},{inner}"terms": []{newline}}}'
        if len(template) <= _TEMPLATE_BYTES:
            if self.size + len(template) > _TEMPLATE_BYTES:
                self.clear()
                self.size = 0
            self[key] = template
            self.size += len(template)
        return template


_templates = _Templates()

_encode_str = json.encoder.encode_basestring_ascii


def _json_text(value) -> str:
    """``json.dumps(value, indent=2, allow_nan=False)``, byte for byte, of a
    payload tree: str-keyed dicts, lists, str, None, bool, int and float
    (their subclasses, such as ``np.float64``, too), ``_Cell`` and
    ``_Cells`` nodes, and objects with a ``_json_tree`` method (the payload
    classes, whose ``to_json`` this is), which stand for their trees.

    The whole output is one format string, applied once to the values of
    every Grassmann cell in the tree: literal text with ``%`` escaped and,
    for each cell or pair, its cached template.  A non-finite float raises
    ValueError, and anything else (a tuple, a non-str key, a dict, list or
    str subclass) TypeError, before any formatting.
    """
    values: list = []
    return _format(value, "\n", values) % tuple(values)


def _to_dict(self) -> dict:
    """The payload as plain JSON data: ``to_json``'s text, parsed."""
    return json.loads(self.to_json())


def _format(value, newline: str, values: list) -> str:
    """``value``'s part of ``_json_text``'s format string, ``newline`` being
    the line break and indent of its own line; its cells' values are
    appended to ``values`` in slot order.  Exact types are tried first, with
    finite floats inlined in dicts."""
    kind = type(value)
    if kind is _Cell:
        values += value.values
        return _templates[value.order, value.count, newline, False, False]
    if kind is _Cells:
        if not value.counts:
            return "[]"
        values += value.values
        inner = newline + "  "
        order, real, pair = value.order, value.real, value.pair
        return ("[" + inner + ("," + inner).join([
            _templates[order, count, inner, real, pair] for count in value.counts])
            + newline + "]")
    if kind is int:
        return int.__repr__(value)
    if kind is str:
        return _encode_str(value).replace("%", "%%")
    if kind is dict:
        if not value:
            return "{}"
        inner = newline + "  "
        # _encode_str raises TypeError for a key that is not a str
        items = [
            _encode_str(k).replace("%", "%%") + ": "
            + (float.__repr__(v) if type(v) is float and v - v == 0.0
               else _format(v, inner, values))
            for k, v in value.items()
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if kind is list:
        if not value:
            return "[]"
        inner = newline + "  "
        items = [_format(v, inner, values) for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    if isinstance(value, int):
        return int.__repr__(value)
    tree = getattr(kind, "_json_tree", None)
    if tree is None:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    return _format(tree(value), newline, values)


# -- the dtype rule --------------------------------------------------------------


def _imaginary(values: np.ndarray) -> bool:
    """Whether some imaginary part of ``values`` (float64 or complex128) is
    not +0.0, the one float whose bits are all zero.  The package's one
    dtype rule: a blade stack without such a part is held as float64
    (``_as_stack``), and a Grassmann cell without one is written without
    its im parts (``_json_cells``)."""
    return values.dtype.kind == "c" and bool(values.imag.view(np.uint64).any())


def _as_stack(values) -> np.ndarray:
    """``values`` as a blade stack holds them: complex128 when some
    imaginary part is not +0.0 (``_imaginary``), float64 otherwise.  A
    float64 array is returned as it is; a complex one without imaginary
    bits becomes a copy of its real part."""
    values = np.asarray(values)
    if values.dtype.kind != "c":
        return values.astype(float, copy=False)
    values = values.astype(complex, copy=False)
    return values if _imaginary(values) else values.real.copy()


def _kept(values: np.ndarray) -> np.ndarray:
    """Where |re| or |im| is at least CANON_EPS: the entries a canonical
    GrassmannNumber keeps.  A float64 array is read by |x| alone."""
    if values.dtype.kind == "c":
        return (np.abs(values.real) >= CANON_EPS) | (np.abs(values.imag) >= CANON_EPS)
    return np.abs(values) >= CANON_EPS


def _json_cells(order: int, masks: Sequence[int], values: np.ndarray,
                groups: Sequence[int],
                keys: Sequence[tuple[int, int]] | None = None) -> list[_Cells]:
    """The rows of ``values`` (cells x blades, the blades being ``masks``)
    as one ``_Cells`` list per group of consecutive cells, ``groups``
    giving their sizes: one canonical CANON_EPS filter over all
    coefficients, and the kept (mask, re, im) triples as one object array's
    ``tolist``, so the masks are ints and the floats keep their repr; when
    every kept im is +0.0 (always, for a float64 stack), the cells are
    ``real`` and hold (mask, re) pairs.  With ``keys``, one (j, k) per
    cell, each group is a bivector family: a cell without terms is left
    out and a kept one is a pair.  A kept non-finite coefficient raises
    ValueError, as ``json`` does."""
    kept = _kept(values)
    ii, kk = np.nonzero(kept)
    coeffs = values[ii, kk]
    if not np.isfinite(coeffs).all():
        raise ValueError("Out of range float values are not JSON compliant")
    real = not _imaginary(coeffs)
    flat = np.empty((len(ii), 2 if real else 3), dtype=object)
    flat[:, 0] = np.asarray(masks, dtype=np.int64)[kk]
    flat[:, 1] = coeffs.real
    if not real:
        flat[:, 2] = coeffs.imag
    width = flat.shape[1]
    flat = flat.ravel().tolist()
    sizes = kept.sum(axis=1).tolist()
    nodes, cell, start = [], 0, 0
    for group in groups:
        counts = sizes[cell:cell + group]
        if keys is None:
            end = start + width * sum(counts)
            nodes.append(_Cells(order, counts, flat[start:end], real))
            start = end
        else:
            pairs = []
            for key, count in zip(keys[cell:cell + group], counts):
                if count:
                    end = start + width * count
                    pairs += key
                    pairs += flat[start:end]
                    start = end
            nodes.append(_Cells(order, [c for c in counts if c], pairs, real, True))
        cell += group
    return nodes


def _read_cells(entries: Sequence[Mapping], order: int, cells: Sequence[int],
                count: int, container: str) -> tuple[list[int], np.ndarray]:
    """(masks, values) of JSON Grassmann numbers read as ``from_dict`` reads
    one: ascending masks, one row each, and ``count`` columns, entry e adding
    into column ``cells[e]``; an entry whose order is not ``order`` raises
    OrderMismatchError naming the ``container`` it sits in (a "matrix").
    One pass over the terms checks each field
    (``json_int`` only for a value that is not an int, ``json_float`` only
    for one that is not a float); the columns are the cells repeated by
    their term counts, and the rows are the masks present in a 2^N array,
    each term's row found by binary search.  Sums (a repeated mask or column) start from -0.0, so a -0.0 part
    keeps its sign; one that overflows raises AlgebraError, not a warning.
    Parts below CANON_EPS in both re and im become 0.0, and the stack is
    held by ``_as_stack``'s rule."""
    if not 0 <= order <= MAX_ORDER:
        raise OrderMismatchError(f"order must be in [0, {MAX_ORDER}], got {order}")
    limit = 1 << order
    masks, counts, parts = [], [], []  # parts: re, im of each term in turn
    for entry in entries:
        entry_order = entry["N"]
        if type(entry_order) is not int:
            json_int(entry_order, "N")
        if entry_order != order:
            raise OrderMismatchError(f"entry order differs from {container} order")
        before = len(masks)
        for item in entry.get("terms", []):
            mask = item["mask"]
            if type(mask) is not int:
                json_int(mask, "mask")
            if not 0 <= mask < limit:
                raise OrderMismatchError(f"mask {mask} out of range for order {order}")
            masks.append(mask)
            real, imag = item["re"], item.get("im", 0.0)
            parts.append(real if type(real) is float else json_float(real, "re"))
            parts.append(imag if type(imag) is float else json_float(imag, "im"))
        counts.append(len(masks) - before)
    masks = np.asarray(masks, dtype=np.int64)
    present = np.zeros(limit, dtype=bool)
    present[masks] = True
    keys = np.flatnonzero(present)
    slot = np.searchsorted(keys, masks)
    where = np.repeat(np.fromiter(cells, np.intp, len(counts)), counts)
    values = np.fromiter(parts, np.float64, len(parts)).view(complex)
    stack = np.full((len(keys), count), complex(-0.0, -0.0))
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.at(stack, (slot, where), values)
    if not np.isfinite(stack).all():
        raise AlgebraError("non-finite entry in blade slice")
    stack[~_kept(stack)] = 0.0
    return keys.tolist(), _as_stack(stack)


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
    plan: its pairs all have sign +1 and distinct product masks.  The +1 is
    applied, as the plan route's signs are, only to a complex result, where
    a product by 1 + 0j can turn the sign of a zero part; on a float64
    result a product by 1.0 changes no bit.  ``np.result_type`` is read only
    for the arrays this function allocates (an empty result, a tiled one).
    """
    na, nb = len(masks_a), len(masks_b)
    if not na or not nb:
        return (), np.zeros((0, *shape), dtype=np.result_type(a_stack, b_stack))
    if masks_a == (0,) or masks_b == (0,):
        out = op(a_stack[0], b_stack) if masks_a == (0,) else op(a_stack, b_stack[0])
        if out.dtype.kind == "c":
            out *= 1.0  # the +1 sign
        return (masks_b if masks_a == (0,) else masks_a), out
    per_pair = max(a_stack[0].size, b_stack[0].size, shape[0] * shape[1], 1)
    tile = max(1, _TILE_ELEMENTS // per_pair)
    if na * nb <= tile:
        plan = (_cached_plan if na * nb <= _CACHED_PAIRS else _build_plan)(
            masks_a, masks_b, order)
        if not plan.keys:
            return (), np.zeros((0, *shape), dtype=np.result_type(a_stack, b_stack))
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
    out = np.zeros((len(keys), *shape), dtype=np.result_type(a_stack, b_stack))
    for sa, sb in tiles:
        plan = _build_plan(masks_a[sa], masks_b[sb], order)
        if plan.keys:
            rows = np.searchsorted(keys, plan.keys)
            out[rows] += _combine(plan, op, a_stack[sa], b_stack[sb])
    return tuple(keys.tolist()), out


def _union_add(masks_a: tuple[int, ...], a_stack: np.ndarray, masks_b: tuple[int, ...],
               b_stack: np.ndarray) -> tuple[tuple[int, ...], np.ndarray]:
    """Blade-wise sum of two stacks: (masks, stack) over the union of masks.

    When the left masks cover the right ones, the right slices are added
    into a copy of the left stack; otherwise into a zeroed union holding
    the left slices.  Either way each sum is left + right, with the same bits."""
    if masks_a == masks_b:
        return masks_a, a_stack + b_stack
    masks = tuple(sorted(set(masks_a).union(masks_b)))
    position = {m: k for k, m in enumerate(masks)}.__getitem__
    dtype = np.result_type(a_stack, b_stack)
    if len(masks) == len(masks_a):
        stack = a_stack.astype(dtype)
    else:
        stack = np.zeros((len(masks), *a_stack.shape[1:]), dtype=dtype)
        stack[np.fromiter(map(position, masks_a), np.intp, len(masks_a))] = a_stack
    stack[np.fromiter(map(position, masks_b), np.intp, len(masks_b))] += b_stack
    return masks, stack


def _drop_zero_slices(masks: tuple[int, ...], stack: np.ndarray
                      ) -> tuple[tuple[int, ...], np.ndarray]:
    """(masks, stack) without the all-zero slices; a one-slice stack that
    is not all zero is answered by one ``any``."""
    if len(masks) == 1 and stack.any():
        return masks, stack
    nonzero = stack.reshape(len(masks), stack.shape[1] * stack.shape[2]).any(axis=1)
    if nonzero.all():
        return masks, stack
    return tuple(m for m, keep in zip(masks, nonzero.tolist()) if keep), stack[nonzero]


def _log_ratio(k: int) -> float:
    """Term ratio of log(1 + x) = x - x^2/2 + x^3/3 - ...: 1, then -(k - 1)/k."""
    return (1.0 - k) / k if k > 1 else 1.0


def _power_series(masks: tuple[int, ...], stack: np.ndarray, order: int,
                  ratio: Callable[[int], complex], first: complex
                  ) -> tuple[tuple[int, ...], np.ndarray]:
    """(masks, stack) of first I + t_1 + t_2 + ..., t_1 = x ratio(1) and
    t_k = t_{k-1} x ratio(k), for x = (masks, stack) square: a matrix or, as
    a 1 x 1 stack, a number.  The package's one series loop.  Without a body
    blade x is nilpotent, and the sum ends at the first t_k without blades
    (k <= order + 1).  With one it ends at the first term of norm not above
    SERIES_EPS times the sum's, or at a NaN term (the caller's build reports
    it); the sum's norm is read only once the term is within 2 SERIES_EPS of
    |first I| + the term norms so far, a bound on it, so the end is the same.
    A series still running at term SERIES_TERMS raises ConvergenceError."""
    size = stack.shape[1]
    convergent = masks[:1] == (0,)
    eye = first * np.eye(size, dtype=stack.dtype)[None]
    term_masks, term = masks, stack * ratio(1)
    total_masks, total = (_union_add((0,), eye, masks, term) if convergent
                          else ((0, *masks), np.concatenate((eye, term))))
    bound = abs(first) * size
    for k in range(2, SERIES_TERMS + 2):
        if convergent:
            term_norm = np.abs(term).sum()
            bound += term_norm
            if not (term_norm > 2.0 * SERIES_EPS * bound
                    or term_norm > SERIES_EPS * np.abs(total).sum()):
                break
            if k > SERIES_TERMS:
                raise ConvergenceError(f"series did not converge in {SERIES_TERMS} terms "
                                       f"(last term norm {term_norm:.3e})")
        term_masks, term = _drop_zero_slices(*_blade_product(
            np.matmul, term_masks, term, masks, stack, order, (size, size)))
        if not term_masks:
            break
        term = term * ratio(k)
        total_masks, total = _union_add(total_masks, total, term_masks, term)
    return total_masks, total


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
    def _adopt(cls, order: int, terms: dict[int, complex]) -> "GrassmannNumber":
        """The number holding ``terms`` as given, unchecked: canonical, finite
        complex coefficients under masks below 2^order."""
        number = object.__new__(cls)
        object.__setattr__(number, "order", order)
        object.__setattr__(number, "terms", terms)
        return number

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

    def _require_compatible(self, other: "GrassmannNumber") -> None:
        if self.order != other.order:
            raise OrderMismatchError(
                f"order mismatch: {self.order} vs {other.order}"
            )

    def __add__(self, other):
        if isinstance(other, GrassmannNumber):
            self._require_compatible(other)
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
        (k, 1, 1) blade stack, held by ``_as_stack``'s rule."""
        masks = tuple(sorted(self.terms))
        return masks, _as_stack(np.array([self.terms[m] for m in masks],
                                         dtype=complex).reshape(-1, 1, 1))

    def __mul__(self, other):
        if isinstance(other, GrassmannNumber):
            self._require_compatible(other)
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
            if other == 0:
                raise SingularBodyError("division of a Grassmann number by zero")
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

    # -- metrics -----------------------------------------------------------

    def norm(self) -> float:
        """Sum of coefficient moduli; submultiplicative."""
        return sum(abs(c) for c in self.terms.values())

    isclose = _isclose

    # -- transcendental maps -------------------------------------------------

    def _series(self, scale: complex, ratio: Callable[[int], complex], first: complex,
                factor: complex) -> "GrassmannNumber":
        """factor * ``_power_series`` of u = scale * (nilpotent part) on the
        packed 1 x 1 stack: a finite series, exact beyond rounding."""
        masks, stack = self._packed()
        start = 1 if masks and masks[0] == 0 else 0
        masks, stack = _power_series(masks[start:], scale * stack[start:], self.order,
                                     ratio, first)
        return GrassmannNumber(self.order, dict(zip(masks, (factor * stack[:, 0, 0]).tolist())))

    def exp(self) -> "GrassmannNumber":
        """exp(body) times the finite nilpotent series (exact beyond rounding);
        AlgebraError when exp(body) overflows."""
        try:
            factor = cmath.exp(self.body)
        except OverflowError:
            raise AlgebraError(f"exp of body {self.body!r} overflows") from None
        return self._series(1.0, lambda k: 1.0 / k, 1.0, factor)

    def log(self) -> "GrassmannNumber":
        """Principal logarithm; requires a nonzero body."""
        b = self.body
        if b == 0:
            raise SingularBodyError("log of a Grassmann number with zero body")
        return self._series(1.0 / b, _log_ratio, cmath.log(b), 1.0)

    def inv(self) -> "GrassmannNumber":
        """Multiplicative inverse; requires a nonzero body."""
        b = self.body
        if b == 0:
            raise SingularBodyError("inverse of a Grassmann number with zero body")
        return self._series(-1.0 / b, lambda k: 1.0, 1.0, 1.0 / b)

    def fpow(self, alpha: float) -> "GrassmannNumber":
        """Principal fractional power body**alpha * (1 + nil/body)**alpha."""
        b = self.body
        if b == 0:
            raise SingularBodyError("fractional power of a zero-body element")
        return self._series(1.0 / b, lambda k: (alpha - k + 1) / k, 1.0, b ** alpha)

    # -- serialization -----------------------------------------------------

    def _json_tree(self) -> _Cell:
        """The number as one cell, the terms by ascending mask."""
        # canonical and finite already: the terms need no filter
        return _Cell(self.order, len(self.terms), [
            part for m, c in sorted(self.terms.items()) for part in (m, c.real, c.imag)])

    to_json = _json_text
    to_dict = _to_dict

    @classmethod
    def from_dict(cls, data: Mapping) -> "GrassmannNumber":
        """Inverse of ``to_dict``: the number read as one cell."""
        return cls._read_many((data,), json_int(data["N"], "N"), (0,), 1, "number")[0]

    @classmethod
    def _read_many(cls, entries: Sequence[Mapping], order: int, cells: Sequence[int],
                   count: int, container: str) -> list["GrassmannNumber"]:
        """``count`` numbers from one ``_read_cells`` pass, entry e adding
        into number ``cells[e]``; each number's terms by ascending mask."""
        masks, values = _read_cells(entries, order, cells, count, container)
        return [cls._adopt(order, {m: complex(c) for m, c in zip(masks, column) if c})
                for column in values.T.tolist()]

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

    Coefficients are N(0, scale^2) per admissible blade, masks ascending, in
    one ``rng.normal`` call (a complex coefficient draws its real part, then
    its imaginary part); `grade_min` > 0 produces nilpotent draws.
    """
    grades = np.array([mask.bit_count() for mask in range(1 << order)])
    keep = grades >= grade_min
    if parity in (_EVEN, _ODD):
        keep &= grades % 2 == (parity == _ODD)
    masks = np.flatnonzero(keep)
    draws = rng.normal(0.0, scale, (len(masks), 1 if real else 2))
    values = draws[:, 0] if real else draws.view(complex)[:, 0]
    return GrassmannNumber(order, dict(zip(masks.tolist(), values.tolist())))


def _random_stack(rng, order: int, odd: np.ndarray, scale: float) -> np.ndarray:
    """A (2^order, *odd.shape) float64 blade stack holding a real
    ``random_grassmann`` draw per entry, odd where ``odd`` is True and even
    elsewhere: one ``rng.normal`` call in that function's draw order (the
    entries row by row, each over its parity's masks ascending), a draw
    below CANON_EPS set to 0.0 as the number drops it."""
    entry, mask = np.nonzero(_parity_array(order) == odd.reshape(-1, 1))
    draws = rng.normal(0.0, scale, len(entry))
    draws[np.abs(draws) < CANON_EPS] = 0.0
    stack = np.zeros((1 << order, odd.size))
    stack[mask, entry] = draws
    return stack.reshape(1 << order, *odd.shape)
