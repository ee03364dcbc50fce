"""The blade-stack kernel against reference implementations kept only here.

The Grassmann references are the dict loops the library used before numbers
moved onto the kernel: every sign comes from ``reorder_sign``, every
coefficient product is a fresh GrassmannNumber, the finite nilpotent series
sums dict powers, and the Clifford product adds whole GrassmannNumbers term
by term.  The matrix references work on ``{mask: slice}`` dicts, the storage
GrassmannMatrix had before the packed blade stack: one Python loop per
operation over blades or blade pairs.
"""

import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superspin import (
    AlgebraError,
    CapExceededError,
    CliffordElement,
    GrassmannMatrix,
    GrassmannNumber,
    ShapeMismatchError,
    Supermatrix,
)
from superspin import grassmann
from superspin.clifford import _blade_mul, _plane_reorder
from superspin.grassmann import MAX_ORDER, flip_table, reorder_sign

TOL = 1e-12
ORDERS = (0, 1, 4)
NUMBER_ORDERS = (0, 1, 4, 8)

SETTINGS = settings(max_examples=150)


# -- reference products ----------------------------------------------------------


def reference_grassmann_product(a, b):
    out = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            if ma & mb:
                continue
            m = ma | mb
            out[m] = out.get(m, 0.0) + ca * cb * reorder_sign(ma, mb)
    return GrassmannNumber(a.order, out)


def reference_nilpotent_series(u, coeff):
    """sum_k coeff(k) u^k for a nilpotent u (zero body): every factor of u
    raises the lowest grade of a power by one, so u^k vanishes for some
    k <= order + 1 and the sum stops there."""
    total = {}
    power, k = GrassmannNumber.one(u.order), 0
    while power.terms:
        c = coeff(k)
        for mask, value in power.terms.items():
            total[mask] = total.get(mask, 0.0) + c * value
        power = reference_grassmann_product(power, u)
        k += 1
    return GrassmannNumber(u.order, total)


def reference_clifford_product(x, y):
    """(product with over-cap terms dropped, the largest degree of a term
    over the cap or 0)."""
    cap = max(x.cap, y.cap)
    out = {}
    over_cap = 0
    for (ea, aa), ca in x.terms.items():
        for (eb, ab), cb in y.terms.items():
            coeff = reference_grassmann_product(ca, cb)
            if not coeff.terms:
                continue
            sign = -1 if sum(aa) & 1 and eb.bit_count() & 1 else 1
            bsign, emask = _blade_mul(ea, eb)
            planes = [
                _plane_reorder(aa[2 * t], aa[2 * t + 1], ab[2 * t], ab[2 * t + 1])
                for t in range(x.n)
            ]
            for combo in itertools.product(*planes):
                alpha = tuple(e for px, qy, _ in combo for e in (px, qy))
                weight = float(sign * bsign)
                for _, _, w in combo:
                    weight *= w
                if weight == 0.0:
                    continue
                if sum(alpha) > cap:
                    over_cap = max(over_cap, sum(alpha))
                    continue
                key = (emask, alpha)
                term = coeff * weight
                out[key] = out[key] + term if key in out else term
    return CliffordElement(x.m, x.n, x.order, cap, out), over_cap


def _accumulate(out, key, term):
    out[key] = out[key] + term if key in out else term


def reference_matmul(a, b):
    out = {}
    for ma, sa in a.blades.items():
        for mb, sb in b.blades.items():
            if not ma & mb:
                _accumulate(out, ma | mb, reorder_sign(ma, mb) * (sa @ sb))
    return out


def reference_scale(g, a):
    out = {}
    for fm, fc in g.terms.items():
        for mask, s in a.blades.items():
            if not fm & mask:
                _accumulate(out, fm | mask, reorder_sign(fm, mask) * fc * s)
    return out


def reference_add(a, b, sign=1.0):
    out = dict(a.blades)
    for mask, s in b.blades.items():
        _accumulate(out, mask, sign * s)
    return out


def reference_entries(a):
    return [[GrassmannNumber(a.order, {m: s[i, j] for m, s in a.blades.items() if s[i, j] != 0})
             for j in range(a.cols)] for i in range(a.rows)]


def reference_from_entries(grid, rows, cols):
    out = {}
    for i, row in enumerate(grid):
        for j, g in enumerate(row):
            for mask, c in g.terms.items():
                out.setdefault(mask, np.zeros((rows, cols), dtype=complex))[i, j] = c
    return out


def reference_from_blocks(a, b, c, d):
    p, size = a.rows, a.rows + d.rows
    out = {}
    for src, (r0, c0) in ((a, (0, 0)), (b, (0, p)), (c, (p, 0)), (d, (p, p))):
        for mask, s in src.blades.items():
            if mask not in out:
                out[mask] = np.zeros((size, size), dtype=complex)
            out[mask][r0:r0 + src.rows, c0:c0 + src.cols] = s
    return out


def reference_supertranspose(x):
    p, size = x.p, x.size
    out = {}
    for mask, s in x.mat.blades.items():
        t = np.zeros((size, size), dtype=complex)
        t[:p, :p] = s[:p, :p].T
        t[:p, p:] = s[p:, :p].T
        t[p:, :p] = -s[:p, p:].T
        t[p:, p:] = s[p:, p:].T
        out[mask] = t
    return out


def reference_supertrace(x):
    p = x.p
    return GrassmannNumber(x.order, {
        mask: np.trace(s[:p, :p]) - np.trace(s[p:, p:])
        for mask, s in x.mat.blades.items()
    })


# -- strategies ---------------------------------------------------------------------

coefficients = st.builds(
    complex,
    st.floats(-4.0, 4.0, allow_subnormal=False),
    st.floats(-4.0, 4.0, allow_subnormal=False),
)


def grassmann_numbers(order, min_size=0):
    masks = st.integers(0, (1 << order) - 1)
    return st.dictionaries(masks, coefficients, min_size=min_size,
                           max_size=1 << order).map(
        lambda terms: GrassmannNumber(order, terms)
    )


@st.composite
def grassmann_pairs(draw):
    order = draw(st.sampled_from(NUMBER_ORDERS))
    return draw(grassmann_numbers(order)), draw(grassmann_numbers(order))


@st.composite
def series_inputs(draw):
    """(order, body, nilpotent terms, alpha): a body of modulus at least
    1/2 and a nilpotent part, possibly empty, with small coefficients."""
    order = draw(st.sampled_from(NUMBER_ORDERS))
    body = complex(draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(0.5, 2.0)),
                   draw(st.floats(-2.0, 2.0)))
    small = st.builds(complex, st.floats(-0.5, 0.5), st.floats(-0.5, 0.5))
    nilpotent = (draw(st.dictionaries(st.integers(1, (1 << order) - 1), small))
                 if order else {})
    return order, body, nilpotent, draw(st.floats(-2.0, 2.0))


def _fit(alpha, cap):
    """Lower exponents left to right until the degree is within the cap."""
    alpha = list(alpha)
    excess = sum(alpha) - cap
    for i, a in enumerate(alpha):
        cut = min(a, max(excess, 0))
        alpha[i] -= cut
        excess -= cut
    return tuple(alpha)


@st.composite
def clifford_elements(draw, m, n, order):
    cap = draw(st.integers(0, 4))
    keys = st.tuples(
        st.integers(0, (1 << m) - 1),
        st.lists(st.integers(0, 2), min_size=2 * n, max_size=2 * n),
    ).map(lambda k: (k[0], _fit(k[1], cap)))
    terms = draw(st.dictionaries(keys, grassmann_numbers(order, 1), min_size=1, max_size=4))
    return CliffordElement(m, n, order, cap, terms, truncated=draw(st.booleans()))


@st.composite
def clifford_pairs(draw):
    m, n = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    order = draw(st.sampled_from(ORDERS))
    return (draw(clifford_elements(m, n, order)),
            draw(clifford_elements(m, n, order)))


@st.composite
def matrix_pairs(draw):
    order = draw(st.sampled_from(ORDERS))
    rows, inner, cols = (draw(st.integers(1, 3)) for _ in range(3))

    def grid(r, c):
        return [[draw(grassmann_numbers(order)) for _ in range(c)] for _ in range(r)]

    a = GrassmannMatrix.from_entries(grid(rows, inner), order)
    b = GrassmannMatrix.from_entries(grid(inner, cols), order)
    return a, b, draw(grassmann_numbers(order))


def blade_matrices(rows, cols, order, masks=None):
    """Matrices built from {mask: slice} dicts; some slices are all zero."""
    masks = st.integers(0, (1 << order) - 1) if masks is None else st.sampled_from(masks)
    cells = st.lists(st.one_of(st.just(0j), coefficients),
                     min_size=rows * cols, max_size=rows * cols)
    slices = st.one_of(cells, st.just([0j] * (rows * cols))).map(
        lambda v: np.array(v, dtype=complex).reshape(rows, cols))
    return st.dictionaries(masks, slices, max_size=5).map(
        lambda blades: GrassmannMatrix(rows, cols, order, blades))


@st.composite
def shaped_matrices(draw):
    order = draw(st.sampled_from(ORDERS))
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    return draw(blade_matrices(rows, cols, order)), draw(blade_matrices(rows, cols, order))


@st.composite
def blade_products(draw):
    order = draw(st.sampled_from(ORDERS))
    rows, inner, cols = (draw(st.integers(0, 3)) for _ in range(3))
    return (draw(blade_matrices(rows, inner, order)),
            draw(blade_matrices(inner, cols, order)),
            draw(grassmann_numbers(order)))


@st.composite
def square_supermatrices(draw):
    order = draw(st.sampled_from(ORDERS))
    p, q = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    return Supermatrix(p, q, draw(blade_matrices(p + q, p + q, order)), validate=False)


@st.composite
def parity_blocks(draw, shape=None):
    """(A, B, C, D) blocks of a (p|q) supermatrix over Lambda_order;
    ``shape`` fixes (order, p, q), which are drawn otherwise."""
    order, p, q = shape or (draw(st.sampled_from(ORDERS)), draw(st.integers(0, 2)),
                            draw(st.integers(0, 2)))
    even = [m for m in range(1 << order) if m.bit_count() % 2 == 0]
    odd = [m for m in range(1 << order) if m.bit_count() % 2 == 1] or None

    def block(rows, cols, masks):
        if masks is None:
            return GrassmannMatrix.zeros(rows, cols, order)
        return draw(blade_matrices(rows, cols, order, masks))

    return block(p, p, even), block(p, q, odd), block(q, p, odd), block(q, q, even)


def assert_matches(got, want, exact=False):
    """GrassmannMatrix ``got`` against a reference {mask: slice} dict."""
    want = {m: np.asarray(s) for m, s in want.items()}
    assert got.masks == tuple(sorted(got.masks))
    assert got.stack.shape == (len(got.masks), got.rows, got.cols)
    assert not got.stack.flags.writeable
    assert (np.abs(got.stack).max(axis=(1, 2), initial=0.0) > 0).all()
    if exact:
        assert set(got.masks) == {m for m, s in want.items() if s.any()}
    zero = np.zeros((got.rows, got.cols), dtype=complex)
    scale = max([1.0] + [float(np.abs(s).sum()) for s in want.values()])
    for mask in set(got.masks) | set(want):
        diff = np.abs(got.blades.get(mask, zero) - want.get(mask, zero))
        assert diff.max(initial=0.0) <= (0.0 if exact else TOL * scale), mask


def close(got, want):
    return (got - want).norm() <= TOL * max(1.0, want.norm())


# -- the sign table -------------------------------------------------------------------


def test_flip_sign_matches_reorder_sign_for_every_disjoint_pair():
    for order in range(9):
        flip = flip_table(order)
        assert len(flip) == 1 << order
        for a in range(1 << order):
            for b in range(1 << order):
                if a & b:
                    continue
                sign = -1 if (flip[a] & b).bit_count() & 1 else 1
                assert sign == reorder_sign(a, b), (order, a, b)


def test_flip_table_at_max_order():
    flip = flip_table(MAX_ORDER)
    assert len(flip) == 1 << MAX_ORDER
    rng = np.random.default_rng(0)
    for a in rng.integers(0, 1 << MAX_ORDER, size=200):
        a = int(a)
        b = int(rng.integers(0, 1 << MAX_ORDER)) & ~a
        assert (-1 if (flip[a] & b).bit_count() & 1 else 1) == reorder_sign(a, b)


# -- products against the references ----------------------------------------------------


@SETTINGS
@given(grassmann_pairs())
def test_grassmann_product_matches_reference(pair):
    a, b = pair
    assert close(a * b, reference_grassmann_product(a, b))


@SETTINGS
@given(series_inputs())
@example((0, 1.5 + 0j, {}, 0.5))
@example((4, -0.75 + 0.25j, {}, -1.5))
def test_number_series_match_reference(case):
    order, body, nilpotent, alpha = case
    x = GrassmannNumber(order, {0: body, **nilpotent})
    u = x.nilpotent()
    cases = [
        (x.exp(), reference_nilpotent_series(u, lambda k: 1.0 / math.factorial(k))
         * cmath.exp(body)),
        (x.log(), reference_nilpotent_series(
            u * (1.0 / body), lambda k: (-1.0) ** (k + 1) / k if k else cmath.log(body))),
        (x.inv(), reference_nilpotent_series(u * (-1.0 / body), lambda k: 1.0)
         * (1.0 / body)),
        (x.fpow(alpha), reference_nilpotent_series(
            u * (1.0 / body), lambda k: math.prod((alpha - j) / (j + 1) for j in range(k)))
         * body ** alpha),
    ]
    for got, want in cases:
        assert close(got, want)


@SETTINGS
@given(clifford_pairs())
def test_clifford_product_matches_reference(pair):
    x, y = pair
    want, over_cap = reference_clifford_product(x, y)
    got = x.multiply(y)
    assert got.cap == want.cap
    assert close(got, want)
    assert got.truncated == (x.truncated or y.truncated or bool(over_cap))
    if over_cap:
        with pytest.raises(CapExceededError,
                           match=f"product degree {over_cap} exceeds cap {want.cap}"):
            x.multiply(y, strict=True)
    else:
        assert close(x.multiply(y, strict=True), want)


@SETTINGS
@given(matrix_pairs())
def test_matrix_products_match_entrywise_reference(triple):
    a, b, g = triple
    product, scaled = a @ b, a.scale(g)
    for i in range(a.rows):
        for j in range(b.cols):
            want = GrassmannNumber.zero(a.order)
            for k in range(a.cols):
                want = want + reference_grassmann_product(a.entry(i, k), b.entry(k, j))
            assert close(product.entry(i, j), want)
        for j in range(a.cols):
            assert close(scaled.entry(i, j), reference_grassmann_product(g, a.entry(i, j)))


# -- the packed matrix storage against the dict references --------------------------


def check_products(a, b, g):
    assert_matches(a @ b, reference_matmul(a, b))
    assert_matches(a.scale(g), reference_scale(g, a))
    assert_matches(a.scale(-2.5), {m: -2.5 * s for m, s in a.blades.items()}, exact=True)


def check_elementwise(a, b):
    assert_matches(a + b, reference_add(a, b), exact=True)
    assert_matches(a - b, reference_add(a, b, -1.0), exact=True)
    assert_matches(a.transpose(), {m: s.T for m, s in a.blades.items()}, exact=True)
    for k in range(a.order + 2):
        want = {m: s for m, s in a.blades.items() if m.bit_count() == k}
        assert_matches(a.grade(k), want, exact=True)
    assert_matches(a.nilpotent_part(), {m: s for m, s in a.blades.items() if m}, exact=True)
    assert a.norm() == pytest.approx(sum(np.abs(s).sum() for s in a.blades.values()))
    for rows, cols in ((slice(0, 1), slice(1, None)), (slice(1, 3), slice(0, 2)),
                       (slice(0, 0), slice(None))):
        sub = a.submatrix(rows, cols)
        want = {m: s[rows, cols] for m, s in a.blades.items()}
        assert (sub.rows, sub.cols) == np.zeros((a.rows, a.cols))[rows, cols].shape
        assert_matches(sub, want, exact=True)
    assert a.entries() == reference_entries(a)
    grid = reference_entries(a)
    assert_matches(GrassmannMatrix.from_entries(grid, a.order),
                   reference_from_entries(grid, a.rows, a.cols), exact=True)


def check_super(x):
    assert_matches(x.supertranspose().mat, reference_supertranspose(x), exact=True)
    assert close(x.supertrace(), reference_supertrace(x))


def check_blocks(blocks):
    x = Supermatrix.from_blocks(*blocks)
    assert_matches(x.mat, reference_from_blocks(*blocks), exact=True)
    got = (x.block_a(), x.block_b(), x.block_c(), x.block_d())
    for block, want in zip(got, blocks):
        assert_matches(block, want.blades, exact=True)


@SETTINGS
@given(blade_products())
def test_matrix_kernel_matches_blade_dict_reference(triple):
    check_products(*triple)


@SETTINGS
@given(shaped_matrices())
def test_elementwise_ops_match_blade_dict_reference(pair):
    check_elementwise(*pair)


@SETTINGS
@given(square_supermatrices())
def test_supertranspose_and_supertrace_match_blade_dict_reference(x):
    check_super(x)


@SETTINGS
@given(parity_blocks())
def test_from_blocks_matches_blade_dict_reference(blocks):
    check_blocks(blocks)


def _dense(rng, rows, cols, order, masks=None):
    masks = range(1 << order) if masks is None else masks
    return GrassmannMatrix(rows, cols, order, {
        m: rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        for m in masks})


@pytest.mark.parametrize("order", [0, 1])
@pytest.mark.parametrize("p, q", [(0, 2), (2, 0), (0, 0), (1, 1)])
def test_edge_shapes_match_blade_dict_reference(order, p, q):
    """0 x k and k x 0 matrices, p = 0, q = 0 and N in {0, 1}, every op."""
    rng = np.random.default_rng(17 * order + 5 * p + q)
    g = GrassmannNumber(order, {m: complex(rng.normal()) for m in range(1 << order)})
    for rows, inner, cols in ((0, 2, 3), (2, 0, 3), (3, 2, 0), (p, q, p + q)):
        a, b = _dense(rng, rows, inner, order), _dense(rng, inner, cols, order)
        check_products(a, b, g)
        check_elementwise(a, _dense(rng, rows, inner, order))
    check_super(Supermatrix(p, q, _dense(rng, p + q, p + q, order), validate=False))
    even = [m for m in range(1 << order) if m.bit_count() % 2 == 0]
    odd = [m for m in range(1 << order) if m.bit_count() % 2 == 1]
    check_blocks((_dense(rng, p, p, order, even), _dense(rng, p, q, order, odd),
                  _dense(rng, q, p, order, odd), _dense(rng, q, q, order, even)))


def test_construction_drops_zero_slices_and_rejects_bad_stacks():
    slices = {3: np.zeros((2, 2)), 1: np.eye(2), 0: np.ones((2, 2))}
    a = GrassmannMatrix(2, 2, 2, slices)
    assert a.masks == (0, 1)
    with pytest.raises(ValueError):
        a.stack[0, 0, 0] = 5.0
    with pytest.raises(TypeError):
        a.blades[2] = np.eye(2)
    with pytest.raises(ShapeMismatchError):
        GrassmannMatrix(2, 2, 2, {0: np.eye(3)})
    with pytest.raises(ShapeMismatchError):
        GrassmannMatrix(2, 2, 2, masks=(0, 1), stack=np.ones((1, 2, 2)))
    with pytest.raises(AlgebraError):
        GrassmannMatrix(2, 2, 2, masks=(0,), stack=np.full((1, 2, 2), np.inf))
    # Masks given with a stack must be strictly ascending and below 2^order.
    for masks in ((1, 0), (1, 1), (0, 4), (-1, 0)):
        with pytest.raises(AlgebraError, match="ascending"):
            GrassmannMatrix(2, 2, 2, masks=masks, stack=np.ones((2, 2, 2)))
    with pytest.raises(AlgebraError, match="ascending"):
        GrassmannMatrix(2, 2, 2, {4: np.eye(2)})
    empty = GrassmannMatrix(0, 3, 1, {0: np.zeros((0, 3))})
    assert empty.masks == () and empty.stack.shape == (0, 0, 3)


# -- body-only operands against the plan route -----------------------------------------


def plan_route_product(op, masks_a, a_stack, masks_b, b_stack):
    """The kernel's plan route, which every product took before body-only
    operands skipped it: gather every disjoint pair, multiply by its reorder
    sign and sum each product mask's group with reduceat."""
    ma, mb = np.asarray(masks_a, dtype=np.int64), np.asarray(masks_b, dtype=np.int64)
    ia, ib = np.nonzero((ma[:, None] & mb[None, :]) == 0)
    keys = ma[ia] | mb[ib]
    by_key = np.argsort(keys, kind="stable")
    ia, ib, keys = ia[by_key], ib[by_key], keys[by_key]
    sign = np.array([reorder_sign(int(a), int(b)) for a, b in zip(ma[ia], mb[ib])],
                    dtype=float)
    terms = op(a_stack[ia], b_stack[ib])
    terms *= sign[:, None, None]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    return tuple(keys[starts].tolist()), np.add.reduceat(terms, starts, axis=0)


def assert_bitwise(got, want):
    (got_masks, got_stack), (want_masks, want_stack) = got, want
    assert got_masks == want_masks
    assert got_stack.shape == want_stack.shape and got_stack.dtype == want_stack.dtype
    assert np.array_equal(got_stack, want_stack)
    for part in ("real", "imag"):
        assert np.array_equal(np.signbit(getattr(got_stack, part)),
                              np.signbit(getattr(want_stack, part)))


ENTRIES = st.one_of(coefficients, st.sampled_from(
    [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), complex(-1.5, -0.0)]))


@st.composite
def body_operand_products(draw):
    """(op, masks_a, a_stack, masks_b, b_stack, order, shape) with a body-only
    operand on the left, the right or both sides; slices may have a zero
    dimension (p = 0 or q = 0) and the body carries a -0.0 entry when it has
    any entries."""
    op = draw(st.sampled_from([np.matmul, np.multiply]))
    order = draw(st.sampled_from(ORDERS))
    side = draw(st.sampled_from(["left", "right", "both"]))
    rows, inner, cols = (draw(st.integers(0, 3)) for _ in range(3))
    if op is np.matmul:
        a_shape, b_shape = (rows, inner), (inner, cols)
    else:
        a_shape, b_shape = draw(st.sampled_from([((1, 1), (rows, cols)),
                                                 ((rows, cols), (1, 1))]))

    def operand(body_only, slice_shape):
        masks = (0,) if body_only else tuple(sorted(draw(st.sets(
            st.integers(0, (1 << order) - 1), min_size=1, max_size=6))))
        size = len(masks) * slice_shape[0] * slice_shape[1]
        values = draw(st.lists(ENTRIES, min_size=size, max_size=size))
        stack = np.array(values, dtype=complex).reshape(len(masks), *slice_shape)
        if body_only and stack.size:
            stack[0].flat[draw(st.integers(0, stack[0].size - 1))] = complex(-0.0, 0.0)
        if draw(st.booleans()):
            # the same values through a non-contiguous view, as ``inner`` passes
            stack = np.ascontiguousarray(stack.transpose(0, 2, 1)).transpose(0, 2, 1)
        return masks, stack

    a = operand(side != "right", a_shape)
    b = operand(side != "left", b_shape)
    shape = (a_shape[0], b_shape[1]) if op is np.matmul else (rows, cols)
    return op, *a, *b, order, shape


@settings(max_examples=300)
@given(body_operand_products())
@example((np.multiply, (0,), np.array([[[complex(-0.0, 0.0)]]]), (0, 3),
          np.array([[[2.0 + 1j]], [[-0.0 - 0.0j]]]), 2, (1, 1)))
def test_body_only_operands_match_the_plan_route_bit_for_bit(case):
    op, masks_a, a_stack, masks_b, b_stack, order, shape = case
    assert_bitwise(grassmann._blade_product(op, masks_a, a_stack, masks_b, b_stack, order,
                                            shape),
                   plan_route_product(op, masks_a, a_stack, masks_b, b_stack))


def test_body_only_operand_skips_plans_and_tiles(monkeypatch):
    """Under a budget where the plan route cuts a dense order-4 product into
    tiles of one pair, a body-only operand builds no plan and still matches
    the untiled plan route bit for bit."""
    rng = np.random.default_rng(41)
    body = rng.normal(size=(1, 3, 3)) + 1j * rng.normal(size=(1, 3, 3))
    body[0, 1, 2] = complex(-0.0, 0.0)
    dense = rng.normal(size=(16, 3, 3)) + 1j * rng.normal(size=(16, 3, 3))
    masks = tuple(range(16))
    plans = []
    monkeypatch.setattr(grassmann, "_TILE_ELEMENTS", 4)
    for name in ("_build_plan", "_cached_plan"):
        monkeypatch.setattr(grassmann, name, lambda *args: plans.append(args))
    for args in (((0,), body, masks, dense), (masks, dense, (0,), body)):
        assert_bitwise(grassmann._blade_product(np.matmul, *args, 4, (3, 3)),
                       plan_route_product(np.matmul, *args))
    assert plans == []


# -- bounded memory at MAX_ORDER -------------------------------------------------------


def _sparse_matrix(rng, rows, cols, count):
    """An order-16 matrix on ``count`` blades of two to four generators."""
    blades = {}
    while len(blades) < count:
        bits = rng.choice(MAX_ORDER, size=int(rng.integers(2, 5)), replace=False)
        blades[int(sum(1 << int(b) for b in bits))] = (
            rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols)))
    return GrassmannMatrix(rows, cols, MAX_ORDER, blades)


@pytest.mark.parametrize("budget", [None, 64])
def test_sparse_products_at_max_order_match_reference(monkeypatch, budget):
    rng = np.random.default_rng(16)
    a, b = _sparse_matrix(rng, 3, 2, 40), _sparse_matrix(rng, 2, 3, 36)
    g = GrassmannNumber(MAX_ORDER, {m: complex(rng.normal()) for m in b.masks[:30]})
    h = _sparse_number(rng, 40)
    grids = []
    build = grassmann._build_plan

    def recording_build(masks_a, masks_b, order):
        grids.append(len(masks_a) * len(masks_b))
        return build(masks_a, masks_b, order)

    monkeypatch.setattr(grassmann, "_build_plan", recording_build)
    if budget is not None:
        monkeypatch.setattr(grassmann, "_TILE_ELEMENTS", budget)
    # (result, reference, entries of the largest slice a pair touches)
    cases = [(lambda: a @ b, reference_matmul(a, b), 9),
             (lambda: a.scale(g), reference_scale(g, a), 6),
             (lambda: GrassmannMatrix.from_entries([[g * h]]),
              {m: [[c]] for m, c in reference_grassmann_product(g, h).terms.items()}, 1)]
    for product, want, per_pair in cases:
        grids.clear()
        assert_matches(product(), want)
        if budget is not None:
            # Each tile's candidate pairs times the slice size fit the budget.
            assert len(grids) > 10
            assert max(grids) * per_pair <= budget


def _sparse_number(rng, count):
    """An order-16 number on ``count`` blades of one to three generators."""
    terms = {}
    while len(terms) < count:
        bits = rng.choice(MAX_ORDER, size=int(rng.integers(1, 4)), replace=False)
        terms[int(sum(1 << int(b) for b in bits))] = complex(rng.normal(), rng.normal())
    return GrassmannNumber(MAX_ORDER, terms)


@pytest.mark.parametrize("budget", [None, 64])
def test_sparse_clifford_product_at_max_order_matches_reference(monkeypatch, budget):
    rng = np.random.default_rng(17)
    keys = [(e, alpha) for e in range(4) for alpha in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0))]

    def element(count):
        picked = rng.choice(len(keys), size=count, replace=False)
        return CliffordElement(2, 1, MAX_ORDER, 2,
                               {keys[k]: _sparse_number(rng, 12) for k in picked})

    x, y = element(8), element(6)
    want, over_cap = reference_clifford_product(x, y)
    assert over_cap
    rows = []
    matmul = GrassmannMatrix.__matmul__

    def recording_matmul(a, b):
        rows.append(a.rows)
        return matmul(a, b)

    monkeypatch.setattr(GrassmannMatrix, "__matmul__", recording_matmul)
    if budget is not None:
        monkeypatch.setattr(grassmann, "_TILE_ELEMENTS", budget)
    got = x.multiply(y)
    assert close(got, want)
    assert got.truncated
    # One product of all left keys, or one per left key under a tiny budget.
    assert rows == ([8] if budget is None else [1] * 8)
    with pytest.raises(CapExceededError, match=f"product degree {over_cap} exceeds cap 2"):
        x.multiply(y, strict=True)
