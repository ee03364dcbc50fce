"""The flip-table Grassmann product kernel against pairwise reference products.

The reference products below are the blade-pair loops the library used
before the kernel: every sign comes from ``reorder_sign``, every coefficient
product is a fresh GrassmannNumber, and the Clifford product adds whole
GrassmannNumbers term by term.  They live here only, as oracles.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superspin import CapExceededError, CliffordElement, GrassmannMatrix, GrassmannNumber
from superspin.clifford import _blade_mul, _plane_reorder
from superspin.grassmann import MAX_ORDER, flip_table, reorder_sign

TOL = 1e-12
ORDERS = (0, 1, 4)

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


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


def reference_clifford_product(x, y):
    """(product with over-cap terms dropped, whether any term was over the cap)."""
    cap = max(x.cap, y.cap)
    out = {}
    over_cap = False
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
                    over_cap = True
                    continue
                key = (emask, alpha)
                term = coeff * weight
                out[key] = out[key] + term if key in out else term
    return CliffordElement(x.m, x.n, x.order, cap, out), over_cap


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
    order = draw(st.sampled_from(ORDERS))
    return draw(grassmann_numbers(order)), draw(grassmann_numbers(order))


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
@given(clifford_pairs())
def test_clifford_product_matches_reference(pair):
    x, y = pair
    want, over_cap = reference_clifford_product(x, y)
    got = x.multiply(y)
    assert got.cap == want.cap
    assert close(got, want)
    assert got.truncated == (x.truncated or y.truncated or over_cap)
    if over_cap:
        with pytest.raises(CapExceededError):
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
