"""The oscillator elements, the supersphere test and the parity check read
straight off arrays, bit for bit against the per-entry routes they replaced.

``oscillator_exp`` and ``oscillator_power`` build their element once from
the summed body values, where each coefficient went through
``GrassmannNumber.scalar`` and the element through the checking
constructor.  ``Supervector.on_supersphere`` reads the raw stack of <w, w>,
where it composed -<w, w> + 1 out of numbers.  ``validate_parity`` takes
one weighted maximum, where it took four block maxima per blade.  Those
routes are written out below; the results must agree in every key, mask,
coefficient bit, flag and message.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superspin import (
    AlgebraError,
    CliffordElement,
    GrassmannMatrix,
    GrassmannNumber,
    OrderMismatchError,
    ParityError,
    ShapeMismatchError,
    Supermatrix,
    Supervector,
    inner,
    oscillator_exp,
    oscillator_power,
    random_sphere_vector,
    random_supervector,
    spin,
)
from superspin.grassmann import CANON_EPS
from superspin.spin import _ladder_table


# -- the replaced routes ------------------------------------------------------------


def per_term_ladder_sum(weights, factor, plane, m, n, order, cap, one=0.0):
    sums = {(0, (0,) * (2 * n)): one}
    for weight, terms in zip(weights, _ladder_table(n, plane, cap)):
        for key, value in terms:
            sums[key] = sums.get(key, 0.0) + value * weight
    return CliffordElement(m, n, order, cap, {
        key: GrassmannNumber.scalar(order, value * factor) for key, value in sums.items()})


def composed_on_supersphere(w, tol=1e-9, nil_tol=1e-12):
    dev = -inner(w, w) + 1.0
    return dev.nilpotent().norm() <= nil_tol and abs(dev.body) <= tol


def per_block_parity(mat, tol=CANON_EPS):
    p, masks, s = mat.p, mat.mat.masks, mat.mat.stack

    def largest(x, y):
        return np.maximum(np.abs(x).max(axis=(1, 2), initial=0.0),
                          np.abs(y).max(axis=(1, 2), initial=0.0))

    even = np.array([m.bit_count() % 2 == 0 for m in masks], dtype=bool)
    bad = np.where(even, largest(s[:, :p, p:], s[:, p:, :p]),
                   largest(s[:, :p, :p], s[:, p:, p:]))
    offending = np.flatnonzero(bad > tol)
    if offending.size:
        k = offending[0]
        raise ParityError(
            f"entries of blade mask {masks[k]} violate the parity pattern "
            f"(max offending modulus {bad[k]:.3e})"
        )


def bits(values):
    return np.array(list(values), dtype=complex).view(np.uint64).tolist()


def assert_same_element(got, want):
    assert (got.m, got.n, got.order, got.cap, got.truncated) == \
        (want.m, want.n, want.order, want.cap, want.truncated)
    assert list(got.terms) == list(want.terms)
    for key, coeff in want.terms.items():
        assert got.terms[key].order == coeff.order
        assert list(got.terms[key].terms) == list(coeff.terms)
        assert bits(got.terms[key].terms.values()) == bits(coeff.terms.values())


# -- oscillator elements --------------------------------------------------------------


THETAS = [k * math.pi + offset for k in range(-3, 4) for offset in (0.0, 1e-13, -1e-13)]
THETAS += [1.3, 0.7, 2.9, -2.1, -0.4, 1e-300, -1e-300, 1e-7]


@pytest.mark.parametrize("cap", [2, 8, 10])
@pytest.mark.parametrize("m, n, order", [(0, 1, 0), (4, 2, 4), (2, 3, 1)])
def test_oscillator_elements_match_the_per_term_build(m, n, order, cap):
    for plane in range(1, n + 1):
        for theta in THETAS:
            got = oscillator_exp(theta, plane, m, n, order, cap)
            with mock.patch.object(spin, "_ladder_sum", per_term_ladder_sum):
                want = oscillator_exp(theta, plane, m, n, order, cap)
            assert got.truncation_bound == want.truncation_bound
            assert_same_element(got.element, want.element)
        for k in range(1, cap // 2 + 1):
            got = oscillator_power(k, plane, m, n, order, cap)
            with mock.patch.object(spin, "_ladder_sum", per_term_ladder_sum):
                want = oscillator_power(k, plane, m, n, order, cap)
            assert_same_element(got, want)


def test_an_oscillator_power_checks_the_signature():
    with pytest.raises(OrderMismatchError):
        oscillator_power(1, 1, 2, 1, 99)
    with pytest.raises(ShapeMismatchError):
        oscillator_power(1, 1, -1, 1, 2)


# -- the supersphere test -------------------------------------------------------------


def scaled(w, factor):
    return Supervector.from_column(w.m, w.n, w.mat.with_stack(w.mat.masks, w.mat.stack * factor))


@pytest.mark.parametrize("m, n, order", [(3, 1, 4), (4, 2, 4), (1, 0, 0), (2, 1, 2),
                                         (1, 2, 3)])
def test_the_supersphere_test_matches_the_number_composition(m, n, order):
    """Sphere points, scaled, and generic vectors, whose <w, w> has a
    nilpotent part, at the default tolerances and at both sides of each
    point's own deviations."""
    for seed in range(6):
        points = [random_sphere_vector(m, n, order, seed=seed),
                  random_supervector(m, n, order, seed=seed, scale=0.3)]
        for w in (scaled(point, factor) for point in points
                  for factor in (1.0, 1 + 1e-11, 1 + 1e-9, 0.5, -1.0, 1j, 0.6 - 0.8j)):
            dev = -inner(w, w) + 1.0
            norm, body = dev.nilpotent().norm(), abs(dev.body)
            tols = [(1e-9, 1e-12), (0.0, 0.0), (body, norm),
                    (np.nextafter(body, -1.0), norm), (body, np.nextafter(norm, -1.0))]
            for tol, nil_tol in tols:
                assert w.on_supersphere(tol, nil_tol) == \
                    composed_on_supersphere(w, tol, nil_tol)
            assert w.on_supersphere() == composed_on_supersphere(w)
    assert random_sphere_vector(m, n, order, seed=0).on_supersphere()


def test_a_supersphere_test_that_overflows_raises_without_a_warning():
    w = random_sphere_vector(3, 1, 4, seed=2)
    for value in (1.7e308, -1.7e308, 1e200):
        stack = w.mat.stack.copy()
        stack[0, 0, 0] = value
        huge = Supervector.from_column(3, 1, w.mat.with_stack(w.mat.masks, stack))
        with pytest.raises(AlgebraError, match="non-finite coefficient"):
            huge.on_supersphere()
        with pytest.raises(AlgebraError, match="non-finite coefficient"):
            composed_on_supersphere(huge)


# -- the parity check -----------------------------------------------------------------


ENTRIES = [0.0, -0.0, 1e-15, -2e-14, 1e-14, 0.3, -1.7]


@st.composite
def supermatrices(draw):
    p, q, order = draw(st.integers(0, 3)), draw(st.integers(0, 3)), draw(st.integers(0, 3))
    size = p + q
    masks = draw(st.lists(st.integers(0, (1 << order) - 1), unique=True, max_size=4))
    shape = (len(masks), size, size)
    real = np.array(draw(st.lists(st.sampled_from(ENTRIES), min_size=math.prod(shape),
                                  max_size=math.prod(shape)))).reshape(shape)
    stack = real
    if draw(st.booleans()):
        imag = draw(st.lists(st.sampled_from(ENTRIES), min_size=math.prod(shape),
                             max_size=math.prod(shape)))
        stack = real + 1j * np.array(imag).reshape(shape)
    mat = GrassmannMatrix(size, size, order, masks=sorted(masks), stack=stack[np.argsort(masks)])
    return Supermatrix(p, q, mat, validate=False)


def parity_outcome(check, mat, tol):
    try:
        check(mat, tol)
    except ParityError as exc:
        return str(exc)
    return None


@settings(max_examples=300)
@given(mat=supermatrices(), tol=st.sampled_from([CANON_EPS, 0.0, 0.3, 2e-14]))
def test_the_parity_check_raises_as_the_per_block_check(mat, tol):
    assert parity_outcome(Supermatrix.validate_parity, mat, tol) == \
        parity_outcome(per_block_parity, mat, tol)


@pytest.mark.parametrize("p, q", [(0, 0), (0, 2), (3, 0), (2, 2)])
def test_the_parity_check_on_edge_shapes(p, q):
    empty = Supermatrix(p, q, GrassmannMatrix.zeros(p + q, p + q, 2), validate=False)
    empty.validate_parity()
    if p and q:
        stack = np.zeros((2, p + q, p + q), dtype=complex)
        stack[1, 0, p] = 0.5j
        mat = Supermatrix(p, q, GrassmannMatrix(p + q, p + q, 2, masks=(1, 3), stack=stack),
                          validate=False)
        assert parity_outcome(Supermatrix.validate_parity, mat, CANON_EPS) == \
            parity_outcome(per_block_parity, mat, CANON_EPS) == \
            "entries of blade mask 3 violate the parity pattern (max offending modulus 5.000e-01)"
