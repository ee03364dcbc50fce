"""Clifford-layer results built once from raw blade stacks, bit for bit
against the compositions they replaced.

``reflect``, ``wedge``, the vector actions, ``reflection_matrix``, phi^-1,
the compact/symmetric split and the arithmetic of both vector classes build
one GrassmannMatrix from the raw (masks, stack) of their last step.  Before,
each went through intermediate matrices and numbers: a checked matrix per
step, and a two-step adopt that canonicalised an already built matrix and
rebuilt it when that changed a value.  Those compositions are written out
below.  The results must agree in their masks, their dtypes and the bytes
of their stacks, so a signed zero counts: a -0.0 part survives
canonicalisation unless some entry of the same result is tiny.  Both stack
dtypes are covered: real inputs give float64 stacks, and complex inputs
(nonzero or -0.0 imaginary parts) complex128 ones.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superspin import (
    AlgebraError,
    ExtendedSuperbivector,
    GrassmannMatrix,
    GrassmannNumber,
    MembershipError,
    ParityError,
    Supermatrix,
    Supervector,
    apply_matrix,
    bivector_to_matrix,
    commutator_action,
    inner,
    matrix_to_bivector,
    random_so0,
    random_sphere_vector,
    random_supervector,
    reflect,
    reflection_matrix,
    split_bivector,
    wedge,
)
from superspin.clifford import (
    _layout,
    _mirrored,
    _reflection_form,
    _reflection_form_inverse,
)
from superspin.grassmann import CANON_EPS, _blade_product, _drop_zero_slices, _union_add
from superspin.orthosymplectic import _residuals
from superspin.supermatrix import _q_gram_body, symplectic_form

SHAPES = [(0, 1, 0), (3, 0, 1), (2, 1, 4), (4, 2, 4)]

# Scale factors: -1.0 turns every zero part into -0.0, 1e-15 makes every
# entry tiny, 0.0 every slice zero.
FACTORS = [0.5, -1.0, 1e-15, 0.0, -0.0, 2.5 - 1.5j]


# -- the replaced compositions ---------------------------------------------------


def old_drop_tiny(values, eps=CANON_EPS):
    return np.where((np.abs(values.real) < eps) & (np.abs(values.imag) < eps), 0.0, values)


def old_vector(m, n, col):
    """The two-step adopt: keep ``col`` unless canonicalising it changes a
    value, then rebuild it from the canonical stack."""
    clean = old_drop_tiny(col.stack)
    vec = object.__new__(Supervector)
    vec.m, vec.n = m, n
    vec.mat = col if (clean == col.stack).all() else col.with_stack(col.masks, clean)
    return vec


def old_bivector(m, n, mat):
    clean = old_drop_tiny(mat.stack, _layout(m, n).canon)
    biv = object.__new__(ExtendedSuperbivector)
    biv.m, biv.n = m, n
    biv.mat = mat if (clean == mat.stack).all() else mat.with_stack(mat.masks, clean)
    return biv


def old_scale(x, factor):
    if isinstance(factor, GrassmannNumber) and not factor.is_even():
        raise ParityError("scaling factor must be even")
    if isinstance(x, Supervector):
        return old_vector(x.m, x.n, x.mat.scale(factor))
    return old_bivector(x.m, x.n, x.mat.scale(factor))


def old_sum(x, y, sign):
    if isinstance(x, Supervector):
        return old_vector(x.m, x.n, x.mat + y.mat if sign > 0 else x.mat - y.mat)
    return old_bivector(x.m, x.n, x.mat + y.mat if sign > 0 else x.mat - y.mat)


def old_reflect(w, x):
    if not w.on_supersphere():
        raise MembershipError("reflection axis must satisfy w^2 = -1")
    return old_sum(x, old_scale(w, inner(x, w) * 2.0), -1)


def old_wedge(x, y):
    m, size = x.m, x.mat.rows
    outer = x.mat @ y.mat.transpose()
    flipped = outer.stack.transpose(0, 2, 1)
    stack = outer.stack - flipped
    stack[:, m:, m:] = outer.stack[:, m:, m:] + flipped[:, m:, m:]
    stack[:, range(m, size), range(m, size)] *= 2.0
    return old_bivector(m, x.n, outer.with_stack(outer.masks, stack))


def old_apply_matrix(mat, x):
    return old_vector(x.m, x.n, mat.mat @ x.mat)


def old_reflection_matrix(w):
    outer = w.mat @ w.mat.transpose()
    kick = outer.with_stack(outer.masks, outer.stack @ _reflection_form(w.m, w.n))
    return Supermatrix(w.m, 2 * w.n, GrassmannMatrix.eye(w.mat.rows, w.order) + kick,
                       validate=False)


def old_matrix_to_bivector(x):
    m, n = x.p, x.q // 2
    layout = _layout(m, n)
    product = x.mat.stack @ _reflection_form_inverse(m, n)
    return old_bivector(m, n, x.mat.with_stack(
        x.mat.masks, _mirrored(layout, x.size, product[:, layout.rows, layout.cols])))


def old_split_bivector(biv):
    m, omega, mat = biv.m, symplectic_form(biv.n), biv.mat
    compact = mat.body()
    d = compact[m:, m:].copy()
    turned = omega @ d @ omega
    compact[m:, m:] = (d - turned) / 2
    symmetric = np.zeros_like(compact)
    symmetric[m:, m:] = (d + turned) / 2
    return tuple(old_bivector(m, biv.n, part) for part in (
        GrassmannMatrix.from_body(compact, biv.order),
        GrassmannMatrix.from_body(symmetric, biv.order), mat.nilpotent_part()))


def old_residual_sums(mat, group):
    """(norm, block residual) of the membership expression, every block's
    moduli taken apart."""
    p, x, gram = mat.p, mat.mat, _q_gram_body(mat.p, mat.q // 2)
    left = x.stack.transpose(0, 2, 1) @ gram
    left[:, p:, :p] *= -1.0
    if group:
        masks, stack = _union_add(*_blade_product(
            np.matmul, x.masks, left, x.masks, x.stack, mat.order, gram.shape),
            (0,), -gram[None])
    else:
        masks, stack = x.masks, left + gram @ x.stack
    total, a, b, d = (float(np.abs(_drop_zero_slices(masks, part)[1]).sum()) for part in (
        stack, stack[:, :p, :p], stack[:, :p, p:], stack[:, p:, p:]))
    return total, max(a, b, d if group else 2.0 * d)


# -- inputs --------------------------------------------------------------------------


def signed_zeros(x, rng):
    """``x`` on a complex stack with a random half of its zero parts turned
    to -0.0: a canonical column, held as it is (complex, as some imaginary
    part is -0.0)."""
    stack = x.mat.stack.astype(complex)
    flat = stack.reshape(-1)
    for part in (flat.real, flat.imag):
        zero = np.flatnonzero(part == 0.0)
        part[rng.choice(zero, size=len(zero) // 2, replace=False)] = -0.0
    return Supervector.from_column(x.m, x.n, x.mat.with_stack(x.mat.masks, stack))


COMPLEX = 0.6 - 0.8j


def vectors(m, n, order, seed, kind):
    """Two supervectors of the given kind: random and real (float64
    stacks), random and complex (one real, one complex), carrying -0.0
    parts (complex), or the zero vector (no blades) paired with a random
    one."""
    x = random_supervector(m, n, order, seed=seed)
    y = random_supervector(m, n, order, seed=seed + 1)
    assert x.mat.stack.dtype == y.mat.stack.dtype == np.float64
    if kind == "signed-zero":
        rng = np.random.default_rng(seed)
        return signed_zeros(x, rng), signed_zeros(y.scale(-1.0), rng)
    if kind == "complex":
        return x, y.scale(COMPLEX)
    if kind == "zero":
        return Supervector.zero(m, n, order), y
    return x, y


def algebra_element(m, n, order, seed, kind):
    """A random element of so_0, made complex for the complex kind."""
    phi = random_so0(m, n, order, seed=seed)
    return phi.scale(COMPLEX) if kind == "complex" else phi


def same_bits(got, want):
    """Equal masks (plain ints) and equal stack bytes."""
    assert all(type(mask) is int for mask in got.masks)
    assert got.masks == want.masks
    assert got.stack.dtype == want.stack.dtype
    assert got.stack.shape == want.stack.shape
    assert got.stack.tobytes() == want.stack.tobytes()


def outcome(function, *args):
    """The result, or the type of the exception raised."""
    try:
        return function(*args)
    except (AlgebraError, ParityError, MembershipError) as exc:
        return type(exc)


def same_outcome(got, want):
    if isinstance(want, type):
        assert got is want
    else:
        same_bits(got.mat, want.mat)


CASES = st.tuples(st.sampled_from(SHAPES), st.integers(0, 10 ** 6),
                  st.sampled_from(["real", "complex", "signed-zero", "zero"]))


# -- properties ------------------------------------------------------------------------


@settings(max_examples=40)
@given(case=CASES, factor=st.sampled_from(FACTORS))
def test_vector_arithmetic_is_bit_identical(case, factor):
    (m, n, order), seed, kind = case
    x, y = vectors(m, n, order, seed, kind)
    same_outcome(x + y, old_sum(x, y, 1))
    same_outcome(x - y, old_sum(x, y, -1))
    same_outcome(x - x, old_sum(x, x, -1))
    same_outcome(x.scale(factor), old_scale(x, factor))
    same_outcome(outcome(x.scale, inner(x, y)), outcome(old_scale, x, inner(x, y)))
    same_outcome(-y, old_scale(y, -1.0))


@settings(max_examples=40)
@given(case=CASES)
def test_vector_products_are_bit_identical(case):
    (m, n, order), seed, kind = case
    x, y = vectors(m, n, order, seed, kind)
    biv = matrix_to_bivector(algebra_element(m, n, order, seed + 2, kind))
    mat = bivector_to_matrix(biv)
    same_outcome(wedge(x, y), old_wedge(x, y))
    same_outcome(wedge(y, x.scale(1e-15)), old_wedge(y, x.scale(1e-15)))
    same_outcome(apply_matrix(mat, x), old_apply_matrix(mat, x))
    same_outcome(commutator_action(biv, y), apply_matrix(mat, y))


@settings(max_examples=40)
@given(case=CASES, factor=st.sampled_from(FACTORS))
def test_bivector_results_are_bit_identical(case, factor):
    (m, n, order), seed, kind = case
    x, y = vectors(m, n, order, seed, kind)
    phi = algebra_element(m, n, order, seed + 2, kind)
    biv, other = matrix_to_bivector(phi), wedge(x, y)
    same_outcome(biv, old_matrix_to_bivector(phi))
    same_outcome(matrix_to_bivector(phi.scale(-1.0)), old_matrix_to_bivector(phi.scale(-1.0)))
    same_outcome(biv + other, old_sum(biv, other, 1))
    same_outcome(biv - other, old_sum(biv, other, -1))
    same_outcome(biv - biv, old_sum(biv, biv, -1))
    same_outcome(biv.scale(factor), old_scale(biv, factor))
    same_outcome(outcome(biv.scale, inner(x, y)), outcome(old_scale, biv, inner(x, y)))
    split = split_bivector(biv.scale(factor))
    for got, want in zip((split.compact, split.symmetric, split.nilpotent),
                         old_split_bivector(biv.scale(factor))):
        same_outcome(got, want)
    zero = Supermatrix.zeros(m, 2 * n, order)
    for group, mat in ((False, phi), (True, bivector_to_matrix(other)), (False, zero),
                       (True, zero)):
        assert _residuals(mat, _q_gram_body(m, n), group)[:2] == old_residual_sums(mat, group)


@settings(max_examples=40)
@given(case=CASES)
def test_reflections_are_bit_identical(case):
    (m, n, order), seed, kind = case
    if not m:
        return  # no supersphere point: w^2 = -1 needs a bosonic body
    x, y = vectors(m, n, order, seed, kind)
    w = random_sphere_vector(m, n, order, seed=seed + 3)
    rng = np.random.default_rng(seed)
    if kind == "signed-zero":
        w = signed_zeros(w, rng)
    # <x, w> of order 1e-13, so w scaled by 2<x, w> has tiny entries
    near = signed_zeros(y - w.scale(inner(y, w)) + w.scale(1e-13), rng)
    same_outcome(reflect(w, near), old_reflect(w, near))
    same_outcome(reflect(w, x), old_reflect(w, x))
    same_outcome(reflect(w, reflect(w, y)), old_reflect(w, old_reflect(w, y)))
    same_outcome(reflect(w, w), old_reflect(w, w))
    same_outcome(outcome(reflect, x, y), outcome(old_reflect, x, y))
    same_bits(reflection_matrix(w).mat, old_reflection_matrix(w).mat)


def test_the_zero_vector_has_no_blades_and_reflects_to_itself():
    w = random_sphere_vector(2, 1, 4, seed=5)
    zero = Supervector.zero(2, 1, 4)
    assert zero.mat.masks == () and zero.mat.stack.shape == (0, 4, 1)
    same_bits(reflect(w, zero).mat, zero.mat)
    same_bits(wedge(zero, w).mat, ExtendedSuperbivector.zero(2, 1, 4).mat)


def test_a_result_without_tiny_entries_keeps_its_signed_zeros():
    """On a real stack (the -0.0 real parts of scaling by -1.0) and on a
    complex one (scaling by -1 + 0j also gives -0.0 imaginary parts, so the
    stack stays complex)."""
    def zero_parts(vec):
        stack = vec.mat.stack
        parts = np.concatenate([stack.real.ravel(), stack.imag.ravel()])
        return parts[parts == 0.0]

    for factor, dtype in ((-1.0, np.float64), (complex(-1.0, 0.0), np.complex128)):
        x = random_supervector(2, 1, 4, seed=8).scale(factor)
        assert x.mat.stack.dtype == dtype
        assert np.signbit(zero_parts(x)).any()
        assert not np.signbit(zero_parts(x.scale(1e-15))).any()


def test_an_overflowing_reflection_coefficient_is_an_algebra_error():
    """<x, w> is finite but 2<x, w> is not: AlgebraError, without a numpy
    warning (the suite raises RuntimeWarning)."""
    w = random_sphere_vector(2, 1, 2, seed=4)
    huge = np.zeros((1, 4, 1), dtype=complex)
    huge[0, np.argmax(np.abs(w.body_vector())), 0] = 1.7e308
    x = Supervector.from_column(2, 1, GrassmannMatrix(4, 1, 2, masks=(0,), stack=huge))
    assert np.isfinite(inner(x, w).body)
    with pytest.raises(AlgebraError, match="non-finite coefficient"):
        reflect(w, x)
