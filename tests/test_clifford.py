"""Clifford-Weyl engine: normal ordering, supervectors, superbivectors,
the commutator-action isomorphism and supervector reflections."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superspin import (
    AlgebraError,
    CapExceededError,
    CliffordElement,
    ExtendedSuperbivector,
    GrassmannMatrix,
    GrassmannNumber,
    MembershipError,
    OrderMismatchError,
    ParityError,
    ShapeMismatchError,
    Supervector,
    apply_matrix,
    bivector_to_matrix,
    check_o0,
    commutator_action,
    inner,
    matrix_to_bivector,
    random_grassmann,
    random_rotation,
    random_sphere_vector,
    random_supervector,
    reflect,
    reflection_matrix,
    wedge,
)
from superspin.grassmann import CANON_EPS, _blade_product

M_DIM, N_PLANES, ORDER = 2, 1, 2


def elem_e(j, m=M_DIM, n=N_PLANES, order=ORDER, cap=8):
    return CliffordElement.basis_e(m, n, order, j, cap)


def elem_ep(u, m=M_DIM, n=N_PLANES, order=ORDER, cap=8):
    return CliffordElement.basis_eprime(m, n, order, u, cap)


def rand_bivector(seed, m=M_DIM, n=N_PLANES, order=ORDER, scale=0.5):
    rng = np.random.default_rng(seed)
    b = {(j, k): random_grassmann(rng, order, parity="even", scale=scale)
         for j in range(1, m + 1) for k in range(j + 1, m + 1)}
    bq = {(j, u): random_grassmann(rng, order, parity="odd", scale=scale)
          for j in range(1, m + 1) for u in range(1, 2 * n + 1)}
    bb = {(u, v): random_grassmann(rng, order, parity="even", scale=scale)
          for u in range(1, 2 * n + 1) for v in range(u, 2 * n + 1)}
    return ExtendedSuperbivector(m, n, order, b, bq, bb)


# -- multiplication rules ------------------------------------------------------


def test_orthogonal_generators_square_to_minus_one():
    one = CliffordElement.scalar(M_DIM, N_PLANES, ORDER, 1.0)
    assert ((elem_e(1) * elem_e(1)) + one).norm() == 0.0


def test_weyl_reordering_produces_central_term():
    lhs = elem_ep(2) * elem_ep(1)
    expected = elem_ep(1) * elem_ep(2) - 1.0
    assert (lhs - expected).norm() == 0.0


def test_mixed_families_anticommute():
    assert (elem_e(1) * elem_ep(1) + elem_ep(1) * elem_e(1)).norm() == 0.0


def test_grassmann_coefficients_commute_with_generators():
    f1 = GrassmannNumber.generator(ORDER, 1)
    lhs = (elem_e(1) * f1) * (elem_ep(2) * f1)
    assert lhs.norm() == 0.0  # f1 * f1 = 0 regardless of the generators
    f2 = GrassmannNumber.generator(ORDER, 2)
    product = (elem_e(1) * f1) * (elem_ep(2) * f2)
    expected = (elem_e(1) * elem_ep(2)) * (f1 * f2)
    assert (product - expected).norm() == 0.0


def test_associativity_on_low_degree_elements():
    rng = np.random.default_rng(10)

    def sample():
        out = CliffordElement.scalar(M_DIM, N_PLANES, ORDER, rng.normal(), cap=12)
        for j in range(1, M_DIM + 1):
            out = out + elem_e(j, cap=12) * rng.normal()
        for u in range(1, 2 * N_PLANES + 1):
            out = out + elem_ep(u, cap=12) * rng.normal()
        out = out + elem_ep(1, cap=12) * elem_ep(2, cap=12) * rng.normal()
        out = out + elem_e(1, cap=12) * elem_ep(1, cap=12) * rng.normal()
        return out

    for _ in range(10):
        x, y, z = sample(), sample(), sample()
        lhs = (x * y) * z
        rhs = x * (y * z)
        assert (lhs - rhs).norm() <= 1e-11 * max(1.0, lhs.norm())


def test_cap_strict_versus_truncating():
    high = elem_ep(1, cap=2) * elem_ep(1, cap=2)  # degree 2 still fits
    assert not high.truncated
    with pytest.raises(CapExceededError, match="product degree 3 exceeds cap 2"):
        high.multiply(elem_ep(1, cap=2), strict=True)
    dropped = high * elem_ep(1, cap=2)
    assert dropped.truncated
    assert dropped.fermionic_degree() <= 2
    # An over-cap key pair whose coefficient product vanishes (f1 f1 = 0) or
    # falls below CANON_EPS loses nothing: no truncation, and strict mode
    # does not raise, also next to pairs with nonzero products.
    f1_ep = elem_ep(1, cap=1) * GrassmannNumber.generator(ORDER, 1)
    tiny = elem_ep(1, cap=1) * 1e-8
    mixed = f1_ep + elem_e(1, cap=1)
    for x, y in ((f1_ep, f1_ep), (tiny, tiny), (mixed, mixed)):
        for product in (x * y, x.multiply(y, strict=True)):
            assert not product.truncated
    assert not (f1_ep * f1_ep).terms and not (tiny * tiny).terms
    assert (mixed * mixed).isclose(elem_e(1, cap=1) * elem_e(1, cap=1))
    # The error names the largest over-cap degree: (e'_2^2 e'_4)(e'_1^2 e'_3)
    # normal-orders to degrees 6, 4, 4, 2, 2 and 0.
    left = elem_ep(2, n=2, cap=3) * elem_ep(2, n=2, cap=3) * elem_ep(4, n=2, cap=3)
    right = elem_ep(1, n=2, cap=3) * elem_ep(1, n=2, cap=3) * elem_ep(3, n=2, cap=3)
    with pytest.raises(CapExceededError, match="product degree 6 exceeds cap 3"):
        left.multiply(right, strict=True)


def test_anticommutator_of_supervectors_is_central_even_scalar():
    for seed in range(5):
        v = random_supervector(M_DIM, N_PLANES, ORDER, seed=seed)
        w = random_supervector(M_DIM, N_PLANES, ORDER, seed=seed + 60)
        vc, wc = v.to_clifford(), w.to_clifford()
        anti = vc * wc + wc * vc
        scalar = anti.scalar_part()
        assert scalar.parity() == "even"
        residue = anti - CliffordElement.scalar(M_DIM, N_PLANES, ORDER, scalar)
        assert residue.norm() <= 1e-12 * max(1.0, anti.norm())


# -- inner product --------------------------------------------------------------


def test_inner_product_unit_vectors():
    x = Supervector.unit(M_DIM, N_PLANES, ORDER, 1)
    assert (inner(x, x) - 1).norm() == 0.0


def test_inner_product_fermionic_example():
    f1 = GrassmannNumber.generator(ORDER, 1)
    f2 = GrassmannNumber.generator(ORDER, 2)
    zero = GrassmannNumber.zero(ORDER)
    x = Supervector(M_DIM, N_PLANES, ORDER, [zero] * M_DIM, [f1, zero])
    y = Supervector(M_DIM, N_PLANES, ORDER, [zero] * M_DIM, [zero, f2])
    expected = (f1 * f2) * -0.5
    assert (inner(x, y) - expected).norm() == 0.0


def test_inner_product_three_routes():
    from superspin import q_gram_matrix

    gram = q_gram_matrix(M_DIM, N_PLANES, ORDER)
    for seed in range(5):
        x = random_supervector(M_DIM, N_PLANES, ORDER, seed=seed)
        y = random_supervector(M_DIM, N_PLANES, ORDER, seed=seed + 70)
        direct = inner(x, y)
        xc, yc = x.to_clifford(), y.to_clifford()
        via_clifford = (xc * yc + yc * xc).scalar_part() * -0.5
        column = gram.mat @ y.to_column()
        via_gram = GrassmannNumber.zero(ORDER)
        for i, g in enumerate((*x.even, *x.odd)):
            via_gram = via_gram + g * column.entry(i, 0)
        assert (direct - via_clifford).norm() <= 1e-12
        assert (direct - via_gram).norm() <= 1e-12


def reference_inner(x, y):
    """``inner`` with the Gram body it built for itself before the Gram body
    was shared with the membership checks."""
    gram = np.eye(x.m + 2 * x.n)
    gram[x.m:, x.m:] = 0.0
    u = np.arange(x.m, x.m + 2 * x.n, 2)
    gram[u, u + 1], gram[u + 1, u] = -0.5, 0.5
    masks, stack = _blade_product(
        np.matmul, x.col.masks, x.col.stack.transpose(0, 2, 1), y.col.masks,
        gram @ y.col.stack, x.order, (1, 1))
    return GrassmannNumber(x.order, dict(zip(masks, stack[:, 0, 0].tolist())))


@pytest.mark.parametrize("m, n, order", [(3, 1, 4), (2, 2, 4), (0, 2, 3), (3, 0, 3),
                                         (2, 1, 0), (1, 1, 1)])
def test_inner_product_is_bitwise_unchanged_with_the_shared_gram_body(m, n, order):
    def bits(g):
        return [(mask, c.real.hex(), c.imag.hex()) for mask, c in sorted(g.terms.items())]

    for seed in range(3):
        x = random_supervector(m, n, order, seed=seed)
        y = random_supervector(m, n, order, seed=seed + 40)
        assert bits(inner(x, y)) == bits(reference_inner(x, y))
        assert bits(inner(x, x)) == bits(reference_inner(x, x))


def test_inner_product_invariant_under_group_action():
    mat = random_rotation(M_DIM, N_PLANES, ORDER, seed=81, factors=2)
    for seed in range(5):
        x = random_supervector(M_DIM, N_PLANES, ORDER, seed=seed)
        y = random_supervector(M_DIM, N_PLANES, ORDER, seed=seed + 90)
        lhs = inner(apply_matrix(mat, x), apply_matrix(mat, y))
        rhs = inner(x, y)
        assert (lhs - rhs).norm() <= 1e-9 * max(1.0, rhs.norm())


# -- wedge ------------------------------------------------------------------------


def test_wedge_of_real_bosonic_vector_with_itself_vanishes():
    x = Supervector.from_coefficients(M_DIM, N_PLANES, ORDER, [0.3, -1.2], [0, 0])
    assert wedge(x, x).norm() == 0.0


def test_wedge_of_units():
    x = Supervector.unit(M_DIM, N_PLANES, ORDER, 1)
    y = Supervector.unit(M_DIM, N_PLANES, ORDER, 2)
    result = wedge(x, y)
    assert (result.b[(1, 2)] - 1).norm() == 0.0
    assert not result.bq and not result.bb


def test_wedge_symplectic_part_nilpotent():
    for seed in range(10):
        x = random_supervector(M_DIM, N_PLANES, ORDER, seed=seed)
        y = random_supervector(M_DIM, N_PLANES, ORDER, seed=seed + 110)
        assert wedge(x, y).is_strict(tol=0.0)


def test_wedge_matches_half_commutator_off_diagonal():
    # the stored coefficient convention doubles the in-plane diagonal of the
    # symmetrized family relative to [x,y]/2; all other families agree
    for seed in range(5):
        x = random_supervector(M_DIM, N_PLANES, ORDER, seed=seed)
        y = random_supervector(M_DIM, N_PLANES, ORDER, seed=seed + 130)
        xc, yc = x.to_clifford(4), y.to_clifford(4)
        half = (xc * yc - yc * xc) * 0.5
        extracted = half.as_superbivector()
        direct = wedge(x, y)
        for key, g in direct.b.items():
            assert (extracted.b.get(key, GrassmannNumber.zero(ORDER)) - g).norm() < 1e-12
        for key, g in direct.bq.items():
            assert (extracted.bq.get(key, GrassmannNumber.zero(ORDER)) - g).norm() < 1e-12
        for (u, v), g in direct.bb.items():
            got = extracted.bb.get((u, v), GrassmannNumber.zero(ORDER))
            expected = g * 0.5 if u == v else g
            assert (got - expected).norm() < 1e-12


# -- the commutator action -------------------------------------------------------


def test_action_matrix_basis_images():
    one = GrassmannNumber.one(ORDER)
    bos = bivector_to_matrix(ExtendedSuperbivector(2, 1, ORDER, b={(1, 2): one}))
    body = bos.body_matrix().real
    expected = np.zeros((4, 4))
    expected[1, 0], expected[0, 1] = 2.0, -2.0
    assert np.abs(body - expected).max() == 0.0

    sym = bivector_to_matrix(ExtendedSuperbivector(2, 1, ORDER, bb={(1, 2): one}))
    body = sym.body_matrix().real
    expected = np.zeros((4, 4))
    expected[2, 2], expected[3, 3] = -1.0, 1.0
    assert np.abs(body - expected).max() == 0.0

    f1 = GrassmannNumber.generator(ORDER, 1)
    mixed = bivector_to_matrix(ExtendedSuperbivector(2, 1, ORDER, bq={(1, 1): f1}))
    blades = mixed.mat.blades
    assert set(blades) == {1}
    expected = np.zeros((4, 4))
    expected[0, 3] = 1.0  # upper block E_{1,2}
    expected[2, 0] = 2.0  # lower block 2 E_{1,1}
    assert np.abs(blades[1] - expected).max() == 0.0


def test_matrix_to_bivector_roundtrip():
    zero = Supermatrix_zero = bivector_to_matrix(
        ExtendedSuperbivector.zero(M_DIM, N_PLANES, ORDER)
    )
    assert matrix_to_bivector(Supermatrix_zero).norm() == 0.0
    for seed in range(10):
        biv = rand_bivector(seed)
        assert (matrix_to_bivector(bivector_to_matrix(biv)) - biv).norm() <= 1e-10


def test_matrix_to_bivector_special_block():
    body = np.zeros((4, 4), dtype=complex)
    body[2, 3], body[3, 2] = 2.0, -2.0
    mat_in = bivector_to_matrix(ExtendedSuperbivector.zero(2, 1, ORDER))
    from superspin import Supermatrix

    target = Supermatrix.from_body(2, 2, body, ORDER)
    biv = matrix_to_bivector(target)
    one = GrassmannNumber.one(ORDER)
    assert (biv.bb[(1, 1)] - one).norm() == 0.0
    assert (biv.bb[(2, 2)] - one).norm() == 0.0
    assert (1, 2) not in biv.bb


def test_matrix_to_bivector_requires_algebra_membership():
    from superspin import Supermatrix

    bad = Supermatrix.from_body(
        M_DIM, 2 * N_PLANES, np.eye(M_DIM + 2 * N_PLANES, dtype=complex), ORDER
    )
    with pytest.raises(MembershipError):
        matrix_to_bivector(bad)


def test_commutator_action_tabulated_row():
    one = GrassmannNumber.one(ORDER)
    biv = ExtendedSuperbivector(2, 1, ORDER, b={(1, 2): one})
    x = Supervector.unit(2, 1, ORDER, 1)
    acted = commutator_action(biv, x)
    assert (acted.even[1] - 2).norm() == 0.0
    assert acted.even[0].norm() == 0.0 and acted.odd[0].norm() == acted.odd[1].norm() == 0.0
    assert commutator_action(biv, Supervector.zero(2, 1, ORDER)).norm() == 0.0


def test_commutator_action_three_routes():
    for seed in range(10):
        biv = rand_bivector(seed)
        x = random_supervector(M_DIM, N_PLANES, ORDER, seed=seed + 150)
        tabulated = commutator_action(biv, x)
        via_matrix = apply_matrix(bivector_to_matrix(biv), x)
        bc, xc = biv.to_clifford(6), x.to_clifford(6)
        via_clifford = (bc * xc - xc * bc).as_supervector()
        assert (tabulated - via_matrix).norm() <= 1e-12 * max(1.0, tabulated.norm())
        assert (tabulated - via_clifford).norm() <= 1e-12 * max(1.0, tabulated.norm())


def test_supervector_extraction_rejects_residue():
    junk = elem_e(1) * elem_e(2)
    with pytest.raises(AlgebraError):
        junk.as_supervector()


def test_bracket_morphism_across_two_symplectic_planes():
    # two planes exercise the cross-plane couplings of the bracket tables,
    # which a single plane never reaches
    from superspin.selftest import _isomorphism_basis

    basis = _isomorphism_basis(2, 2, 1)
    assert len(basis) == 19
    images = [bivector_to_matrix(b) for b in basis]
    cliff = [b.to_clifford(cap=4) for b in basis]
    for i in range(len(basis)):
        for j in range(len(basis)):
            bracket = cliff[i] * cliff[j] - cliff[j] * cliff[i]
            lhs = bivector_to_matrix(bracket.as_superbivector(tol=1e-12))
            rhs = images[i] @ images[j] - images[j] @ images[i]
            assert (lhs - rhs).norm() <= 1e-12


# -- reflections -------------------------------------------------------------------


def test_reflection_matrix_of_bosonic_unit():
    w = Supervector.unit(2, 1, ORDER, 1)
    psi = reflection_matrix(w)
    assert np.abs(psi.body_matrix() - np.diag([-1.0, 1, 1, 1])).max() == 0.0
    assert len(psi.mat.blades) == 1


def test_reflection_requires_supersphere():
    w = Supervector.unit(2, 1, ORDER, 1).scale(0.5)
    with pytest.raises(MembershipError):
        reflection_matrix(w)
    with pytest.raises(MembershipError):
        reflect(w, Supervector.unit(2, 1, ORDER, 2))


def test_reflection_suite_small():
    for seed in range(5):
        w = random_sphere_vector(3, 1, 4, seed=seed)
        psi = reflection_matrix(w)
        assert check_o0(psi, 1e-9).ok
        assert (psi.sdet() + 1).norm() <= 1e-9
        assert check_o0(psi).block_residual <= 1e-12


def test_reflection_determinant_identities():
    order = 4
    for seed in range(5):
        w = random_sphere_vector(3, 2, order, seed=seed + 500)
        psi = reflection_matrix(w)
        sum_sq = GrassmannNumber.zero(order)
        for g in w.even:
            sum_sq = sum_sq + g * g
        assert (psi.block_a().det() - (1 - 2 * sum_sq)).norm() <= 1e-9
        pairs = GrassmannNumber.zero(order)
        for t in range(2):
            pairs = pairs + w.odd[2 * t] * w.odd[2 * t + 1]
        assert (psi.block_d().det() * (1 + 2 * pairs) - 1).norm() <= 1e-9


def test_reflection_body_is_classical():
    w = random_sphere_vector(3, 1, 4, seed=901)
    psi = reflection_matrix(w)
    body = psi.body_matrix().real
    wb = w.body_vector().real
    assert np.abs(body[:3, :3] - (np.eye(3) - 2 * np.outer(wb, wb))).max() < 1e-12
    assert np.abs(body[3:, 3:] - np.eye(2)).max() < 1e-12


def test_reflect_fixes_perpendicular_and_negates_axis():
    w = Supervector.unit(2, 1, ORDER, 1)
    x_perp = Supervector.unit(2, 1, ORDER, 2)
    assert (reflect(w, x_perp) - x_perp).norm() == 0.0
    x_axis = Supervector.unit(2, 1, ORDER, 1)
    assert (reflect(w, x_axis) + x_axis).norm() == 0.0


@settings(max_examples=40)
@given(m=st.integers(1, 3), n=st.integers(0, 2), order=st.sampled_from([0, 1, 4]),
       seed=st.integers(0, 10_000))
def test_reflect_matches_reflection_matrix(m, n, order, seed):
    # the matrix route, once checked inside reflect on every call, and the
    # Clifford product w x w, once reflect's own route, as oracles
    w = random_sphere_vector(m, n, order, seed=seed)
    x = random_supervector(m, n, order, seed=seed + 1)
    once = reflect(w, x)
    assert_canonical(once)
    assert_relative(once, apply_matrix(reflection_matrix(w), x))
    assert_relative(once, oracle_reflect(w, x))
    assert_relative(reflect(w, once), x)  # the reflection involution
    assert_relative(inner(once, w), -inner(x, w))


def test_reflect_is_an_involution():
    for seed in range(5):
        w = random_sphere_vector(3, 1, 4, seed=seed + 700)
        x = random_supervector(3, 1, 4, seed=seed + 800)
        once = reflect(w, x)
        twice = reflect(w, once)
        assert (twice - x).norm() <= 1e-10 * max(1.0, x.norm())


def test_ones_matrix_contraction_identity():
    # E_{p x m} D_w^2 E_{m x q} = (sum w_j^2) E_{p x q}
    order = 4
    rng = np.random.default_rng(33)
    values = [random_grassmann(rng, order, parity="even", scale=0.5)
              for _ in range(3)]
    zero = GrassmannNumber.zero(order)
    diag = GrassmannMatrix.from_entries(
        [[values[i] if i == j else zero for j in range(3)] for i in range(3)], order
    )
    ones_23 = GrassmannMatrix.from_body(np.ones((2, 3)), order)
    ones_34 = GrassmannMatrix.from_body(np.ones((3, 4)), order)
    lhs = ones_23 @ diag @ diag @ ones_34
    total = GrassmannNumber.zero(order)
    for g in values:
        total = total + g * g
    rhs = GrassmannMatrix.from_body(np.ones((2, 4)), order).scale(total)
    assert (lhs - rhs).norm() <= 1e-13


def test_sphere_sampling_and_membership():
    for seed in range(10):
        w = random_sphere_vector(3, 2, 4, seed=seed + 40)
        assert w.on_supersphere()
        dev = w.square() + 1
        assert dev.nilpotent().norm() == 0.0
        assert abs(dev.body) <= 1e-12


def test_supervector_json_roundtrip():
    x = random_supervector(3, 2, 4, seed=77)
    again = Supervector.from_dict(x.to_dict())
    assert (again - x).norm() == 0.0


def test_superbivector_json_roundtrip_and_strictness():
    biv = rand_bivector(3)
    again = ExtendedSuperbivector.from_dict(biv.to_dict())
    assert (again - biv).norm() == 0.0
    rng = np.random.default_rng(5)
    strict = ExtendedSuperbivector(
        M_DIM, N_PLANES, ORDER,
        bb={(1, 1): random_grassmann(rng, ORDER, parity="even", scale=1.0,
                                     grade_min=2)},
    )
    assert strict.is_strict(tol=0.0)
    assert not rand_bivector(4).is_strict(tol=1e-6)


# -- the packed routes against the coordinatewise and Clifford oracles -------------
#
# The library computes inner, wedge, the commutator action and reflections on
# the packed column; the routes below, one GrassmannNumber product per
# coordinate pair and the Clifford product w x w, are kept as oracles.


def oracle_inner(x, y):
    xe, xo, ye, yo = x.even, x.odd, y.even, y.odd
    total = GrassmannNumber.zero(x.order)
    for a, b in zip(xe, ye):
        total = total + a * b
    for j in range(x.n):
        total = total - (xo[2 * j] * yo[2 * j + 1] - xo[2 * j + 1] * yo[2 * j]) * 0.5
    return total


def oracle_wedge(x, y):
    xe, xo, ye, yo = x.even, x.odd, y.even, y.odd
    b = {(j, k): xe[j - 1] * ye[k - 1] - xe[k - 1] * ye[j - 1]
         for j in range(1, x.m + 1) for k in range(j + 1, x.m + 1)}
    bq = {(j, u): xe[j - 1] * yo[u - 1] - xo[u - 1] * ye[j - 1]
          for j in range(1, x.m + 1) for u in range(1, 2 * x.n + 1)}
    bb = {(u, v): xo[u - 1] * yo[v - 1] + xo[v - 1] * yo[u - 1]
          for u in range(1, 2 * x.n + 1) for v in range(u, 2 * x.n + 1)}
    return ExtendedSuperbivector(x.m, x.n, x.order, b, bq, bb)


def oracle_commutator_action(biv, x):
    xe, xo = x.even, x.odd
    even = [GrassmannNumber.zero(x.order) for _ in range(x.m)]
    odd = [GrassmannNumber.zero(x.order) for _ in range(2 * x.n)]
    for (j, k), g in biv.b.items():
        even[k - 1] = even[k - 1] + g * xe[j - 1] * 2.0
        even[j - 1] = even[j - 1] - g * xe[k - 1] * 2.0
    for (j, u), g in biv.bq.items():
        odd[u - 1] = odd[u - 1] + g * xe[j - 1] * 2.0
        if u % 2 == 1:
            even[j - 1] = even[j - 1] + g * xo[u]
        else:
            even[j - 1] = even[j - 1] - g * xo[u - 2]
    for (u, v), g in biv.bb.items():
        uo, vo = u % 2 == 1, v % 2 == 1
        if uo and vo:
            odd[v - 1] = odd[v - 1] + g * xo[u]
            odd[u - 1] = odd[u - 1] + g * xo[v]
        elif not uo and not vo:
            odd[v - 1] = odd[v - 1] - g * xo[u - 2]
            odd[u - 1] = odd[u - 1] - g * xo[v - 2]
        elif uo and not vo:
            odd[v - 1] = odd[v - 1] + g * xo[u]
            odd[u - 1] = odd[u - 1] - g * xo[v - 2]
        else:
            odd[v - 1] = odd[v - 1] - g * xo[u - 2]
            odd[u - 1] = odd[u - 1] + g * xo[v]
    return Supervector(x.m, x.n, x.order, even, odd)


def oracle_reflect(w, x):
    wc = w.to_clifford(4)
    return (wc * x.to_clifford(4) * wc).as_supervector()


def assert_relative(got, want, tol=1e-12):
    assert (got - want).norm() <= tol * max(1.0, want.norm())


def assert_canonical(vec):
    stack = vec.to_column().stack
    tiny = (np.abs(stack.real) < CANON_EPS) & (np.abs(stack.imag) < CANON_EPS)
    assert not (tiny & (stack != 0)).any()


@settings(max_examples=40)
@given(m=st.integers(0, 3), n=st.integers(0, 2), order=st.sampled_from([0, 1, 4]),
       seed=st.integers(0, 10_000))
def test_inner_wedge_and_action_match_coordinatewise_oracles(m, n, order, seed):
    x = random_supervector(m, n, order, seed=seed)
    y = random_supervector(m, n, order, seed=seed + 1)
    biv = rand_bivector(seed + 2, m, n, order)
    assert_relative(inner(x, y), oracle_inner(x, y))
    assert_relative(wedge(x, y), oracle_wedge(x, y))
    acted = commutator_action(biv, x)
    assert_relative(acted, oracle_commutator_action(biv, x))
    assert_relative(acted, apply_matrix(bivector_to_matrix(biv), x))
    for vec in (acted, x + y, x - y, x.scale(1e-15), x.scale(inner(x, y)), -x):
        assert_canonical(vec)


def test_packed_column_is_canonical_like_grassmann_numbers():
    # masks 0 and 1 at order 2; row 0 is even, rows 1 and 2 odd
    stack = np.zeros((2, 3, 1), dtype=complex)
    stack[0, 0, 0] = 1e-15             # dropped
    stack[1, 0, 0] = 2e-15             # wrong parity, but below CANON_EPS: dropped
    stack[1, 1, 0] = 5e-15 + 2e-14j    # kept: |im| reaches CANON_EPS
    stack[1, 2, 0] = 3e-15j            # dropped
    x = Supervector.from_column(1, 1, GrassmannMatrix(3, 1, 2, masks=(0, 1), stack=stack))
    assert x.to_column().masks == (1,)
    assert x.even[0].terms == {} and x.odd[1].terms == {}
    assert x.odd[0].terms == {1: 5e-15 + 2e-14j}
    assert x.norm() == abs(5e-15 + 2e-14j)
    assert (x - x).norm() == 0.0 and not (x - x).to_column().masks
    assert not x.scale(0.1).to_column().masks
    assert Supervector.from_dict(x.to_dict()).odd[0] == x.odd[0]


def test_empty_supervectors_work():
    x = Supervector.zero(0, 0, 4)
    assert x.even == () and x.odd == () and x.norm() == 0.0
    assert inner(x, x).terms == {} and wedge(x, x).norm() == 0.0
    assert commutator_action(ExtendedSuperbivector.zero(0, 0, 4), x).norm() == 0.0
    assert Supervector.from_dict(x.to_dict()).to_column().rows == 0
    assert (x + x).norm() == x.scale(2.0).norm() == 0.0
    with pytest.raises(MembershipError):
        reflect(x, x)


def _vector_dict_cases():
    good = random_supervector(1, 1, 2, seed=3).to_dict()

    def edit(change):
        data = json.loads(json.dumps(good))
        change(data)
        return data

    return [
        ("odd blade in an even coordinate",
         edit(lambda d: d["even"][0]["terms"].append({"mask": 1, "re": 1.0})), ParityError),
        ("even blade in an odd coordinate",
         edit(lambda d: d["odd"][1]["terms"].append({"mask": 3, "re": 1.0})), ParityError),
        ("mixed order", edit(lambda d: d["odd"][0].update(N=3)), OrderMismatchError),
        ("order past MAX_ORDER", {"m": 0, "n": 0, "N": 17, "even": [], "odd": []},
         OrderMismatchError),
        ("mask out of range",
         edit(lambda d: d["odd"][0]["terms"].append({"mask": 4, "re": 1.0})), OrderMismatchError),
        ("too few even coordinates", edit(lambda d: d["even"].pop()), ShapeMismatchError),
        ("too many odd coordinates", edit(lambda d: d["odd"].append(d["odd"][0])),
         ShapeMismatchError),
        ("negative n", edit(lambda d: d.update(n=-1)), ShapeMismatchError),
    ]


VECTOR_DICT_CASES = _vector_dict_cases()


@pytest.mark.parametrize("data, error", [case[1:] for case in VECTOR_DICT_CASES],
                         ids=[case[0] for case in VECTOR_DICT_CASES])
def test_supervector_decoding_and_construction_validate(data, error):
    with pytest.raises(error):
        Supervector.from_dict(data)
    try:
        coords = [[GrassmannNumber.from_dict(g) for g in data[k]] for k in ("even", "odd")]
    except OrderMismatchError:
        return  # a malformed coordinate, rejected before the constructor
    with pytest.raises(error):
        Supervector(data["m"], data["n"], data["N"], *coords)


def _column(rows, cols, order, mask, row):
    stack = np.zeros((1, rows, cols), dtype=complex)
    stack[0, row, 0] = 1.0
    return GrassmannMatrix(rows, cols, order, masks=(mask,), stack=stack)


@pytest.mark.parametrize("m, n, col, error", [
    (1, 1, _column(3, 1, 2, 1, 0), ParityError),    # odd blade, even row
    (1, 1, _column(3, 1, 2, 3, 2), ParityError),    # even blade, odd row
    (1, 1, _column(3, 1, 2, 0, 1), ParityError),    # body in an odd row
    (1, 1, _column(4, 1, 2, 0, 0), ShapeMismatchError),
    (1, 1, _column(3, 2, 2, 0, 0), ShapeMismatchError),
    (-1, 1, _column(1, 1, 2, 1, 0), ShapeMismatchError),
    (0, 0, GrassmannMatrix.zeros(0, 1, 17), OrderMismatchError),
], ids=["odd-in-even", "even-in-odd", "body-in-odd", "rows", "cols", "negative-m",
        "order"])
def test_from_column_validates(m, n, col, error):
    with pytest.raises(error):
        Supervector.from_column(m, n, col)


def test_from_column_adopts_a_checked_column():
    x = random_supervector(3, 2, 4, seed=12)
    again = Supervector.from_column(3, 2, x.to_column())
    assert again.to_column() is x.to_column()
    assert all(a == b for a, b in zip((*again.even, *again.odd), (*x.even, *x.odd)))
