"""Clifford-Weyl engine: normal ordering, supervectors, superbivectors,
the commutator-action isomorphism and supervector reflections."""

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
    # the matrix route, once checked inside reflect on every call, as oracle
    w = random_sphere_vector(m, n, order, seed=seed)
    x = random_supervector(m, n, order, seed=seed + 1)
    via_matrix = apply_matrix(reflection_matrix(w), x)
    assert reflect(w, x).isclose(via_matrix, 1e-10)


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
