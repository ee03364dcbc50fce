"""Group and algebra membership, real matrix logs, the three-exponential
decomposition, the unitary squashing and the standard orthosymplectic form."""

import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm as dense_expm

from superspin import (
    AlgebraError,
    GrassmannMatrix,
    MembershipError,
    OrderMismatchError,
    ShapeMismatchError,
    SingularBodyError,
    Supermatrix,
    check_o0,
    check_so0,
    check_so0_algebra,
    compact_symplectic_log,
    decompose_rotation,
    expm,
    from_unitary,
    grade_path,
    lift_rotation,
    logm,
    osp_defect,
    osp_standard_form,
    q_gram_matrix,
    random_rotation,
    random_so0,
    random_sphere_vector,
    random_supermatrix,
    reflection_matrix,
    rotation_log,
    symplectic_form,
    symplectic_polar,
    to_unitary,
)
from superspin.grassmann import DEFAULT_TOL
from superspin.orthosymplectic import AlgebraReport, GroupReport

M_DIM, N_PLANES, ORDER = 3, 1, 4
Q_DIM = 2 * N_PLANES


def embed_rotation(theta):
    """diag(R(theta), I_2) at m = 2, n = 1."""
    body = np.eye(4, dtype=complex)
    body[0, 0] = body[1, 1] = math.cos(theta)
    body[0, 1] = -math.sin(theta)
    body[1, 0] = math.sin(theta)
    return Supermatrix.from_body(2, 2, body, ORDER)


def test_identity_in_group():
    report = check_o0(Supermatrix.eye(M_DIM, Q_DIM, ORDER))
    assert report.ok and report.residual == 0.0
    assert check_so0(Supermatrix.eye(M_DIM, Q_DIM, ORDER)).ok


def test_check_o0_reports_singular_body_and_rejects_odd_q():
    body = np.eye(M_DIM + Q_DIM, dtype=complex)
    body[M_DIM, M_DIM] = 0.0  # singular D body
    report = check_o0(Supermatrix.from_body(M_DIM, Q_DIM, body, ORDER))
    assert report.sdet is None and not report.ok
    with pytest.raises(MembershipError):
        check_o0(Supermatrix.eye(M_DIM, 3, ORDER))


def test_reflections_in_o0_but_not_so0():
    for seed in range(5):
        w = random_sphere_vector(M_DIM, N_PLANES, ORDER, seed=seed)
        psi = reflection_matrix(w)
        assert check_o0(psi, 1e-9).ok
        assert not check_so0(psi, 1e-9).ok


def test_product_of_two_reflections_in_so0():
    w1 = random_sphere_vector(M_DIM, N_PLANES, ORDER, seed=11)
    w2 = random_sphere_vector(M_DIM, N_PLANES, ORDER, seed=12)
    assert check_so0(reflection_matrix(w1) @ reflection_matrix(w2), 1e-9).ok


def test_embedded_plane_rotation_in_o0():
    assert check_o0(embed_rotation(0.8), 1e-12).ok


def test_group_closure_and_inverse():
    a = random_rotation(M_DIM, N_PLANES, ORDER, seed=21, factors=2)
    b = reflection_matrix(random_sphere_vector(M_DIM, N_PLANES, ORDER, seed=22))
    assert check_o0(a @ b, 1e-8).ok
    assert check_o0(b.inverse(), 1e-8).ok


def test_body_projection_of_group_elements():
    mat = random_rotation(M_DIM, N_PLANES, ORDER, seed=31, factors=2)
    body = mat.body_matrix().real
    a0 = body[:M_DIM, :M_DIM]
    d0 = body[M_DIM:, M_DIM:]
    omega = symplectic_form(N_PLANES)
    assert np.abs(a0.T @ a0 - np.eye(M_DIM)).max() < 1e-9
    assert np.abs(d0.T @ omega @ d0 - omega).max() < 1e-9


def test_algebra_membership():
    zero = Supermatrix.zeros(M_DIM, Q_DIM, ORDER)
    assert check_so0_algebra(zero).ok
    body = np.zeros((M_DIM + Q_DIM, M_DIM + Q_DIM), dtype=complex)
    body[0, 1], body[1, 0] = 1.0, -1.0
    assert check_so0_algebra(Supermatrix.from_body(M_DIM, Q_DIM, body, ORDER)).ok
    for seed in range(5):
        assert check_so0_algebra(
            random_so0(M_DIM, N_PLANES, ORDER, seed=seed), 1e-12
        ).ok


def _blocks(mat):
    omega = GrassmannMatrix.from_body(symplectic_form(mat.q // 2), mat.order)
    return mat.block_a(), mat.block_b(), mat.block_c(), mat.block_d(), omega


def group_block_equations(mat):
    """Norms of the three block equations of the group, solved independently."""
    a, b, c, d, omega = _blocks(mat)
    first = a.transpose() @ a - (c.transpose() @ omega @ c).scale(0.5) \
        - GrassmannMatrix.eye(mat.p, mat.order)
    second = a.transpose() @ b - (c.transpose() @ omega @ d).scale(0.5)
    third = b.transpose() @ b + (d.transpose() @ omega @ d).scale(0.5) \
        - omega.scale(0.5)
    return first.norm(), second.norm(), third.norm()


def algebra_block_equations(mat):
    """Norms of the three block equations of the algebra."""
    a, b, c, d, omega = _blocks(mat)
    return ((a.transpose() + a).norm(),
            (b - (c.transpose() @ omega).scale(0.5)).norm(),
            (d.transpose() @ omega + omega @ d).norm())


@pytest.mark.parametrize("m, n", [(3, 1), (2, 2), (1, 0), (0, 1)])
def test_block_residuals_match_block_equations(m, n):
    # non-members, so every residual compared here is far from zero
    for seed in range(4):
        mat = random_supermatrix(m, n, ORDER, seed=seed + 90, scale=0.4)
        want = max(group_block_equations(mat))
        got = check_o0(mat).block_residual
        assert abs(got - want) <= 1e-12 * want and want > 0.1
        want = max(algebra_block_equations(mat))
        got = check_so0_algebra(mat).block_residual
        assert abs(got - want) <= 1e-12 * want and want > 0.1


# -- membership checks against the block-matrix route ------------------------------


def reference_check_o0(mat, tol=DEFAULT_TOL):
    """check_o0 as it was before it worked on the blade stack: the
    expression through a q_gram_matrix Supermatrix, the block residual
    through three block matrices."""
    if mat.q % 2:
        raise MembershipError("odd q")
    gram = q_gram_matrix(mat.p, mat.q // 2, mat.order)
    expr = mat.supertranspose() @ gram @ mat - gram
    defining = expr.norm()
    blocks = max(expr.block_a().norm(), expr.block_b().norm(), expr.block_d().norm())
    try:
        sdet = mat.sdet()
        deviation = min((sdet - 1.0).norm(), (sdet + 1.0).norm())
    except AlgebraError:
        sdet, deviation = None, math.inf
    scale = max(1.0, mat.norm())
    ok = defining <= tol * scale and blocks <= tol * scale and deviation <= tol
    return GroupReport(ok, defining, blocks, sdet, deviation)


def reference_check_so0_algebra(mat, tol=DEFAULT_TOL):
    """check_so0_algebra as it was before it worked on the blade stack."""
    if mat.q % 2:
        raise MembershipError("odd q")
    gram = q_gram_matrix(mat.p, mat.q // 2, mat.order)
    expr = mat.supertranspose() @ gram + gram @ mat
    defining = expr.norm()
    blocks = max(expr.block_a().norm(), expr.block_b().norm(),
                 2.0 * expr.block_d().norm())
    scale = max(1.0, mat.norm())
    ok = defining <= tol * scale and blocks <= tol * scale
    return AlgebraReport(ok, defining, blocks)


def assert_same_report(got, want):
    assert got.ok == want.ok
    for name in ("defining_residual", "block_residual"):
        assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-15, abs=0.0)
    if isinstance(want, GroupReport):
        assert got.sdet_deviation == want.sdet_deviation
        assert (got.sdet is None) == (want.sdet is None)


def membership_cases(m, n, order):
    """Members and non-members of the group and the algebra at (m, n, N)."""
    size = m + 2 * n
    singular = np.eye(size, dtype=complex)
    singular[-1, -1] = 0.0
    cases = [Supermatrix.eye(m, 2 * n, order), Supermatrix.zeros(m, 2 * n, order),
             Supermatrix.from_body(m, 2 * n, singular, order)]
    for seed in range(2):
        rotation = random_rotation(m, n, order, seed=seed)
        algebra = random_so0(m, n, order, seed=seed)
        cases += [rotation, rotation.scale(1.0 + 1e-7), algebra, algebra.scale(1e3),
                  random_supermatrix(m, n, order, seed=seed),
                  rotation @ expm(algebra.scale(1e-11))]
    if m:
        cases.append(reflection_matrix(random_sphere_vector(m, n, order, seed=5)))
    return cases


@pytest.mark.parametrize("order", [0, 1, 4])
@pytest.mark.parametrize("m, n", [(0, 1), (0, 2), (3, 0), (2, 1), (4, 2)])
def test_membership_checks_match_the_block_matrix_route(m, n, order):
    for mat in membership_cases(m, n, order):
        for tol in (DEFAULT_TOL, 1e-12):
            want = reference_check_o0(mat, tol)
            assert_same_report(check_o0(mat, tol), want)
            so0 = check_so0(mat, tol)
            if want.sdet is not None:
                deviation = (want.sdet - 1.0).norm()
                want = GroupReport(want.ok and deviation <= tol, want.defining_residual,
                                   want.block_residual, want.sdet, deviation)
            assert_same_report(so0, want)
            assert_same_report(check_so0_algebra(mat, tol),
                               reference_check_so0_algebra(mat, tol))


def test_membership_check_outcomes_at_degenerate_shapes():
    # both routes agree above; these pin that the cases cover both outcomes
    for m, n, order in ((0, 1, 0), (3, 0, 1), (2, 1, 4)):
        rotation = random_rotation(m, n, order, seed=3)
        assert check_so0(rotation).ok and not check_so0(rotation.scale(1.0 + 1e-7)).ok
        algebra = random_so0(m, n, order, seed=3)
        assert check_so0_algebra(algebra).ok
        assert not check_so0_algebra(random_supermatrix(m, n, order, seed=3)).ok


def test_membership_checks_raise_on_overflow_and_odd_q():
    rotation = random_rotation(3, 1, 4, seed=7).scale(1e200)
    for check in (check_o0, check_so0):
        with pytest.raises(AlgebraError):
            check(rotation)
    # A^T + A overflows although every entry is finite
    body = np.array([[0.0, 1.5e308], [1.5e308, 0.0]])
    with pytest.raises(AlgebraError):
        check_so0_algebra(Supermatrix.from_body(2, 0, body, 1))
    for check in (check_o0, check_so0, check_so0_algebra):
        with pytest.raises(MembershipError):
            check(Supermatrix.eye(M_DIM, 3, ORDER))


def test_algebra_elements_are_supertraceless():
    for seed in range(5):
        x = random_so0(M_DIM, N_PLANES, ORDER, seed=seed + 50)
        assert x.supertrace().norm() == 0.0


def test_algebra_exponentials_stay_in_group():
    x = random_so0(M_DIM, N_PLANES, ORDER, seed=61)
    for t in (-1.0, 0.5, 2.0):
        assert check_so0(expm(x.scale(t)), 1e-9).ok


def test_grade_path_endpoints_and_membership():
    mat = random_rotation(M_DIM, N_PLANES, ORDER, seed=71, factors=2)
    assert (grade_path(mat, 1.0) - mat).norm() == 0.0
    assert (grade_path(mat, 0.0) - mat.body()).norm() == 0.0
    assert check_so0(grade_path(mat, 0.5), 1e-9).ok
    with pytest.raises(MembershipError):
        grade_path(random_supermatrix(M_DIM, N_PLANES, ORDER, seed=3), 0.5)


def plane_rotation(angles, extra=0):
    """Block-diagonal rotation by the given plane angles, then ``extra`` ones."""
    a0 = np.eye(2 * len(angles) + extra)
    for i, theta in enumerate(angles):
        a0[2 * i:2 * i + 2, 2 * i:2 * i + 2] = [[math.cos(theta), -math.sin(theta)],
                                                [math.sin(theta), math.cos(theta)]]
    return a0


def random_special_orthogonal(rng, size):
    q, _ = np.linalg.qr(rng.normal(size=(size, size)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def log_error(log, mat):
    """max(|expm(L) - A|, |L + L^T|), with scipy's expm as the oracle."""
    return max(np.abs(dense_expm(log) - mat).max(), np.abs(log + log.T).max())


def test_rotation_log_basics():
    assert rotation_log(np.eye(3)).shape == (3, 3)
    assert np.abs(rotation_log(np.eye(3))).max() == 0.0
    theta = 1.0
    plane = np.array([[math.cos(theta), -math.sin(theta)],
                      [math.sin(theta), math.cos(theta)]])
    log = rotation_log(plane)
    assert abs(log[1, 0] - theta) < 1e-12
    assert np.abs(dense_expm(log) - plane).max() < 1e-12


def test_rotation_log_handles_angle_pi():
    a0 = np.diag([-1.0, -1.0, 1.0])
    log = rotation_log(a0)
    assert np.abs(log + log.T).max() < 1e-12
    assert np.abs(dense_expm(log) - a0).max() < 1e-12


def test_rotation_log_random_so4_roundtrip():
    rng = np.random.default_rng(101)
    for _ in range(100):
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        log = rotation_log(q)
        assert np.abs(log + log.T).max() < 1e-10
        assert np.abs(dense_expm(log) - q).max() < 1e-10


def test_rotation_log_rejects_non_rotation():
    with pytest.raises(MembershipError):
        rotation_log(np.diag([1.0, 2.0]))
    with pytest.raises(MembershipError):
        rotation_log(np.diag([-1.0, 1.0]))
    reflection = random_special_orthogonal(np.random.default_rng(707), 4) @ np.diag([-1.0, 1, 1, 1])
    for a0 in (np.diag([-1.0, 1.0, 1.0]), reflection, 1.001 * plane_rotation([math.pi], extra=1)):
        with pytest.raises(MembershipError):
            rotation_log(a0)


def random_symplectic(rng, n, scale=0.4):
    """Product of two exponentials of random symplectic-algebra elements."""
    omega = symplectic_form(n)
    result = np.eye(2 * n)
    for _ in range(2):
        sym = rng.normal(size=(2 * n, 2 * n), scale=scale)
        result = result @ dense_expm(omega @ (sym + sym.T))
    return result


def test_symplectic_polar_examples():
    r, z0 = symplectic_polar(np.eye(4))
    assert np.abs(r - np.eye(4)).max() == 0.0 and np.abs(z0).max() == 0.0
    d0 = np.diag([2.0, 0.5])
    r, z0 = symplectic_polar(d0)
    assert np.abs(r - np.eye(2)).max() < 1e-12
    assert np.abs(z0 - np.diag([math.log(2.0), -math.log(2.0)])).max() < 1e-12


def test_symplectic_polar_memberships():
    rng = np.random.default_rng(202)
    omega = symplectic_form(2)
    for _ in range(100):
        d0 = random_symplectic(rng, 2)
        r, z0 = symplectic_polar(d0)
        assert np.abs(r.T @ omega @ r - omega).max() < 1e-9
        assert np.abs(r.T @ r - np.eye(4)).max() < 1e-9
        assert np.abs(z0 - z0.T).max() < 1e-9
        assert np.abs(z0.T @ omega + omega @ z0).max() < 1e-9
        assert np.abs(r @ dense_expm(z0) - d0).max() < 1e-9
        # uniqueness: re-decomposition is idempotent
        r2, z2 = symplectic_polar(r @ dense_expm(z0))
        assert np.abs(r2 - r).max() < 1e-9 and np.abs(z2 - z0).max() < 1e-9


def test_symplectic_polar_rejects_non_symplectic():
    with pytest.raises(MembershipError):
        symplectic_polar(np.diag([2.0, 2.0]))


@pytest.mark.parametrize("norm", [1e160, 1e300, math.nan])
def test_symplectic_polar_of_an_overflowing_gram_is_a_singular_body(norm):
    """Where D0^T D0 overflows, so does the condition number |D0|^2 of a
    symplectic D0: SingularBodyError, with no numpy warning on the way.  A
    NaN entry is refused the same way, not returned as NaN factors."""
    with pytest.raises(SingularBodyError, match="not finite"):
        symplectic_polar(np.diag([norm, 1.0 / norm]))


def test_unitary_squash_isomorphism():
    assert np.abs(to_unitary(np.eye(4)) - np.eye(2)).max() == 0.0
    rng = np.random.default_rng(303)
    for _ in range(10):
        r1, _ = symplectic_polar(random_symplectic(rng, 2))
        r2, _ = symplectic_polar(random_symplectic(rng, 2))
        lhs = to_unitary(r1 @ r2)
        rhs = to_unitary(r1) @ to_unitary(r2)
        assert np.abs(lhs - rhs).max() < 1e-10
        u = to_unitary(r1)
        assert np.abs(u.conj().T @ u - np.eye(2)).max() < 1e-10
        assert np.abs(from_unitary(u) - r1).max() < 1e-10


def test_unitary_squash_algebra_level():
    rng = np.random.default_rng(404)
    omega = symplectic_form(2)
    for _ in range(10):
        sym = rng.normal(size=(4, 4))
        y = omega @ (sym + sym.T)
        y = 0.5 * (y - y.T)  # now in both the symplectic and orthogonal algebras
        if np.abs(y.T @ omega + omega @ y).max() > 1e-12:
            continue
        level = to_unitary(y)
        assert np.abs(level + level.conj().T).max() < 1e-10


def test_compact_symplectic_log_roundtrip():
    assert np.abs(compact_symplectic_log(np.eye(4))).max() == 0.0
    rng = np.random.default_rng(505)
    omega = symplectic_form(2)
    for _ in range(100):
        r, _ = symplectic_polar(random_symplectic(rng, 2))
        y0 = compact_symplectic_log(r)
        assert np.abs(dense_expm(y0) - r).max() < 1e-9
        assert np.abs(y0 + y0.T).max() < 1e-10
        assert np.abs(y0.T @ omega + omega @ y0).max() < 1e-10


ROTATION_LOG_CASES = {
    "identity-6": np.eye(6),
    "minus-identity-4": -np.eye(4),
    "minus-identity-6": -np.eye(6),
    "two-flips-and-a-one": np.diag([-1.0, -1.0, 1.0]),
    "two-equal-angles": plane_rotation([0.7, 0.7], extra=1),
    "three-equal-angles": plane_rotation([1.1, 1.1, 1.1]),
    "angle-pi-minus-1e-6": plane_rotation([math.pi - 1e-6], extra=1),
    "angle-pi-minus-1e-10": plane_rotation([math.pi - 1e-10], extra=1),
    "angle-pi-minus-1e-13": plane_rotation([math.pi - 1e-13], extra=1),
    "angle-1e-10": plane_rotation([1e-10], extra=1),
    "pi-near-pi-and-small": plane_rotation([math.pi, math.pi - 1e-9, 0.2]),
}


@pytest.mark.parametrize("name", ROTATION_LOG_CASES)
def test_rotation_log_is_accurate_at_and_near_degenerate_angles(name):
    a0 = ROTATION_LOG_CASES[name]
    assert log_error(rotation_log(a0), a0) <= 1e-11
    rng = np.random.default_rng(808)
    for _ in range(8):  # the same rotation in random frames hides its planes
        frame = random_special_orthogonal(rng, a0.shape[0])
        conjugated = frame @ a0 @ frame.T
        assert log_error(rotation_log(conjugated), conjugated) <= 1e-11


def test_rotation_log_random_so6():
    rng = np.random.default_rng(606)
    worst = max(log_error(rotation_log(a0), a0)
                for a0 in (random_special_orthogonal(rng, 6) for _ in range(2000)))
    assert worst <= 1e-11


@pytest.mark.parametrize("phases", [
    [math.pi], [math.pi, math.pi], [math.pi - 1e-10, 0.3],
    [math.pi - 1e-9, -(math.pi - 1e-9)], [0.8, 0.8, 0.8],
], ids=["pi", "pi-pi", "pi-minus-1e-10", "plus-minus-pi-minus-1e-9", "three-equal"])
def test_compact_symplectic_log_is_accurate_near_phase_pi(phases):
    rng = np.random.default_rng(len(phases))
    omega = symplectic_form(len(phases))
    for _ in range(20):
        frame, _ = np.linalg.qr(rng.normal(size=(len(phases),) * 2)
                                + 1j * rng.normal(size=(len(phases),) * 2))
        r = from_unitary((frame * np.exp(1j * np.array(phases))) @ frame.conj().T)
        y0 = compact_symplectic_log(r)
        assert log_error(y0, r) <= 1e-11
        assert np.abs(y0.T @ omega + omega @ y0).max() <= 1e-11


def test_compact_symplectic_log_rejects_non_members():
    swap = np.eye(4)[[1, 0, 2, 3]]  # orthogonal, not symplectic
    for r in (np.diag([2.0, 0.5]), swap, random_special_orthogonal(np.random.default_rng(717), 4),
              1.001 * np.eye(4)):
        with pytest.raises(MembershipError):
            compact_symplectic_log(r)


def test_decompose_identity():
    dec = decompose_rotation(Supermatrix.eye(M_DIM, Q_DIM, ORDER))
    assert dec.compact.norm() == 0.0
    assert dec.symmetric.norm() == 0.0
    assert dec.nilpotent.norm() == 0.0
    assert dec.residual < 1e-14


def test_decompose_nilpotent_rotation():
    nil = random_so0(M_DIM, N_PLANES, ORDER, seed=66).nilpotent_part()
    mat = expm(nil)
    dec = decompose_rotation(mat)
    assert dec.compact.norm() <= 1e-10
    assert dec.symmetric.norm() <= 1e-10
    assert (dec.nilpotent - logm(mat)).norm() <= 1e-10
    assert dec.residual <= 1e-10


def test_decompose_roundtrip_small():
    for seed in range(5):
        mat = random_rotation(M_DIM, N_PLANES, ORDER, seed=seed + 600, factors=3)
        dec = decompose_rotation(mat)
        assert dec.residual <= 1e-8
        again = decompose_rotation(dec.reconstruct())
        assert (again.symmetric - dec.symmetric).norm() <= 1e-8
        assert (again.nilpotent - dec.nilpotent).norm() <= 1e-8


@pytest.mark.parametrize("m, n, order", [(6, 2, 4), (4, 2, 6)])
def test_nilpotent_exponent_has_no_body_blade(m, n, order):
    """Z is the log of the unipotent I + nil(B^-1 M), so neither Z nor the
    third factor of the lift carries body rounding; the residual reports it."""
    rot = random_rotation(m, n, order, seed=1)
    dec = decompose_rotation(rot)
    assert dec.nilpotent.mat.masks and 0 not in dec.nilpotent.mat.masks
    assert dec.residual <= 1e-13
    third = lift_rotation(rot).factors[2]
    assert third.mat.masks and 0 not in third.mat.masks


def eager_decomposition(mat):
    """Oracle of the decomposition as first written: B^-1 by the four-block
    inverse, Z as ``logm`` of I + nil(B^-1 M), and the residual from B exp(Z)."""
    dec = decompose_rotation(mat)
    group_body = expm(dec.compact) @ expm(dec.symmetric)
    nilpotent = logm(Supermatrix.eye(mat.p, mat.q, mat.order)
                     + (group_body.inverse() @ mat).nilpotent_part())
    residual = (group_body @ expm(nilpotent) - mat).norm() / max(1.0, mat.norm())
    return nilpotent, residual


@pytest.mark.parametrize("m, n, order", [(3, 1, 4), (6, 2, 4), (0, 1, 2), (2, 0, 3)])
def test_decompose_matches_the_eager_formula(m, n, order):
    for seed in range(4):
        mat = random_rotation(m, n, order, seed=seed + 40)
        dec = decompose_rotation(mat)
        nilpotent, residual = eager_decomposition(mat)
        assert abs(dec.residual - residual) <= 1e-15
        assert (dec.nilpotent - nilpotent).norm() <= 1e-15 * max(1.0, nilpotent.norm())


def test_lift_exponentiates_only_the_two_body_factors(monkeypatch):
    """lift_rotation forms exp(X) and exp(Y), both body-only, and neither
    exp(Z) nor the reconstruction that decompose_rotation's residual needs."""
    from superspin import orthosymplectic, spin, supermatrix

    mat, arguments = random_rotation(6, 2, 4, seed=3), []

    def counting_expm(x):
        arguments.append(x)
        return expm(x)

    for module in (orthosymplectic, spin, supermatrix):
        monkeypatch.setattr(module, "expm", counting_expm)
    lift_rotation(mat)
    assert len(arguments) == 2
    assert all(set(x.mat.masks) <= {0} for x in arguments)
    arguments.clear()
    decompose_rotation(mat)
    assert len(arguments) == 3


def stretched_rotation(stretch, nilpotent):
    """diag(I_3, stretch, 1/stretch), times exp of a bodiless so_0 element
    when ``nilpotent``, at (3, 1, 4): a superrotation whose symplectic body
    has condition number stretch^2."""
    body = np.eye(5)
    body[3, 3], body[4, 4] = stretch, 1.0 / stretch
    mat = Supermatrix.from_body(3, 2, body, 4)
    if nilpotent:
        mat = mat @ expm(random_so0(3, 1, 4, seed=7).nilpotent_part())
    return mat


@pytest.mark.parametrize("nilpotent", [False, True], ids=["body", "with-nilpotent"])
@pytest.mark.parametrize("stretch", [1e6, 1e7, 1e8])
def test_stretched_superrotations_decompose_and_lift(stretch, nilpotent):
    """B = exp(X) exp(Y) is invertible by construction, so the split inverts
    it with no condition-number gate, however far exp(Y) stretches."""
    from superspin import action_matrix

    mat = stretched_rotation(stretch, nilpotent)
    dec = decompose_rotation(mat)
    assert dec.residual <= 1e-13
    assert abs(np.abs(dec.symmetric.body_matrix()).max() - math.log(stretch)) <= 1e-12
    assert (dec.nilpotent.norm() > 0.0) == nilpotent
    lifted = lift_rotation(mat)
    assert (action_matrix(lifted) - mat).norm() <= 1e-13 * mat.norm()


def test_decompose_rejects_non_members():
    with pytest.raises(MembershipError):
        decompose_rotation(random_supermatrix(M_DIM, N_PLANES, ORDER, seed=5))


def test_standard_osp_form():
    zero = Supermatrix.zeros(M_DIM, Q_DIM, ORDER)
    assert osp_standard_form(zero).norm() == 0.0
    for seed in range(5):
        x = random_so0(M_DIM, N_PLANES, ORDER, seed=seed + 700)
        y = osp_standard_form(x)
        assert osp_defect(y) <= 1e-10 * max(1.0, y.norm())
    x1 = random_so0(M_DIM, N_PLANES, ORDER, seed=801)
    x2 = random_so0(M_DIM, N_PLANES, ORDER, seed=802)
    bracket = x1 @ x2 - x2 @ x1
    lhs = osp_standard_form(bracket)
    y1, y2 = osp_standard_form(x1), osp_standard_form(x2)
    rhs = y1 @ y2 - y2 @ y1
    assert (lhs - rhs).norm() <= 1e-10 * max(1.0, lhs.norm())


def test_standard_osp_rejects_non_algebra():
    with pytest.raises(MembershipError):
        osp_standard_form(Supermatrix.eye(M_DIM, Q_DIM, ORDER))


def test_degenerate_signatures_decompose_and_lift():
    # pure symplectic (m = 0), pure bosonic (n = 0), scalar coefficients
    # (order 0) and the empty (0|0) rotation all stay inside the same code paths
    from superspin import action_matrix, lift_rotation

    for m, n, order in ((0, 1, 2), (3, 0, 2), (2, 1, 0), (0, 0, 0), (0, 0, 2)):
        mat = random_rotation(m, n, order, seed=5, factors=2)
        assert check_so0(mat, 1e-9).ok
        dec = decompose_rotation(mat)
        assert dec.residual <= 1e-9
        lifted = lift_rotation(mat)
        assert (action_matrix(lifted) - mat).norm() <= 1e-9 * max(1.0, mat.norm())


def test_random_generators_membership_and_determinism():
    x = random_so0(M_DIM, N_PLANES, ORDER, seed=900)
    assert check_so0_algebra(x, 1e-12).ok
    mat = random_rotation(M_DIM, N_PLANES, ORDER, seed=901)
    assert check_so0(mat, 1e-9).ok
    assert x.to_dict() == random_so0(M_DIM, N_PLANES, ORDER, seed=900).to_dict()
    assert mat.to_dict() == random_rotation(M_DIM, N_PLANES, ORDER, seed=901).to_dict()


@pytest.mark.parametrize("generator", [random_so0, random_rotation, random_supermatrix])
@pytest.mark.parametrize("m, n, order, error", [
    (1, 1, -1, OrderMismatchError), (1, 1, 17, OrderMismatchError),
    (-1, 1, 2, ShapeMismatchError), (1, -1, 2, ShapeMismatchError),
], ids=["order-negative", "order-17", "m-negative", "n-negative"])
def test_seeded_generators_check_their_signature(generator, m, n, order, error):
    """As ``random_supervector`` does: no bare numpy error, and no order
    above MAX_ORDER."""
    with pytest.raises(error):
        generator(m, n, order, seed=1)


@pytest.mark.parametrize("helper, block", [
    (rotation_log, np.zeros((3, 2))), (rotation_log, np.zeros(3)),
    (symplectic_polar, np.eye(3)), (symplectic_polar, np.zeros((2, 4))),
    (to_unitary, np.eye(3)), (compact_symplectic_log, np.eye(3)),
], ids=["log-3x2", "log-vector", "polar-3x3", "polar-2x4", "unitary-3x3", "compact-3x3"])
def test_body_helpers_refuse_a_block_of_the_wrong_shape(helper, block):
    with pytest.raises(ShapeMismatchError):
        helper(block)


@pytest.mark.parametrize("helper", [rotation_log, symplectic_polar, to_unitary,
                                    compact_symplectic_log])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_body_helpers_refuse_a_non_finite_block_without_a_warning(helper, value):
    block = np.eye(2)
    block[0, 1] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AlgebraError, match="not finite"):
            helper(block)
