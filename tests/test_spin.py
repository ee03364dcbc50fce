"""Spin elements: the rotation representation, the generator split, lifts,
oscillator exponentials and the double-cover kernel."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from superspin import (
    AlgebraError,
    CapExceededError,
    CliffordElement,
    ExtendedSuperbivector,
    GrassmannNumber,
    MembershipError,
    OrderMismatchError,
    ShapeMismatchError,
    SpinElement,
    Supermatrix,
    action_matrix,
    bivector_to_matrix,
    clifford_exp,
    fractional_fourier,
    kernel_sign,
    ladder_pair,
    lift_rotation,
    oscillator_exp,
    oscillator_power,
    random_grassmann,
    random_rotation,
    random_sphere_vector,
    random_supervector,
    reflection_matrix,
    split_bivector,
    stirling2,
)
from superspin.clifford import apply_matrix

M_DIM, N_PLANES, ORDER = 2, 1, 2


def scal(value, order=ORDER):
    return GrassmannNumber.scalar(order, value)


def nilpotent_bivector(seed, m=M_DIM, n=N_PLANES, order=ORDER, scale=0.4):
    rng = np.random.default_rng(seed)
    b = {(j, k): random_grassmann(rng, order, parity="even", scale=scale,
                                  grade_min=2)
         for j in range(1, m + 1) for k in range(j + 1, m + 1)}
    bq = {(j, u): random_grassmann(rng, order, parity="odd", scale=scale)
          for j in range(1, m + 1) for u in range(1, 2 * n + 1)}
    bb = {(u, v): random_grassmann(rng, order, parity="even", scale=scale,
                                   grade_min=2)
          for u in range(1, 2 * n + 1) for v in range(u, 2 * n + 1)}
    return ExtendedSuperbivector(m, n, order, b, bq, bb)


def test_identity_element_acts_trivially():
    element = SpinElement.identity(M_DIM, N_PLANES, ORDER)
    acted = action_matrix(element)
    assert (acted - Supermatrix.eye(M_DIM, 2 * N_PLANES, ORDER)).norm() == 0.0


def test_single_bosonic_factor_rotates_by_twice_the_parameter():
    t = 0.37
    factor = ExtendedSuperbivector(M_DIM, N_PLANES, ORDER, b={(1, 2): scal(t)})
    acted = action_matrix(SpinElement(M_DIM, N_PLANES, ORDER, [factor]))
    body = acted.body_matrix().real
    assert abs(body[0, 0] - math.cos(2 * t)) < 1e-12
    assert abs(body[1, 0] - math.sin(2 * t)) < 1e-12
    assert np.abs(body[2:, 2:] - np.eye(2)).max() < 1e-12


def test_action_is_a_homomorphism():
    s1 = SpinElement(M_DIM, N_PLANES, ORDER, [nilpotent_bivector(1)])
    s2 = SpinElement(M_DIM, N_PLANES, ORDER,
                     [ExtendedSuperbivector(M_DIM, N_PLANES, ORDER,
                                            b={(1, 2): scal(0.4)})])
    lhs = action_matrix(s1 * s2)
    rhs = action_matrix(s1) @ action_matrix(s2)
    assert (lhs - rhs).norm() <= 1e-12 * max(1.0, lhs.norm())


def test_nilpotent_action_matches_clifford_conjugation():
    # for nilpotent generators both exponentials are finite sums, so the
    # conjugation can be evaluated exactly inside the capped algebra; the
    # identity holds on parity-valid supervectors (odd fermionic coordinates)
    for seed in range(5):
        biv = nilpotent_bivector(seed)
        rotation = action_matrix(SpinElement(M_DIM, N_PLANES, ORDER, [biv]))
        plus = clifford_exp(biv.to_clifford(12))
        minus = clifford_exp((-biv).to_clifford(12))
        for vec_seed in range(3):
            vec = random_supervector(M_DIM, N_PLANES, ORDER,
                                     seed=1000 * seed + vec_seed)
            conjugated = (plus * vec.to_clifford(12) * minus).as_supervector(tol=1e-11)
            assert (conjugated - apply_matrix(rotation, vec)).norm() <= 1e-11


def test_infinitesimal_representation_by_finite_differences():
    rng_bivs = [nilpotent_bivector(3),
                ExtendedSuperbivector(M_DIM, N_PLANES, ORDER,
                                      b={(1, 2): scal(0.9)},
                                      bb={(1, 2): scal(0.3)})]
    h = 1e-5
    for biv in rng_bivs:
        plus = action_matrix(SpinElement(M_DIM, N_PLANES, ORDER, [biv.scale(h)]))
        minus = action_matrix(SpinElement(M_DIM, N_PLANES, ORDER, [biv.scale(-h)]))
        derivative = (plus - minus).scale(1.0 / (2 * h))
        assert (derivative - bivector_to_matrix(biv)).norm() <= 1e-6


def test_split_sends_each_family_to_its_component():
    bos = ExtendedSuperbivector(M_DIM, N_PLANES, ORDER, b={(1, 2): scal(1.0)})
    parts = split_bivector(bos)
    assert parts.compact.norm() == bos.norm()
    assert parts.symmetric.norm() == 0.0 and parts.nilpotent.norm() == 0.0

    mixed_plane = ExtendedSuperbivector(M_DIM, N_PLANES, ORDER,
                                        bb={(1, 2): scal(1.0)})
    parts = split_bivector(mixed_plane)
    assert parts.symmetric.norm() == mixed_plane.norm()
    assert parts.compact.norm() == 0.0 and parts.nilpotent.norm() == 0.0

    f12 = GrassmannNumber.blade(ORDER, 0b11)
    nil = ExtendedSuperbivector(M_DIM, N_PLANES, ORDER, b={(1, 2): f12})
    parts = split_bivector(nil)
    assert parts.nilpotent.norm() == nil.norm()
    assert parts.compact.norm() == 0.0 and parts.symmetric.norm() == 0.0


def test_split_reassembles_and_characterizes_images():
    rng = np.random.default_rng(7)
    for seed in range(5):
        biv = ExtendedSuperbivector(
            M_DIM, N_PLANES, ORDER,
            b={(1, 2): random_grassmann(rng, ORDER, parity="even")},
            bq={(j, u): random_grassmann(rng, ORDER, parity="odd")
                for j in (1, 2) for u in (1, 2)},
            bb={(u, v): random_grassmann(rng, ORDER, parity="even")
                for u in (1, 2) for v in (u, 2)},
        )
        parts = split_bivector(biv)
        assert (parts.total() - biv).norm() <= 1e-13
        compact = bivector_to_matrix(parts.compact).body_matrix().real
        assert np.abs(compact + compact.T).max() < 1e-12
        symmetric = bivector_to_matrix(parts.symmetric).body_matrix().real
        assert np.abs(symmetric - symmetric.T).max() < 1e-12
        assert np.abs(symmetric[:M_DIM, :M_DIM]).max() == 0.0
        nil = bivector_to_matrix(parts.nilpotent)
        assert np.abs(nil.body_matrix()).max() < 1e-12


def test_lift_of_identity_and_plane_rotation():
    order = 4
    eye = Supermatrix.eye(2, 2, order)
    element = lift_rotation(eye)
    assert all(f.norm() == 0.0 for f in element.factors)
    theta = 0.9
    body = np.eye(4, dtype=complex)
    body[0, 0] = body[1, 1] = math.cos(theta)
    body[0, 1], body[1, 0] = -math.sin(theta), math.sin(theta)
    rotation = Supermatrix.from_body(2, 2, body, order)
    element = lift_rotation(rotation)
    first = element.factors[0]
    assert (first.b[(1, 2)] - theta / 2).norm() < 1e-12
    assert not first.bq and not first.bb
    assert element.factors[1].norm() == 0.0
    assert element.factors[2].norm() == 0.0


def test_lift_covers_small_sample():
    for seed in range(3):
        mat = random_rotation(3, 1, 4, seed=seed + 40, factors=3)
        element = lift_rotation(mat)
        assert (action_matrix(element) - mat).norm() <= 1e-8 * max(1.0, mat.norm())


def test_ladder_commutator_is_central():
    a, b = ladder_pair(M_DIM, N_PLANES, ORDER, 1)
    bracket = a * b - b * a
    expected = CliffordElement.scalar(M_DIM, N_PLANES, ORDER, 2j)
    assert (bracket - expected).norm() <= 1e-15


def test_ladder_power_bracket_rule():
    # [b^k, a] = -2ik b^{k-1}
    a, b = ladder_pair(M_DIM, N_PLANES, ORDER, 1, cap=10)
    b_pow = b
    for k in range(1, 5):
        if k > 1:
            b_pow = b_pow * b
        bracket = b_pow * a - a * b_pow
        b_prev = CliffordElement.scalar(M_DIM, N_PLANES, ORDER, 1.0, cap=10)
        for _ in range(k - 1):
            b_prev = b_prev * b
        expected = b_prev * (-2j * k)
        assert (bracket - expected).norm() <= 1e-12


def test_stirling_numbers_match_recurrence():
    table = {(0, 0): 1}
    for k in range(1, 8):
        for j in range(1, k + 1):
            table[(k, j)] = table.get((k - 1, j - 1), 0) + j * table.get((k - 1, j), 0)
    for (k, j), value in table.items():
        assert stirling2(k, j) == value


def test_oscillator_power_small_cases():
    a, b = ladder_pair(M_DIM, N_PLANES, ORDER, 1, cap=8)
    assert (oscillator_power(1, 1, M_DIM, N_PLANES, ORDER) - a * b).norm() == 0.0
    lhs = oscillator_power(2, 1, M_DIM, N_PLANES, ORDER)
    rhs = a * a * b * b + (a * b) * -2j
    assert (lhs - rhs).norm() <= 1e-13
    lhs = oscillator_power(3, 1, M_DIM, N_PLANES, ORDER)
    rhs = (a * a * a) * (b * b * b) + (a * a * b * b) * (-6j) + (a * b) * -4.0
    assert (lhs - rhs).norm() <= 1e-12


def test_oscillator_power_matches_brute_force():
    a, b = ladder_pair(M_DIM, N_PLANES, ORDER, 1, cap=8)
    product = a * b
    brute = CliffordElement.scalar(M_DIM, N_PLANES, ORDER, 1.0)
    for k in range(1, 5):
        brute = brute * product
        assert (oscillator_power(k, 1, M_DIM, N_PLANES, ORDER) - brute).norm() <= 1e-12


def test_oscillator_exp_special_angles():
    zero = oscillator_exp(0.0, 1, M_DIM, N_PLANES, ORDER)
    assert (zero.element - CliffordElement.scalar(M_DIM, N_PLANES, ORDER, 1.0)).norm() == 0.0
    assert zero.truncation_bound == 0.0
    pi_val = oscillator_exp(math.pi, 1, M_DIM, N_PLANES, ORDER)
    assert (pi_val.element + CliffordElement.scalar(M_DIM, N_PLANES, ORDER, 1.0)).norm() == 0.0
    assert pi_val.truncation_bound == 0.0
    two_pi = oscillator_exp(2 * math.pi, 1, M_DIM, N_PLANES, ORDER)
    assert (two_pi.element - CliffordElement.scalar(M_DIM, N_PLANES, ORDER, 1.0)).norm() == 0.0


def _ladder_series_coefficients(theta, jmax):
    """Sum exp(theta * ab) in the ladder basis using only the recursion
    a^j b^j * ab = a^{j+1} b^{j+1} - 2ij a^j b^j (cross-checked elsewhere
    against the Clifford engine)."""
    coeffs = [1.0 + 0.0j] + [0.0j] * jmax
    term = coeffs[:]
    for k in range(1, 400):
        shifted = [0.0j] * (jmax + 1)
        for j in range(jmax + 1):
            if term[j] == 0:
                continue
            if j + 1 <= jmax:
                shifted[j + 1] += term[j]
            shifted[j] += -2j * j * term[j]
        term = [c * theta / k for c in shifted]
        coeffs = [c + t for c, t in zip(coeffs, term)]
        if max(abs(t) for t in term) < 1e-18:
            break
    return coeffs


def test_oscillator_exp_generic_angle_against_ladder_series():
    theta = math.pi / 2
    cap = 8
    expansion = oscillator_exp(theta, 1, M_DIM, N_PLANES, ORDER, cap=cap)
    jmax = cap // 2
    coeffs = _ladder_series_coefficients(theta, jmax)
    prefactor = cmath.exp(-1j * theta)
    a, b = ladder_pair(M_DIM, N_PLANES, ORDER, 1, cap=cap)
    oracle = CliffordElement.scalar(M_DIM, N_PLANES, ORDER,
                                    prefactor * coeffs[0], cap)
    a_j, b_j = a, b
    for j in range(1, jmax + 1):
        if j > 1:
            a_j = a_j.multiply(a, strict=True)
            b_j = b_j.multiply(b, strict=True)
        oracle = oracle + a_j.multiply(b_j, strict=True) * (prefactor * coeffs[j])
    assert (expansion.element - oracle).norm() <= 1e-9 * max(1.0, oracle.norm())
    # the ladder-basis constant component is the pure phase e^{-i theta}
    assert abs(prefactor * coeffs[0] - -1j) < 1e-12
    assert expansion.truncation_bound <= abs(cmath.exp(-2j * theta) - 1) ** (jmax + 1)


def reference_oscillator_exp(theta, plane, m, n, order, cap=8):
    """The oscillator exponential with its a^j b^j built by strict Clifford
    products on every call, as the library did before the ladder table."""
    ratio = theta / math.pi
    nearest = round(ratio)
    if abs(ratio - nearest) <= 1e-12:
        value = -1.0 if nearest % 2 else 1.0
        return CliffordElement.scalar(m, n, order, value, cap), 0.0
    phase = cmath.exp(-2j * theta) - 1.0
    prefactor = cmath.exp(-1j * theta)
    jmax = cap // 2
    total = CliffordElement.scalar(m, n, order, 1.0, cap)
    a, b = ladder_pair(m, n, order, plane, cap)
    a_j, b_j = a, b
    minus_two_i = complex(0.0, -2.0)
    for j in range(1, jmax + 1):
        if j > 1:
            a_j = a_j.multiply(a, strict=True)
            b_j = b_j.multiply(b, strict=True)
        coeff = (minus_two_i ** (-j)) * (phase ** j) / math.factorial(j)
        total = total + a_j.multiply(b_j, strict=True) * coeff
    bound = (abs(phase) ** (jmax + 1)
             / math.factorial(jmax + 1) / 2.0 ** (jmax + 1))
    return total * prefactor, bound


def reference_oscillator_power(k, plane, m, n, order, cap=8):
    """(ab)^k by the Stirling sum over per-call products a^j and b^j."""
    a, b = ladder_pair(m, n, order, plane, cap)
    a_pow = {1: a}
    b_pow = {1: b}
    for j in range(2, k + 1):
        a_pow[j] = a_pow[j - 1].multiply(a, strict=True)
        b_pow[j] = b_pow[j - 1].multiply(b, strict=True)
    total = CliffordElement.zero(m, n, order, cap)
    minus_two_i = complex(0.0, -2.0)
    for j in range(1, k + 1):
        coeff = (minus_two_i ** (k - j)) * stirling2(k, j)
        total = total + a_pow[j].multiply(b_pow[j], strict=True) * coeff
    return total


def assert_same_element(got, want):
    assert (got.m, got.n, got.order, got.cap) == (want.m, want.n, want.order, want.cap)
    assert got.truncated == want.truncated
    assert set(got.terms) == set(want.terms)
    for key, coeff in want.terms.items():
        assert set(got.terms[key].terms) == set(coeff.terms)
        for mask, value in coeff.terms.items():
            assert abs(got.terms[key].terms[mask] - value) <= 1e-15


@settings(max_examples=150)
@given(m=st.sampled_from([0, 4]), n=st.integers(1, 3), plane=st.integers(1, 3),
       order=st.sampled_from([0, 1, 4]), cap=st.integers(0, 10),
       theta=st.floats(-10.0, 10.0))
@example(m=4, n=2, plane=2, order=4, cap=8, theta=math.pi)
@example(m=0, n=1, plane=1, order=0, cap=0, theta=-3 * math.pi)
@example(m=4, n=3, plane=3, order=1, cap=10, theta=2 * math.pi)
@example(m=4, n=2, plane=1, order=4, cap=0, theta=1.3)
def test_oscillator_exp_and_power_match_the_product_oracles(m, n, plane, order, cap, theta):
    assume(plane <= n)
    try:
        want, want_bound = reference_oscillator_exp(theta, plane, m, n, order, cap)
    except CapExceededError:
        with pytest.raises(CapExceededError):
            oscillator_exp(theta, plane, m, n, order, cap)
    else:
        got = oscillator_exp(theta, plane, m, n, order, cap)
        assert got.truncation_bound == want_bound
        assert_same_element(got.element, want)
    for k in range(1, cap // 2 + 1):
        assert_same_element(oscillator_power(k, plane, m, n, order, cap),
                            reference_oscillator_power(k, plane, m, n, order, cap))


def test_oscillator_results_do_not_alias_the_table():
    first = oscillator_exp(1.3, 2, 4, 2, 4).element
    power = oscillator_power(2, 2, 4, 2, 4)
    want_exp, want_power = first.to_dict(), power.to_dict()
    for element in (first, power):
        key = next(iter(element.terms))
        element.terms[key].terms[0] = 99.0
        element.terms.clear()
        element.truncated = True
    assert oscillator_exp(1.3, 2, 4, 2, 4).element.to_dict() == want_exp
    assert oscillator_power(2, 2, 4, 2, 4).to_dict() == want_power


def test_warm_oscillator_calls_make_no_clifford_product(monkeypatch):
    calls = []
    multiply = CliffordElement.multiply

    def counting(self, other, strict=False):
        calls.append(strict)
        return multiply(self, other, strict)

    monkeypatch.setattr(CliffordElement, "multiply", counting)
    oscillator_exp(0.7, 1, 3, 2, 2, cap=6)
    warm = len(calls)
    oscillator_exp(-2.1, 1, 3, 2, 2, cap=6)
    oscillator_exp(0.4, 1, 1, 2, 4, cap=6)
    oscillator_power(3, 1, 2, 2, 0, cap=6)
    assert len(calls) == warm


@pytest.mark.parametrize("args, error", [
    ((math.pi, 5, 4, 2, 4), ShapeMismatchError),
    ((math.pi, 0, 4, 2, 4), ShapeMismatchError),
    ((math.pi, 1, -1, 2, 4), ShapeMismatchError),
    ((1.3, 1, 4, -2, 4), ShapeMismatchError),
    ((math.pi, 1, 4, 2, 17), OrderMismatchError),
    ((math.nan, 1, 4, 2, 4), AlgebraError),
    ((math.inf, 1, 4, 2, 4), AlgebraError),
    ((-math.inf, 1, 4, 2, 4), AlgebraError),
])
def test_oscillator_exp_validates_before_the_telescoping_shortcut(args, error):
    with pytest.raises(error):
        oscillator_exp(*args)


def test_kernel_sign_fixed_cases():
    m, n, order = 3, 2, 2
    pi_coeff = GrassmannNumber.scalar(order, math.pi)
    sigma = ExtendedSuperbivector(m, n, order,
                                  bb={(1, 1): pi_coeff, (2, 2): pi_coeff})
    assert kernel_sign(sigma) == -1
    assert kernel_sign(ExtendedSuperbivector(m, n, order,
                                             b={(1, 2): pi_coeff})) == -1
    assert kernel_sign(ExtendedSuperbivector.zero(m, n, order)) == 1
    twice = ExtendedSuperbivector(m, n, order,
                                  b={(1, 2): GrassmannNumber.scalar(order,
                                                                    2 * math.pi)})
    assert kernel_sign(twice) == 1
    assert kernel_sign(ExtendedSuperbivector(m, n, order,
                                             b={(1, 2): scal(0.5, order)})) is None


def test_kernel_sign_requires_compact_generator():
    with pytest.raises(MembershipError):
        kernel_sign(nilpotent_bivector(5))


def test_kernel_sign_on_conjugated_winding_element():
    # hide the plane structure behind a compact symplectic rotation; the sign
    # must still follow the total winding parity read off the eigenangles
    from scipy.linalg import expm as dense_expm

    from superspin import matrix_to_bivector, symplectic_form

    m, n, order = 3, 2, 2
    rng = np.random.default_rng(23)
    omega = symplectic_form(n)
    for windings in ([1, 0], [1, 2], [2, 2], [-1, 2]):
        angles = np.zeros((2 * n, 2 * n))
        for t, k in enumerate(windings):
            angles[2 * t, 2 * t + 1] = 2.0 * math.pi * k
            angles[2 * t + 1, 2 * t] = -2.0 * math.pi * k
        sym = rng.normal(size=(2 * n, 2 * n))
        generator = omega @ (sym + sym.T)
        generator = 0.5 * (generator - generator.T)
        frame = dense_expm(generator)
        body = np.zeros((m + 2 * n, m + 2 * n), dtype=complex)
        body[m:, m:] = frame @ angles @ frame.T
        biv = matrix_to_bivector(Supermatrix.from_body(m, 2 * n, body, order))
        assert kernel_sign(biv) == (-1) ** sum(windings)
        # oracle: the telescoped oscillator exponential at k pi per plane
        sign = 1
        for k in windings:
            factor = oscillator_exp(k * math.pi, 1, m, n, order)
            sign *= int(factor.element.scalar_part().body.real)
        assert kernel_sign(biv) == sign


def test_fractional_fourier_identity_and_quarter_turn():
    element = fractional_fourier([0.0, 0.0], 3, ORDER)
    acted = action_matrix(element)
    assert (acted - Supermatrix.eye(3, 4, ORDER)).norm() <= 1e-12

    element = fractional_fourier([1.0, 0.0], 3, ORDER)
    body = action_matrix(element).body_matrix().real
    expected = np.eye(7)
    expected[3:5, 3:5] = [[-1.0, 0.0], [0.0, -1.0]]
    assert np.abs(body - expected).max() <= 1e-12


def test_fractional_fourier_fourth_power():
    for n in (1, 2):
        element = fractional_fourier([2.0] * n, 3, ORDER)
        acted = action_matrix(element)
        assert (acted - Supermatrix.eye(3, 2 * n, ORDER)).norm() <= 1e-10
        assert kernel_sign(element.factors[0]) == (-1) ** n


def test_bosonic_spin_cannot_reach_symplectic_bodies():
    # products of reflections have identity symplectic body; generic
    # superrotations do not
    m, n, order = 3, 1, 4
    w1 = random_sphere_vector(m, n, order, seed=17)
    w2 = random_sphere_vector(m, n, order, seed=18)
    product = reflection_matrix(w1) @ reflection_matrix(w2)
    body_d = product.body_matrix()[m:, m:].real
    assert np.abs(body_d - np.eye(2 * n)).max() <= 1e-12
    generic = random_rotation(m, n, order, seed=19, factors=2)
    generic_d = generic.body_matrix()[m:, m:].real
    assert np.abs(generic_d - np.eye(2 * n)).max() > 1e-3


def test_spin_element_json_roundtrip():
    element = SpinElement(M_DIM, N_PLANES, ORDER,
                          [nilpotent_bivector(9),
                           ExtendedSuperbivector(M_DIM, N_PLANES, ORDER,
                                                 b={(1, 2): scal(0.25)})])
    again = SpinElement.from_dict(element.to_dict())
    assert len(again.factors) == 2
    for f1, f2 in zip(again.factors, element.factors):
        assert (f1 - f2).norm() == 0.0
