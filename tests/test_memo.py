"""The supersphere measurement a Supervector keeps on itself.  A kept
measurement gives what a fresh vector computes, a new ``mat`` is measured
again, a failed measurement keeps nothing, and a repeated call skips the
kernel product it saves.  phi(B) is kept nowhere: each call builds a new
matrix, so a caller that changes one changes nothing else.  A lifted spin
element keeps exp(phi(B_1)) exp(phi(B_2)); its action is a fresh element's,
bit for bit, with one exponential, and no other element keeps anything."""

import numpy as np
import pytest

from superspin import (
    AlgebraError,
    GrassmannNumber,
    MembershipError,
    SpinElement,
    Supervector,
    action_matrix,
    bivector_to_matrix,
    commutator_action,
    expm,
    lift_rotation,
    matrix_to_bivector,
    random_rotation,
    random_so0,
    random_sphere_vector,
    random_supervector,
    reflect,
    reflection_matrix,
)
from superspin import clifford, spin

M, N, ORDER = 4, 2, 4

TOLS = [(1e-9, 1e-12), (1e-6, 1e-12), (1e-9, 1e-9), (1e-3, 1e-3), (0.0, 0.0), (1.0, 1.0)]


def fresh(vec: Supervector) -> Supervector:
    """A new vector with the same coordinates and nothing kept."""
    return Supervector.from_dict(vec.to_dict())


def near_sphere_vectors():
    """Sphere vectors, and ones off the sphere in the body, in the nilpotent
    part, or both, by amounts that some of ``TOLS`` accept."""
    out = []
    for seed in range(3):
        w = random_sphere_vector(M, N, ORDER, seed=seed)
        out += [w, w.scale(1.0 + 1e-7), w.scale(1.0 + 1e-4),
                w.scale(GrassmannNumber(ORDER, {0: 1.0, 0b0011: 1e-10})),
                w.scale(GrassmannNumber(ORDER, {0: 1.0 + 1e-7, 0b0101: 1e-5}))]
    return out


@pytest.mark.parametrize("first", TOLS)
def test_a_checked_vector_gives_a_fresh_vectors_verdict_at_every_tolerance(first):
    for w in near_sphere_vectors():
        w.on_supersphere(*first)
        for tol, nil_tol in TOLS:
            assert (w.on_supersphere(tol, nil_tol)
                    == fresh(w).on_supersphere(tol, nil_tol)), (first, tol, nil_tol)


def test_the_verdicts_differ_across_tolerances():
    # the grid above reaches both answers, so it compares verdicts, not a constant
    verdicts = {fresh(w).on_supersphere(*tols) for w in near_sphere_vectors() for tols in TOLS}
    assert verdicts == {True, False}


def test_a_non_finite_square_raises_on_every_call():
    w = Supervector.from_coefficients(2, 1, 2, [1e200, 0.0], [GrassmannNumber.zero(2)] * 2)
    x = Supervector.unit(2, 1, 2, 1)
    for _ in range(2):
        with pytest.raises(AlgebraError, match="non-finite"):
            w.on_supersphere()
        with pytest.raises(AlgebraError, match="non-finite"):
            reflect(w, x)
        with pytest.raises(AlgebraError, match="non-finite"):
            reflection_matrix(w)


def test_a_new_mat_is_measured_again():
    w = random_sphere_vector(M, N, ORDER, seed=4)
    off = w.scale(2.0)
    assert w.on_supersphere() and not off.on_supersphere()
    kept = w.mat
    w.mat = off.mat
    assert not w.on_supersphere()
    with pytest.raises(MembershipError):
        reflect(w, random_supervector(M, N, ORDER, seed=5))
    w.mat = kept
    assert w.on_supersphere()


def test_a_new_grading_is_measured_again():
    # the same 8 rows read as (6|1): two odd coordinates become even ones
    w = random_sphere_vector(M, N, ORDER, seed=4)
    assert w.on_supersphere()
    w.m, w.n = M + 2, N - 1
    assert not w.on_supersphere()
    w.m, w.n = M, N
    assert w.on_supersphere()


def test_a_changed_phi_leaves_later_actions_alone():
    biv = matrix_to_bivector(random_so0(M, N, ORDER, seed=1))
    x = random_supervector(M, N, ORDER, seed=3)
    before = commutator_action(biv, x).mat.stack.tobytes()
    phi = bivector_to_matrix(biv)
    phi.mat = phi.mat.scale(2.0)
    assert bivector_to_matrix(biv) is not phi
    assert commutator_action(biv, x).mat.stack.tobytes() == before


def test_a_second_reflection_in_one_mirror_skips_one_kernel_product(wrap_kernel):
    calls = []

    def counted(product, *args, **kwargs):
        calls.append(1)
        return product(*args, **kwargs)

    wrap_kernel(counted)
    w = random_sphere_vector(M, N, ORDER, seed=6)
    x = random_supervector(M, N, ORDER, seed=7)
    counts = []
    for _ in range(3):
        calls.clear()
        out = reflect(w, x)
        counts.append(len(calls))
        assert out.mat.stack.tobytes() == reflect(fresh(w), x).mat.stack.tobytes()
    assert counts[1] == counts[2] == counts[0] - 1


def test_a_vector_measured_by_reflection_matrix_is_not_measured_by_reflect(monkeypatch):
    # CLI reflect builds the mirror matrix and then reflects in the same axis
    w = random_sphere_vector(M, N, ORDER, seed=8)
    x = random_supervector(M, N, ORDER, seed=9)
    reflection_matrix(w)
    measured = []
    real = clifford._inner_stack
    monkeypatch.setattr(clifford, "_inner_stack",
                        lambda a, b: measured.append(a is b) or real(a, b))
    reflect(w, x)
    assert measured == [False]
    assert np.array_equal(reflect(w, x).mat.stack, reflect(fresh(w), x).mat.stack)


def same_bits(a, b) -> bool:
    return (a.mat.masks == b.mat.masks and a.mat.stack.dtype == b.mat.stack.dtype
            and a.mat.stack.tobytes() == b.mat.stack.tobytes())


@pytest.mark.parametrize("m, n, order", [(3, 1, 4), (6, 2, 4), (0, 1, 3), (3, 0, 4),
                                         (2, 1, 0), (1, 1, 1)])
def test_a_lifted_elements_action_is_a_fresh_elements_bit_for_bit(m, n, order):
    for seed in range(3):
        lifted = lift_rotation(random_rotation(m, n, order, seed=seed))
        got = action_matrix(lifted)
        assert same_bits(got, action_matrix(SpinElement(m, n, order, lifted.factors)))
        assert same_bits(got, action_matrix(lifted))


def counting_expm(monkeypatch) -> list:
    calls = []
    monkeypatch.setattr(spin, "expm", lambda x: calls.append(x) or expm(x))
    return calls


def test_a_lifted_elements_action_makes_one_expm_call(monkeypatch):
    lifted = lift_rotation(random_rotation(6, 2, 4, seed=3))
    calls = counting_expm(monkeypatch)
    action_matrix(lifted)
    assert len(calls) == 1
    calls.clear()
    action_matrix(SpinElement(6, 2, 4, lifted.factors))
    assert len(calls) == 3


def test_only_a_lift_keeps_its_body_product(monkeypatch):
    """Products and decoded elements keep nothing, and a lifted element whose
    factors were replaced exponentiates them all again."""
    lifted = lift_rotation(random_rotation(6, 2, 4, seed=4))
    one = SpinElement.identity(6, 2, 4)
    assert lifted._body is not None
    for element in (lifted * one, one * lifted, SpinElement.from_dict(lifted.to_dict())):
        assert element._body is None
    first, second, third = lifted.factors
    lifted.factors = (second, first, third)
    calls = counting_expm(monkeypatch)
    swapped = action_matrix(lifted, tol=float("inf"))
    assert len(calls) == 3
    assert same_bits(swapped, action_matrix(SpinElement(6, 2, 4, (second, first, third)),
                                            tol=float("inf")))
