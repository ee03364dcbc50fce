"""The internal membership checks of decompose_rotation, lift_rotation and
action_matrix: bad input keeps its error class and exit code, the
Berezinian taken from the split agrees with ``sdet``, the internal verdicts
agree with ``check_so0``, and each internal check makes one heavy product."""

import functools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from superspin import (
    ExtendedSuperbivector,
    GrassmannNumber,
    MembershipError,
    SpinElement,
    Supermatrix,
    Supervector,
    action_matrix,
    check_so0,
    clifford,
    decompose_rotation,
    fractional_fourier,
    grassmann,
    lift_rotation,
    orthosymplectic,
    random_rotation,
    random_sphere_vector,
    random_supermatrix,
    reflection_matrix,
    spin,
    supermatrix,
)
from superspin.cli import main
from superspin.grassmann import DEFAULT_TOL, _blade_product
from superspin.orthosymplectic import _residuals, _split_rotation
from superspin.selftest import DEFAULT_SEED
from superspin.supermatrix import _q_gram_body

M, N_PLANES, ORDER = 3, 1, 4


def _reflection():
    """In O_0 with sdet -1."""
    return reflection_matrix(random_sphere_vector(M, N_PLANES, ORDER, seed=12))


def _scaled_rotation():
    """A rotation times the even scalar 1 + 0.1 theta_1 theta_2."""
    factor = GrassmannNumber(ORDER, {0: 1.0, 0b11: 0.1})
    return random_rotation(M, N_PLANES, ORDER, seed=13).scale(factor)


def _random_matrix():
    return random_supermatrix(M, N_PLANES, ORDER, seed=14)


def _odd_q():
    return Supermatrix.eye(M, 1, ORDER)


BAD_INPUTS = {"reflection": _reflection, "scaled-rotation": _scaled_rotation,
              "random-supermatrix": _random_matrix, "odd-q": _odd_q}


@pytest.mark.parametrize("build", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
@pytest.mark.parametrize("split", [decompose_rotation, lift_rotation])
def test_bad_input_raises_membership_error(split, build):
    with pytest.raises(MembershipError):
        split(build())


@pytest.mark.parametrize("build", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
@pytest.mark.parametrize("command", ["decompose", "lift"])
def test_bad_input_is_a_domain_violation_on_the_cli(capsys, tmp_path, command, build):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(build().to_dict()))
    code = main([command, "-i", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("domain violation: ")


# -- the Berezinian from the split ----------------------------------------------


def _berezinian_and_bound(mat):
    """det A0 / det D0 * exp(str Z) from the split's Z, and the product-free
    bound |r - 1| + |r| (exp|str Z| - 1) on its deviation from 1 that the
    split compares with tol."""
    m = mat.p
    nilpotent = _split_rotation(mat, DEFAULT_TOL)[2]
    body = mat.body_matrix().real
    ratio = float(np.linalg.det(body[:m, :m]) / np.linalg.det(body[m:, m:]))
    strace = nilpotent.supertrace()
    return (strace.exp() * ratio,
            abs(ratio - 1.0) + abs(ratio) * math.expm1(strace.norm()))


@pytest.mark.parametrize("m, n, order", [
    (3, 1, 4), (6, 2, 4), (6, 2, 6), (0, 1, 4), (3, 0, 4), (3, 1, 0), (3, 1, 1)])
def test_the_split_berezinian_is_sdet(m, n, order):
    """Within 1e-12 relative to max(1, |M|), the scale of the membership
    tolerances: the split inverts B0, not M0, and str Z carries their
    difference times |Z| (up to 1.4e-11 absolute at (6, 2, 6))."""
    for seed in range(3):
        mat = random_rotation(m, n, order, seed=seed)
        berezinian, bound = _berezinian_and_bound(mat)
        assert (berezinian - mat.sdet()).norm() <= 1e-12 * max(1.0, mat.norm())
        assert (berezinian - 1.0).norm() <= bound * (1.0 + 1e-12)


def test_a_bound_past_tol_leaves_the_verdict_to_sdet():
    """A valid rotation whose product-free bound exceeds tol while its sdet
    does not is accepted, as check_so0 accepts it."""
    mat = random_rotation(6, 2, 5, seed=0)
    _, bound = _berezinian_and_bound(mat)
    deviation = (mat.sdet() - 1.0).norm()
    tol = math.sqrt(bound * deviation)
    assert deviation < tol < bound
    assert check_so0(mat, tol).ok
    assert _split_verdict(mat, tol)
    lift_rotation(mat, tol)


# -- internal verdicts against check_so0 ----------------------------------------


def _split_verdict(mat, tol):
    try:
        _split_rotation(mat, tol)
    except MembershipError:
        return False
    return True


def _so0_verdict(mat, tol):
    try:
        return check_so0(mat, tol).ok
    except MembershipError:  # odd q
        return False


def _action_verdicts(element, tol=1e-8):
    """(action_matrix's residual verdict, check_so0's) on the product."""
    product = action_matrix(element, math.inf)
    return (_residuals(product, _q_gram_body(element.m, element.n), True, tol)[2],
            check_so0(product, tol).ok)


GOLDEN = Path(__file__).parent / "golden"


def test_verdicts_agree_on_the_golden_corpus():
    payloads = {path.stem: json.loads(path.read_text()) for path in GOLDEN.glob("*.json")}
    matrices = [Supermatrix.from_dict(data) for data in payloads.values() if "rows" in data]
    matrices += [Supermatrix.from_dict(payloads["act"]["matrix"]),
                 reflection_matrix(Supervector.from_dict(payloads["reflect"]["w"]))]
    verdicts = [(_split_verdict(mat, DEFAULT_TOL), _so0_verdict(mat, DEFAULT_TOL))
                for mat in matrices]
    assert all(ours == theirs for ours, theirs in verdicts)
    assert {ours for ours, _ in verdicts} == {True, False}
    biv = ExtendedSuperbivector.from_dict(payloads["phi"])
    elements = [lift_rotation(Supermatrix.from_dict(payloads[name]))
                for name in ("decompose", "lift")]
    elements.append(SpinElement(biv.m, biv.n, biv.order, [biv]))
    assert all(ours == theirs for ours, theirs in map(_action_verdicts, elements))


def test_verdicts_agree_on_the_selftest_inputs():
    seed = DEFAULT_SEED
    rotations = [random_rotation(3, 1, 4, seed=seed * 100 + 57 + i, factors=3)
                 for i in range(50)]
    matrices = rotations + [decompose_rotation(mat).reconstruct() for mat in rotations]
    matrices += [random_supermatrix(3, 2, 4, seed=seed * 100 + i, scale=0.2)
                 for i in range(100)]
    matrices += [random_supermatrix(3, 2, 4, seed=seed * 100 + 7000 + i, scale=0.3)
                 for i in range(100)]
    matrices += [reflection_matrix(random_sphere_vector(3, 1, 4, seed=seed * 100 + 31 + i))
                 for i in range(50)]
    matrices.append(reflection_matrix(random_sphere_vector(3, 0, 2, seed=seed + 77)))
    for mat in matrices:
        assert _split_verdict(mat, DEFAULT_TOL) == _so0_verdict(mat, DEFAULT_TOL)
    elements = [lift_rotation(mat) for mat in rotations]
    elements += [fractional_fourier([2.0] * n, 3, 2) for n in (1, 2, 3)]
    for ours, theirs in map(_action_verdicts, elements):
        assert ours == theirs


@settings(max_examples=60)
@given(shape=st.sampled_from([(3, 1, 4), (6, 2, 4), (2, 1, 3)]),
       seed=st.integers(0, 30), size=st.floats(0.25, 4.0),
       blades=st.sampled_from([0b11, 0b101, 0b110]))
def test_verdicts_agree_around_tol(shape, seed, size, blades):
    """A rotation times 1 + size * tol * theta_i theta_j: sdet moves by about
    (p - q) size tol, and the residuals by about 2 size tol |Q|.  Examples
    whose sdet deviation lies within 1e-3 tol of tol are left out: there the
    split's Berezinian and sdet, which differ by rounding (about 3e-13 at
    (6, 2, 4)), may fall on either side."""
    m, n, order = shape
    factor = GrassmannNumber(order, {0: 1.0, blades: size * DEFAULT_TOL})
    mat = random_rotation(m, n, order, seed=seed).scale(factor)
    report = check_so0(mat, DEFAULT_TOL)
    assume(abs(report.sdet_deviation - DEFAULT_TOL) > 1e-3 * DEFAULT_TOL)
    assert _split_verdict(mat, DEFAULT_TOL) == report.ok


# -- heavy products ----------------------------------------------------------------


@pytest.mark.parametrize("order", [4, 6, 8])
@pytest.mark.parametrize("command", ["decompose", "lift", "action_matrix"])
def test_each_internal_check_makes_one_heavy_product(monkeypatch, command, order):
    """A heavy product is a kernel product where neither operand is body-only.
    The check is the group ``_residuals`` and whatever ``sdet`` or Grassmann
    ``exp`` a Berezinian would take: together they make exactly one.  (The
    algebra checks of ``matrix_to_bivector`` make none.)"""
    mat = random_rotation(6, 2, order, seed=5)
    call = {"decompose": lambda: decompose_rotation(mat),
            "lift": lambda: lift_rotation(mat),
            "action_matrix": functools.partial(action_matrix, lift_rotation(mat))}[command]
    depth, inside, checks = [0], [], []

    def counted(op, masks_a, a_stack, masks_b, b_stack, order, shape):
        if masks_a != (0,) and masks_b != (0,):
            inside.append(depth[0] > 0)
        return _blade_product(op, masks_a, a_stack, masks_b, b_stack, order, shape)

    def in_check(function, record=False):
        def wrapped(*args, **kwargs):
            if record and args[2]:
                checks.append(function.__name__)
            depth[0] += 1
            try:
                return function(*args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapped

    for module in (grassmann, supermatrix, orthosymplectic, clifford):
        monkeypatch.setattr(module, "_blade_product", counted)
    residuals = in_check(orthosymplectic._residuals, record=True)
    for module in (orthosymplectic, spin):
        monkeypatch.setattr(module, "_residuals", residuals)
    monkeypatch.setattr(Supermatrix, "sdet", in_check(Supermatrix.sdet))
    monkeypatch.setattr(GrassmannNumber, "exp", in_check(GrassmannNumber.exp))
    call()
    assert checks == ["_residuals"]
    assert sum(inside) == 1
