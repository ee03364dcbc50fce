"""Grassmann-number arithmetic: products, grading, norm, exp/ln."""

import math

import numpy as np
import pytest

from superspin import (
    AlgebraError,
    GrassmannNumber,
    OrderMismatchError,
    SingularBodyError,
    random_grassmann,
)

N = 4


def f(j, order=N):
    return GrassmannNumber.generator(order, j)


def test_generator_products_anticommute():
    assert f(1) * f(2) == GrassmannNumber.blade(N, 0b11)
    assert f(2) * f(1) == GrassmannNumber.blade(N, 0b11, -1.0)
    assert f(1) * f(1) == GrassmannNumber.zero(N)


def test_product_with_square_zero_nilpotent():
    x = 1 + f(1) * f(2)
    y = 2 + f(1) * f(2)
    assert x * y == 2 + 3 * (f(1) * f(2))


def test_three_generator_reordering():
    # f3 f1 f2 needs two transpositions: equals + f1 f2 f3
    lhs = f(3) * (f(1) * f(2))
    assert lhs == GrassmannNumber.blade(N, 0b111)
    # f2 f1 f3: one transposition
    assert f(2) * f(1) * f(3) == GrassmannNumber.blade(N, 0b111, -1.0)


def test_order_mismatch_rejected():
    with pytest.raises(OrderMismatchError):
        f(1, 2) * f(1, 3)


def test_grade_projection():
    x = 1 + f(1) + f(1) * f(2)
    assert x.grade(1) == f(1)
    assert x.grade(0) == GrassmannNumber.one(N)
    assert x.grade(2) == f(1) * f(2)
    assert x.grade(3) == GrassmannNumber.zero(N)


def test_grade_above_order_is_zero():
    rng = np.random.default_rng(0)
    x = random_grassmann(rng, 3, scale=1.0)
    full = GrassmannNumber.zero(3)
    for k in range(3 + 1):
        full = full + x.grade(k)
    assert (full - x).norm() == 0.0
    assert x.grade(5).norm() == 0.0


def test_body_is_a_homomorphism():
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = random_grassmann(rng, N, scale=1.0, real=False)
        y = random_grassmann(rng, N, scale=1.0, real=False)
        assert abs((x * y).body - x.body * y.body) < 1e-12


def test_parity_classification():
    assert (1 + f(1) * f(2)).parity() == "even"
    assert (f(1) + f(1) * f(2) * f(3)).parity() == "odd"
    assert (1 + f(1)).parity() == "mixed"


def test_graded_commutativity():
    rng = np.random.default_rng(2)
    for _ in range(30):
        even_a = random_grassmann(rng, N, parity="even", scale=1.0)
        even_b = random_grassmann(rng, N, parity="even", scale=1.0)
        odd_a = random_grassmann(rng, N, parity="odd", scale=1.0)
        odd_b = random_grassmann(rng, N, parity="odd", scale=1.0)
        assert (even_a * even_b - even_b * even_a).norm() == 0.0
        assert (even_a * odd_a - odd_a * even_a).norm() == 0.0
        assert (odd_a * odd_b + odd_b * odd_a).norm() == 0.0


def test_norm_values_and_submultiplicativity():
    assert (1 + f(1) * f(2)).norm() == 2.0
    assert GrassmannNumber.zero(N).norm() == 0.0
    rng = np.random.default_rng(3)
    for _ in range(100):
        x = random_grassmann(rng, N, scale=1.0, real=False)
        y = random_grassmann(rng, N, scale=1.0, real=False)
        assert (x * y).norm() <= x.norm() * y.norm() + 1e-12


def test_associativity():
    rng = np.random.default_rng(4)
    for _ in range(50):
        x = random_grassmann(rng, N, scale=1.0, real=False)
        y = random_grassmann(rng, N, scale=1.0, real=False)
        z = random_grassmann(rng, N, scale=1.0, real=False)
        lhs = (x * y) * z
        rhs = x * (y * z)
        assert (lhs - rhs).norm() <= 1e-12 * max(1.0, lhs.norm())


def test_exp_values():
    assert GrassmannNumber.zero(N).exp() == GrassmannNumber.one(N)
    blade = f(1) * f(2)
    assert blade.exp() == 1 + blade
    x = GrassmannNumber.scalar(N, math.log(2.0)) + blade
    assert (x.exp() - (2 + 2 * blade)).norm() < 1e-14


def test_log_values():
    assert GrassmannNumber.one(N).log() == GrassmannNumber.zero(N)
    blade = f(1) * f(2)
    assert (1 + blade).log() == blade


def test_exp_log_roundtrip():
    rng = np.random.default_rng(5)
    count = 0
    while count < 100:
        x = random_grassmann(rng, N, scale=0.7, real=False)
        if not 0.5 <= abs(x.body) <= 2.0:
            continue
        count += 1
        assert (x.log().exp() - x).norm() <= 1e-12 * max(1.0, x.norm())


def test_log_requires_nonzero_body():
    with pytest.raises(SingularBodyError):
        f(1).log()
    with pytest.raises(SingularBodyError):
        f(1).inv()


def test_nilpotent_power_vanishes_exactly():
    rng = np.random.default_rng(6)
    for _ in range(20):
        x = random_grassmann(rng, N, scale=1.0).nilpotent()
        power = GrassmannNumber.one(N)
        for _ in range(N + 1):
            power = power * x
        assert power.terms == {}


def test_square_scalar_forces_scalar():
    # scalars square to scalars; anything with a nilpotent part never squares
    # to a nonzero pure scalar
    rng = np.random.default_rng(7)
    for _ in range(1000):
        x = random_grassmann(rng, N, scale=1.0)
        if x.nilpotent().norm() == 0.0:
            continue
        square = x * x
        if square.nilpotent().norm() == 0.0:
            assert abs(square.body) == 0.0


def test_inverse_and_fractional_power():
    rng = np.random.default_rng(8)
    for _ in range(20):
        x = 1.5 + random_grassmann(rng, N, scale=0.4)
        assert (x * x.inv() - 1).norm() < 1e-13
        half = x.fpow(-0.5)
        assert (half * half * x - 1).norm() < 1e-12


def test_series_identities_at_order_six():
    # even nilpotents at N = 6 have a nonzero cube, so every series term
    # up to u^3 matters
    order = 6
    rng = np.random.default_rng(9)
    for _ in range(10):
        a = 0.7 + random_grassmann(rng, order, parity="even", scale=0.5)
        b = random_grassmann(rng, order, parity="even", scale=0.5)
        assert (a.nilpotent() ** 3).norm() > 0.0
        assert ((a + b).exp() - a.exp() * b.exp()).norm() <= 1e-12 * (a + b).exp().norm()
        assert (a.exp().log() - a).norm() <= 1e-12 * a.norm()
        assert (a * a.inv() - 1).norm() <= 1e-12
        assert (a.fpow(1 / 3) ** 3 - a).norm() <= 1e-12 * a.norm()


def test_canonicalization_drops_tiny_terms():
    x = GrassmannNumber(N, {0: 1.0, 1: 1e-16})
    assert list(x.terms) == [0]


def test_non_finite_rejected():
    with pytest.raises(AlgebraError):
        GrassmannNumber(N, {0: float("nan")})


def test_json_roundtrip():
    rng = np.random.default_rng(9)
    x = random_grassmann(rng, N, scale=1.0, real=False)
    assert GrassmannNumber.from_dict(x.to_dict()) == x
