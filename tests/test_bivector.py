"""Extended superbivectors on the packed stack S, against the
per-coefficient routes they replaced.

The library stores a bivector as one graded-antisymmetric matrix S and
computes phi as S K, phi^-1 as X K^-1, the wedge from one outer product and
the compact/symmetric split as one Omega-projection.  The routes below work
on the three coefficient dicts (b, bq, bb) of GrassmannNumbers: the phi
spread table, the phi^-1 family reader, the per-plane split loop, and dict
arithmetic and JSON encoding per coefficient.  They are kept as oracles.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superspin import (
    CliffordElement,
    ExtendedSuperbivector,
    GrassmannNumber,
    OrderMismatchError,
    ParityError,
    ShapeMismatchError,
    SpinElement,
    Supermatrix,
    bivector_to_matrix,
    matrix_to_bivector,
    random_grassmann,
    random_so0,
    random_supermatrix,
    random_supervector,
    split_bivector,
    wedge,
)
from superspin.grassmann import CANON_EPS
from superspin.supermatrix import symplectic_form
from test_clifford import oracle_wedge

TOL = 1e-12


# -- the per-coefficient oracles ---------------------------------------------------


def family_keys(m, n):
    """Keys of the b (j < k), bq and bb (u <= v) families."""
    return ([(j, k) for j in range(1, m + 1) for k in range(j + 1, m + 1)],
            [(j, u) for j in range(1, m + 1) for u in range(1, 2 * n + 1)],
            [(u, v) for u in range(1, 2 * n + 1) for v in range(u, 2 * n + 1)])


def partner(m, u):
    """Sign and packed row of the coordinate that e'_u pairs with in the
    commutator action: +x'_{u+1} for odd u, -x'_{u-1} for even u."""
    return (1.0, m + u) if u % 2 else (-1.0, m + u - 2)


def oracle_phi(m, n, order, families):
    """The commutator-action supermatrix from the four-case spread table."""
    b, bq, bb = families
    size = m + 2 * n
    grid = [[GrassmannNumber.zero(order) for _ in range(size)] for _ in range(size)]

    def spread(g, i, j, factor):
        grid[i][j] = grid[i][j] + g * factor

    for (j, k), g in b.items():
        # A block: 2 b (E_{k,j} - E_{j,k})
        spread(g, k - 1, j - 1, 2.0)
        spread(g, j - 1, k - 1, -2.0)
    for (j, u), g in bq.items():
        row = m + u - 1
        if u % 2 == 1:
            # e_j e'_{2k-1}: B gains E_{j,2k}, C gains 2 E_{2k-1,j}
            spread(g, j - 1, m + u, 1.0)
            spread(g, row, j - 1, 2.0)
        else:
            # e_j e'_{2k}: B gains -E_{j,2k-1}, C gains 2 E_{2k,j}
            spread(g, j - 1, m + u - 2, -1.0)
            spread(g, row, j - 1, 2.0)
    for (u, v), g in bb.items():
        uo, vo = u % 2 == 1, v % 2 == 1
        if uo and vo:
            # e'_{2j-1} (.) e'_{2k-1} -> E_{2j-1,2k} + E_{2k-1,2j}
            spread(g, m + u - 1, m + v, 1.0)
            spread(g, m + v - 1, m + u, 1.0)
        elif not uo and not vo:
            # e'_{2j} (.) e'_{2k} -> -(E_{2j,2k-1} + E_{2k,2j-1})
            spread(g, m + u - 1, m + v - 2, -1.0)
            spread(g, m + v - 1, m + u - 2, -1.0)
        elif uo and not vo:
            # e'_{2j-1} (.) e'_{2k} -> E_{2k,2j} - E_{2j-1,2k-1}
            spread(g, m + v - 1, m + u, 1.0)
            spread(g, m + u - 1, m + v - 2, -1.0)
        else:
            # e'_{2j} (.) e'_{2k-1} with j < k: E_{2j,2k} - E_{2k-1,2j-1}
            spread(g, m + u - 1, m + v, 1.0)
            spread(g, m + v - 1, m + u - 2, -1.0)
    return Supermatrix.from_entries(m, 2 * n, grid, order)


def oracle_phi_inv(x):
    """The families read cell by cell from an so_0 supermatrix."""
    m, n = x.p, x.q // 2

    def read(keys, cell):
        out = {}
        for key in keys:
            row, col, factor = cell(*key)
            g = x.entry(row, col) * factor
            if g.terms:
                out[key] = g
        return out

    def bb_cell(u, v):
        # [B, x] adds sign * bb_uv * x[source] to row m + u - 1, twice for u = v
        sign, source = partner(m, v)
        return m + u - 1, source, sign * (0.5 if u == v else 1.0)

    b, bq, bb = family_keys(m, n)
    return (read(b, lambda j, k: (k - 1, j - 1, 0.5)),
            read(bq, lambda j, u: (m + u - 1, j - 1, 0.5)), read(bb, bb_cell))


def oracle_split(m, n, order, families):
    """(compact, symmetric, nilpotent) families from the per-plane loop."""
    b, bq, bb = families

    def scal(value):
        return GrassmannNumber.scalar(order, value)

    b1, b3 = {}, {}
    for key, g in b.items():
        if g.body != 0:
            b1[key] = scal(g.body)
        if g.nilpotent().terms:
            b3[key] = g.nilpotent()
    bb1, bb2 = {}, {}
    bb3 = {key: g.nilpotent() for key, g in bb.items() if g.nilpotent().terms}

    def body_of(u, v):
        g = bb.get((u, v))
        return g.body if g is not None else 0.0

    def put(target, key, value):
        if value != 0:
            target[key] = target.get(key, scal(0.0)) + scal(value)

    for plane_j in range(1, n + 1):
        for plane_k in range(plane_j, n + 1):
            uo, ue = 2 * plane_j - 1, 2 * plane_j
            vo, ve = 2 * plane_k - 1, 2 * plane_k
            beta_oo, beta_ee = body_of(uo, vo), body_of(ue, ve)
            half_sum, half_diff = 0.5 * (beta_oo + beta_ee), 0.5 * (beta_oo - beta_ee)
            put(bb1, (uo, vo), half_sum)
            put(bb1, (ue, ve), half_sum)
            put(bb2, (uo, vo), half_diff)
            put(bb2, (ue, ve), -half_diff)
            if plane_j == plane_k:
                # the in-plane mixed term is itself a symmetric generator
                put(bb2, (uo, ue), body_of(uo, ue))
            else:
                beta_oe, beta_eo = body_of(uo, ve), body_of(ue, vo)
                anti, sym = 0.5 * (beta_oe - beta_eo), 0.5 * (beta_oe + beta_eo)
                put(bb1, (uo, ve), anti)
                put(bb1, (ue, vo), -anti)
                put(bb2, (uo, ve), sym)
                put(bb2, (ue, vo), sym)
    return (b1, {}, bb1), ({}, {}, bb2), (b3, dict(bq), bb3)


def oracle_combine(first, second, sign=1.0):
    out = []
    for mine, theirs in zip(first, second):
        fam = dict(mine)
        for key, g in theirs.items():
            fam[key] = fam[key] + g * sign if key in fam else g * sign
        out.append({key: g for key, g in fam.items() if g.terms})
    return tuple(out)


def oracle_scale(families, factor):
    return tuple({key: g * factor for key, g in fam.items() if (g * factor).terms}
                 for fam in families)


def oracle_norm(families):
    return sum(g.norm() for fam in families for g in fam.values())


def oracle_to_dict(m, n, order, families):
    def fam(d):
        return [{"j": j, "k": k, "coeff": d[(j, k)].to_dict()} for (j, k) in sorted(d)]
    b, bq, bb = families
    return {"m": m, "n": n, "N": order, "b": fam(b), "bq": fam(bq), "B": fam(bb)}


# -- helpers ------------------------------------------------------------------------


def families_of(biv):
    return biv.b, biv.bq, biv.bb


def draw_families(rng, m, n, order, scale=0.5):
    """Random families on a random subset of the keys; b and bb get bodies."""
    parities = ("even", "odd", "even")
    return tuple(
        {key: g for key in keys if rng.random() < 0.7
         for g in [random_grassmann(rng, order, parity=parity, scale=scale)] if g.terms}
        for keys, parity in zip(family_keys(m, n), parities))


def assert_families(biv, want, tol=TOL):
    got = families_of(biv)
    zero = GrassmannNumber.zero(biv.order)
    diff = sum((got[f].get(key, zero) - want[f].get(key, zero)).norm()
               for f in range(3) for key in set(got[f]) | set(want[f]))
    assert diff <= tol * max(1.0, oracle_norm(want))


def assert_stored(biv):
    """S is graded-antisymmetric, parity-valid and canonical (CANON_EPS on
    the coefficients, so twice that on the D diagonal)."""
    m, stack = biv.m, biv.mat.stack
    flipped = stack.transpose(0, 2, 1)
    assert np.array_equal(stack[:, :m, :m], -flipped[:, :m, :m])
    assert np.array_equal(stack[:, m:, :m], -flipped[:, m:, :m])
    assert np.array_equal(stack[:, m:, m:], flipped[:, m:, m:])
    Supermatrix(m, 2 * biv.n, biv.mat).validate_parity(0.0)
    eps = np.full(stack.shape[1:], CANON_EPS)
    eps[range(m, len(eps)), range(m, len(eps))] *= 2.0
    tiny = (np.abs(stack.real) < eps) & (np.abs(stack.imag) < eps)
    assert not (tiny & (stack != 0)).any()


def assert_relative(got, want, tol=TOL):
    assert (got - want).norm() <= tol * max(1.0, want.norm())


# -- the packed routes against the oracles --------------------------------------------


@settings(max_examples=60)
@given(m=st.integers(0, 3), n=st.integers(0, 2), order=st.sampled_from([0, 1, 4]),
       seed=st.integers(0, 10_000))
def test_packed_bivectors_match_the_per_coefficient_oracles(m, n, order, seed):
    rng = np.random.default_rng(seed)
    fa, fb = draw_families(rng, m, n, order), draw_families(rng, m, n, order)
    a, b = (ExtendedSuperbivector(m, n, order, *f) for f in (fa, fb))
    assert_families(a, fa, tol=0.0)
    assert a.norm() == pytest.approx(oracle_norm(fa), rel=TOL, abs=TOL)
    assert json.dumps(a.to_dict()) == json.dumps(oracle_to_dict(m, n, order, fa))

    phi = bivector_to_matrix(a)
    assert_relative(phi, oracle_phi(m, n, order, fa))
    back = matrix_to_bivector(phi)
    assert_families(back, oracle_phi_inv(phi))
    assert_families(back, fa)

    even = random_grassmann(rng, order, parity="even", scale=0.5)
    results = [(a + b, oracle_combine(fa, fb)), (a - b, oracle_combine(fa, fb, -1.0)),
               (-a, oracle_scale(fa, -1.0)), (a.scale(0.3 - 1.1j), oracle_scale(fa, 0.3 - 1.1j)),
               (a.scale(even), oracle_scale(fa, even))]
    x, y = random_supervector(m, n, order, seed=seed), random_supervector(m, n, order, seed=seed + 1)
    results.append((wedge(x, y), families_of(oracle_wedge(x, y))))
    split = split_bivector(a)
    results += zip((split.compact, split.symmetric, split.nilpotent),
                   oracle_split(m, n, order, fa))
    for got, want in results + [(a, fa), (back, fa)]:
        assert_families(got, want)
        assert_stored(got)
    assert_relative(bivector_to_matrix(split.total()), phi)


@settings(max_examples=30)
@given(m=st.integers(0, 3), n=st.integers(0, 2), order=st.sampled_from([0, 1, 4]),
       seed=st.integers(0, 10_000))
def test_phi_inverse_reads_the_oracle_cells_of_an_inexact_member(m, n, order, seed):
    """Off so_0 by less than the tolerance, X K^-1 is not quite
    graded-antisymmetric; the library reads the cells the oracle reads."""
    x = random_so0(m, n, order, seed=seed, scale=1.0)
    x = x + random_supermatrix(m, n, order, seed=seed + 1).scale(1e-11)
    biv = matrix_to_bivector(x)
    assert_families(biv, oracle_phi_inv(x), tol=0.0)
    assert_stored(biv)


def test_storage_layout_is_phi_times_the_inverse_form():
    one, two = GrassmannNumber.one(2), GrassmannNumber.scalar(2, 2.0)
    f1 = GrassmannNumber.generator(2, 1)
    biv = ExtendedSuperbivector(2, 1, 2, b={(1, 2): one}, bq={(2, 2): f1},
                                bb={(1, 1): two, (1, 2): one})
    body = np.zeros((4, 4))
    body[0, 1], body[1, 0] = 1.0, -1.0
    body[2, 2], body[2, 3], body[3, 2] = 4.0, 1.0, 1.0
    odd = np.zeros((4, 4))
    odd[1, 3], odd[3, 1] = 1.0, -1.0
    assert biv.mat.masks == (0, 1)
    assert np.array_equal(biv.mat.stack, np.stack([body, odd]))
    form = np.zeros((4, 4))
    form[:2, :2] = -2.0 * np.eye(2)
    form[2:, 2:] = symplectic_form(1)
    assert np.array_equal(bivector_to_matrix(biv).mat.stack, biv.mat.stack @ form)
    assert biv.norm() == 5.0 and not biv.is_strict()
    assert repr(biv).endswith("coeffs={'b': 1, 'bq': 1, 'bb': 2})")


def test_coefficients_at_the_canonical_threshold_survive_and_below_it_vanish():
    at = GrassmannNumber(2, {0: CANON_EPS, 3: complex(-0.0, CANON_EPS)})
    below = GrassmannNumber(2, {0: complex(0.6 * CANON_EPS, 0.0)})
    assert below.terms == {}
    biv = ExtendedSuperbivector(2, 1, 2, b={(1, 2): at}, bb={(1, 1): at, (2, 2): below})
    assert biv.b == {(1, 2): at} and biv.bb == {(1, 1): at}
    assert json.dumps(biv.to_dict()) == json.dumps(oracle_to_dict(
        2, 1, 2, ({(1, 2): at}, {}, {(1, 1): at})))
    # halving the bivector takes every coefficient below CANON_EPS
    assert not biv.scale(0.5).mat.masks and biv.scale(0.5).b == {}


def test_scaling_by_an_odd_number_is_a_parity_error():
    biv = ExtendedSuperbivector(2, 1, 2, b={(1, 2): GrassmannNumber.one(2)})
    with pytest.raises(ParityError):
        biv.scale(GrassmannNumber.generator(2, 1))


@pytest.mark.parametrize("cls", [ExtendedSuperbivector, SpinElement, CliffordElement])
@pytest.mark.parametrize("m, n, order, error", [
    (1, 0, 17, OrderMismatchError), (1, 0, -1, OrderMismatchError),
    (1, 1, 99, OrderMismatchError),
    (-1, 1, 2, ShapeMismatchError), (1, -1, 2, ShapeMismatchError),
])
def test_constructors_check_the_signature(cls, m, n, order, error):
    with pytest.raises(error):
        cls(m, n, order)


@pytest.mark.parametrize("families, error", [
    (({(1, 2): GrassmannNumber.generator(2, 1)}, {}, {}), ParityError),
    (({}, {(1, 1): GrassmannNumber.one(2)}, {}), ParityError),
    (({}, {}, {(1, 2): GrassmannNumber.generator(2, 2)}), ParityError),
    (({(2, 1): GrassmannNumber.one(2)}, {}, {}), ShapeMismatchError),
    (({}, {(1, 3): GrassmannNumber.generator(2, 1)}, {}), ShapeMismatchError),
    (({}, {}, {(2, 1): GrassmannNumber.one(2)}), ShapeMismatchError),
    (({}, {}, {(1, 1): GrassmannNumber.one(3)}), OrderMismatchError),
])
def test_constructor_checks_keys_orders_and_parity(families, error):
    with pytest.raises(error):
        ExtendedSuperbivector(2, 1, 2, *families)


def test_phi_inverse_rejects_a_wrong_parity_member():
    # phi of a mixed coefficient moved onto the body: in so_0, but with body
    # entries in the odd B and C blocks
    phi = bivector_to_matrix(ExtendedSuperbivector(
        1, 1, 2, bq={(1, 1): GrassmannNumber.generator(2, 1)})).mat
    x = Supermatrix(1, 2, phi.with_stack((0,), phi.stack), validate=False)
    with pytest.raises(ParityError):
        matrix_to_bivector(x)
