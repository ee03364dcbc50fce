"""Supermatrix algebra: parity pattern, supertranspose, supertrace,
Berezinian, inverse, exponential and logarithm."""

import functools
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm as dense_expm
from scipy.linalg import logm as dense_logm

from superspin import (
    AlgebraError,
    ConvergenceError,
    GrassmannMatrix,
    GrassmannNumber,
    LogDomainError,
    NotInvertibleError,
    OrderMismatchError,
    ParityError,
    ShapeMismatchError,
    SingularBodyError,
    Supermatrix,
    expm,
    logm,
    q_gram_matrix,
    random_grassmann,
    random_rotation,
    random_so0,
    random_supermatrix,
    symplectic_form,
)
from superspin import supermatrix
from superspin.grassmann import (SERIES_EPS, SERIES_TERMS, _blade_product, _drop_zero_slices,
                                 _power_series, _union_add)
from superspin.orthosymplectic import _split_rotation
from superspin.supermatrix import COND_LIMIT
from test_kernel import SETTINGS, parity_blocks

M_DIM, N_PLANES, ORDER = 3, 2, 4
Q_DIM = 2 * N_PLANES
SIZE = M_DIM + Q_DIM


def eye():
    return Supermatrix.eye(M_DIM, Q_DIM, ORDER)


def rand(seed, scale=0.25):
    return random_supermatrix(M_DIM, N_PLANES, ORDER, seed=seed, scale=scale)


def test_identity_neutral_and_associativity():
    m = rand(0)
    assert (eye() @ m - m).norm() == 0.0
    a, b, c = rand(1), rand(2), rand(3)
    lhs = (a @ b) @ c
    rhs = a @ (b @ c)
    assert (lhs - rhs).norm() <= 1e-10 * max(1.0, lhs.norm())


def test_product_preserves_parity_pattern():
    for seed in range(5):
        product = rand(seed) @ rand(seed + 50)
        product.validate_parity(tol=0.0)


def test_parity_validation_rejects_bad_pattern():
    blades = {0: np.zeros((SIZE, SIZE), dtype=complex)}
    blades[0][0, M_DIM] = 1.0  # even coefficient in an odd block
    mat = GrassmannMatrix(SIZE, SIZE, ORDER, blades)
    with pytest.raises(ParityError):
        Supermatrix(M_DIM, Q_DIM, mat)


@pytest.mark.parametrize("grid", [[], [[]]], ids=["no-rows", "empty-row"])
def test_the_order_of_an_empty_grid_cannot_be_read(grid):
    """Without ``order`` the grid's first entry gives it; an empty grid has
    none, which used to surface as a bare IndexError."""
    with pytest.raises(ShapeMismatchError, match="empty entry grid"):
        GrassmannMatrix.from_entries(grid)
    with pytest.raises(ShapeMismatchError, match="empty entry grid"):
        Supermatrix.from_entries(0, 0, grid)
    assert GrassmannMatrix.from_entries(grid, ORDER).order == ORDER


@pytest.mark.parametrize("build", [
    lambda: Supermatrix.eye(1, 0, 17),
    lambda: Supermatrix.from_body(1, 0, np.eye(1), 40),
    lambda: GrassmannMatrix(1, 1, -1),
], ids=["eye-17", "from-body-40", "negative"])
def test_the_matrix_constructor_refuses_an_order_beyond_max_order(build):
    """An order-40 body would have its parity checked on a 2^40 table
    (1 TiB); the constructor refuses the order first, as GrassmannNumber does."""
    with pytest.raises(OrderMismatchError, match="order must be in"):
        build()


def test_supertranspose_antihomomorphism():
    for seed in range(5):
        a, b = rand(seed), rand(seed + 100)
        lhs = (a @ b).supertranspose()
        rhs = b.supertranspose() @ a.supertranspose()
        assert (lhs - rhs).norm() <= 1e-10 * max(1.0, lhs.norm())


def test_supertranspose_fourth_power():
    m = rand(7)
    twice = m.supertranspose().supertranspose()
    diff = twice - m
    # double supertranspose negates the odd blocks only
    assert (diff.block_a().norm(), diff.block_d().norm()) == (0.0, 0.0)
    assert (twice.block_b() + m.block_b()).norm() == 0.0
    assert (twice.block_c() + m.block_c()).norm() == 0.0
    four = twice.supertranspose().supertranspose()
    assert (four - m).norm() == 0.0


def test_gram_matrix_supertranspose():
    gram = q_gram_matrix(M_DIM, N_PLANES, ORDER)
    flipped = gram.supertranspose()
    expected = np.zeros((SIZE, SIZE), dtype=complex)
    expected[:M_DIM, :M_DIM] = np.eye(M_DIM)
    expected[M_DIM:, M_DIM:] = 0.5 * symplectic_form(N_PLANES)
    assert np.abs(flipped.body_matrix() - expected).max() == 0.0


def test_supertrace_identity_and_cyclicity():
    assert eye().supertrace() == GrassmannNumber.scalar(ORDER, M_DIM - Q_DIM)
    for seed in range(5):
        a, b = rand(seed), rand(seed + 200)
        lhs = (a @ b).supertrace()
        rhs = (b @ a).supertrace()
        assert (lhs - rhs).norm() <= 1e-10 * max(1.0, lhs.norm())


def test_inverse_roundtrip():
    assert (eye().inverse() - eye()).norm() == 0.0
    scaled = eye().scale(2.0)
    assert (scaled.inverse() - eye().scale(0.5)).norm() == 0.0
    for seed in range(100):
        m = eye() + rand(seed, scale=0.2)
        product = m @ m.inverse()
        assert (product - eye()).norm() <= 1e-9 * max(1.0, m.norm())


def test_inverse_requires_invertible_body():
    m = rand(11).nilpotent_part()
    with pytest.raises(NotInvertibleError):
        m.inverse()


def four_block_inverse(m):
    """The four-block inverse with every block and Schur complement inverted
    on its own (one body inverse each)."""
    a, b, c, d = m.block_a(), m.block_b(), m.block_c(), m.block_d()
    a_inv = a.inverse() if m.p else a
    d_inv = d.inverse() if m.q else d
    schur_a = (a - b @ d_inv @ c).inverse() if m.p else a
    schur_d = (d - c @ a_inv @ b).inverse() if m.q else d
    top_right = -(a_inv @ b @ schur_d) if m.p and m.q else b
    bottom_left = -(d_inv @ c @ schur_a) if m.p and m.q else c
    return Supermatrix.from_blocks(schur_a, top_right, bottom_left, schur_d)


@pytest.mark.parametrize("m, n, order", [(6, 2, 4), (3, 0, 4), (0, 1, 4), (2, 1, 0),
                                           (3, 1, 7), (0, 0, 3)])
def test_inverse_checks_each_body_block_once(monkeypatch, m, n, order):
    """One condition number per nonempty body block (the Schur complements
    share the blocks' bodies), and the same inverse as block by block."""
    mat = random_rotation(m, n, order, seed=2) if m and n else \
        Supermatrix.eye(m, 2 * n, order) + random_supermatrix(m, n, order, seed=2)
    shapes = []
    cond = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", lambda x: (shapes.append(x.shape), cond(x))[1])
    got = mat.inverse()
    monkeypatch.undo()
    assert shapes == [s for s in ((m, m), (2 * n, 2 * n)) if s[0]]
    want = four_block_inverse(mat)
    assert (got - want).norm() <= 1e-12 * max(1.0, want.norm())


@pytest.mark.parametrize("block", ["A", "D"])
def test_inverse_names_the_singular_body_block(block):
    body = np.eye(SIZE, dtype=complex)
    body[(0 if block == "A" else M_DIM), (0 if block == "A" else M_DIM)] = 1e-13
    mat = Supermatrix.from_body(M_DIM, Q_DIM, body, ORDER) + rand(3).nilpotent_part()
    with pytest.raises(NotInvertibleError, match=f"body of block {block} is numerically"):
        mat.inverse()


def test_sdet_block_diagonal_example():
    # m = 1, q = 2: A = (3), D = I -> sdet = det(A)/det(D) = 3
    body = np.diag([3.0, 1.0, 1.0]).astype(complex)
    mat = Supermatrix.from_body(1, 2, body, ORDER)
    assert (mat.sdet() - 3.0).norm() < 1e-14


def test_sdet_multiplicative_and_supertranspose_invariant():
    for seed in range(10):
        a = eye() + rand(seed, scale=0.2)
        b = eye() + rand(seed + 300, scale=0.2)
        lhs = (a @ b).sdet()
        rhs = a.sdet() * b.sdet()
        assert (lhs - rhs).norm() <= 1e-9 * max(1.0, lhs.norm())
        assert (a.supertranspose().sdet() - a.sdet()).norm() <= 1e-9


# -- reference determinants ---------------------------------------------------------


def _permutation_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


def leibniz_det(mat):
    """Reference determinant: the Leibniz sum over permutations."""
    grid = mat.entries()
    total = GrassmannNumber.zero(mat.order)
    for perm in itertools.permutations(range(mat.rows)):
        term = GrassmannNumber.scalar(mat.order, float(_permutation_sign(perm)))
        for i in range(mat.rows):
            term = term * grid[i][perm[i]]
        total = total + term
    return total


def gauss_det(mat):
    """Reference determinant of an even matrix: Gaussian elimination over
    GrassmannNumber entries with body-modulus pivoting."""
    size = mat.rows
    grid = mat.entries()
    det = GrassmannNumber.one(mat.order)
    for col in range(size):
        pivot_row = max(range(col, size), key=lambda r: abs(grid[r][col].body))
        if pivot_row != col:
            grid[col], grid[pivot_row] = grid[pivot_row], grid[col]
            det = -det
        pivot = grid[col][col]
        det = det * pivot
        pivot_inv = pivot.inv()
        for r in range(col + 1, size):
            factor = grid[r][col] * pivot_inv
            grid[r] = [grid[r][c] - factor * grid[col][c] for c in range(size)]
    return det


def schur_sdet(m, det):
    """Reference Berezinian det(A - B D^{-1} C) / det(D) over the reference
    determinant ``det``."""
    a, b, c, d = m.block_a(), m.block_b(), m.block_c(), m.block_d()
    return det(a - b @ d.inverse() @ c) * det(d).inv()


def schur_sdet_of_a(m, det):
    """The other Schur form, det(A) / det(D - C A^{-1} B)."""
    a, b, c, d = m.block_a(), m.block_b(), m.block_c(), m.block_d()
    return det(a) * det(d - c @ a.inverse() @ b).inv()


def assert_relative(got, want, tol=1e-10):
    assert (got - want).norm() <= tol * max(1.0, want.norm())


def test_determinant_gauss_matches_leibniz():
    rng = np.random.default_rng(13)
    for size in range(1, 6):
        grid = [
            [1.5 * (i == j) + random_grassmann(rng, ORDER, parity="even", scale=0.3)
             for j in range(size)]
            for i in range(size)
        ]
        mat = GrassmannMatrix.from_entries(grid, ORDER)
        reference = leibniz_det(mat)
        assert_relative(gauss_det(mat), reference)
        assert_relative(mat.det(), reference)


def test_sdet_alternative_form():
    """sdet and det against both Schur forms over the Gauss determinant."""
    for m, n, order, seeds in ((3, 1, 4, 2), (6, 2, 4, 2), (10, 3, 6, 1)):
        eye_mn = Supermatrix.eye(m, 2 * n, order)
        for mat in [random_rotation(m, n, order, seed=seed) for seed in range(seeds)] + [
                eye_mn + random_supermatrix(m, n, order, seed=seed, scale=0.2)
                for seed in range(seeds)]:
            got = mat.sdet()
            assert_relative(got, schur_sdet(mat, gauss_det))
            assert_relative(got, schur_sdet_of_a(mat, gauss_det))
            assert_relative(mat.block_a().det(), gauss_det(mat.block_a()))


def seeded_dense(p, q, order, seed):
    """Parity-valid supermatrix with every blade present and body 2I + noise."""
    rng = np.random.default_rng(seed)
    size = p + q
    diagonal = np.zeros((size, size), dtype=bool)
    diagonal[:p, :p] = diagonal[p:, p:] = True
    odd = np.array([k.bit_count() % 2 for k in range(1 << order)], dtype=bool)
    stack = 0.5 * rng.normal(size=(1 << order, size, size))
    stack *= diagonal != odd[:, None, None]
    stack[0] += 2.0 * np.eye(size)
    return Supermatrix(p, q, GrassmannMatrix(size, size, order, masks=range(1 << order),
                                             stack=stack))


def body_conditions(m):
    """Condition numbers of the D and A body blocks, 1 for an empty block."""
    body, p = m.body_matrix(), m.p
    return [np.linalg.cond(x) if x.size else 1.0 for x in (body[p:, p:], body[:p, :p])]


@SETTINGS
@given(parity_blocks(), st.integers(0, 2 ** 16), st.booleans())
def test_sdet_matches_oracles_on_parity_blocks(blocks, seed, dense):
    """p, q in 0..2 and N in {0, 1, 4}.  The drawn blocks are sparse and
    often have no body, so half the draws add a seeded dense matrix."""
    m = Supermatrix.from_blocks(*blocks)
    if dense:
        m = m + seeded_dense(m.p, m.q, m.order, seed)
    cond_d, cond_a = body_conditions(m)
    if cond_d > COND_LIMIT:
        with pytest.raises(NotInvertibleError, match="block D"):
            m.sdet()
    elif cond_a > COND_LIMIT:
        with pytest.raises(SingularBodyError, match="block A"):
            m.sdet()
    else:
        # The oracles work on GrassmannNumbers, which drop coefficients below
        # CANON_EPS, and lose about log10(cond) digits.
        stack = np.abs(m.mat.stack)
        assume(max(cond_d, cond_a) <= 1e4 and not ((stack > 0) & (stack < 1e-12)).any())
        got = m.sdet()
        assert_relative(got, schur_sdet(m, gauss_det))
        assert_relative(got, schur_sdet(m, leibniz_det))
        if not m.q:
            assert_relative(m.mat.det(), gauss_det(m.mat))


@pytest.mark.parametrize("p, q, block", [(2, 0, "A"), (0, 2, "D"), (2, 2, "A"), (2, 2, "D")])
def test_numerically_singular_body_block_raises_its_error_class(p, q, block):
    # body diag(1, 1e-13) in one block: condition number 1e13 > COND_LIMIT.
    # At q = 0 Gaussian elimination returns the determinant 1e-13 instead.
    body = np.eye(p + q, dtype=complex)
    k = 1 if block == "A" else p + 1
    body[k, k] = 1e-13
    nil = random_supermatrix(p, q // 2, ORDER, seed=53, scale=0.2).nilpotent_part()
    mat = Supermatrix.from_body(p, q, body, ORDER) + nil
    error = SingularBodyError if block == "A" else NotInvertibleError
    with pytest.raises(error, match=f"body of block {block}"):
        mat.sdet()
    if q == 0:
        assert abs(gauss_det(mat.mat).body - 1e-13) <= 1e-25
        with pytest.raises(SingularBodyError):
            mat.mat.det()


def full_power_sdet(m):
    """Oracle Berezinian from the whole matrix series: log(I + X) summed
    from every power X^k as a matrix, then its supertrace (production
    forms only X^k with k <= ceil(N / 2) and takes the other supertraces
    from products)."""
    p, body = m.p, m.mat.body()
    a0, d0 = body[:p, :p], body[p:, p:]
    inv0 = np.zeros_like(body)
    inv0[p:, p:] = supermatrix._body_inverse(d0, NotInvertibleError, "body of block D")
    inv0[:p, :p] = supermatrix._body_inverse(a0, SingularBodyError, "body of block A")
    x = m.mat.nilpotent_part()
    log = x.with_stack(*_power_series(x.masks, inv0 @ x.stack, m.order,
                                      supermatrix._log_ratio, 0.0))
    str_log = Supermatrix(p, m.q, log, validate=False).supertrace()
    return str_log.exp() * complex(np.linalg.det(a0) / np.linalg.det(d0))


# (m, n, order) with q = 2n: p = 0, q = 0 and N in {0, 1, 4, 6} each appear
HALF_POWER_SHAPES = [(0, 0, 0), (2, 0, 0), (0, 1, 0), (2, 1, 0), (2, 0, 1), (0, 1, 1),
                     (2, 1, 1), (0, 0, 4), (3, 0, 4), (0, 2, 4), (3, 1, 4), (6, 2, 4),
                     (2, 0, 6), (0, 1, 6), (2, 1, 6)]


@pytest.mark.parametrize("m, n, order", HALF_POWER_SHAPES,
                         ids=[f"m{m}-n{n}-N{order}" for m, n, order in HALF_POWER_SHAPES])
@settings(max_examples=8)
@given(seed=st.integers(0, 2 ** 16), group=st.booleans())
def test_sdet_matches_the_full_power_series(m, n, order, seed, group):
    """Group elements, and non-group supermatrices I + random, agree with
    the full-power oracle to 1e-13 relative."""
    mat = (random_rotation(m, n, order, seed=seed, factors=2) if group
           else random_supermatrix(m, n, order, seed=seed) + Supermatrix.eye(m, 2 * n, order))
    assert_relative(mat.sdet(), full_power_sdet(mat), tol=1e-13)


@pytest.mark.parametrize("singular", ["D", "A", "AD"])
def test_sdet_checks_the_d_body_first(singular):
    """D0 is checked first (NotInvertibleError), then A0 (SingularBodyError),
    by production and by the oracle alike."""
    body = np.eye(SIZE, dtype=complex)
    if "A" in singular:
        body[1, 1] = 1e-13
    if "D" in singular:
        body[M_DIM + 1, M_DIM + 1] = 1e-13
    mat = Supermatrix.from_body(M_DIM, Q_DIM, body, ORDER) + rand(71).nilpotent_part()
    error, block = (SingularBodyError, "A") if singular == "A" else (NotInvertibleError, "D")
    for sdet in (Supermatrix.sdet, full_power_sdet):
        with pytest.raises(error, match=f"body of block {block}"):
            sdet(mat)


# (order, p, q): p = 0, q = 0 and N in {0, 1} each appear
PROPERTY_SHAPES = [(0, 2, 0), (0, 0, 2), (1, 2, 0), (1, 0, 2), (1, 2, 1), (4, 2, 2)]
PROPERTY_IDS = [f"N{order}-p{p}-q{q}" for order, p, q in PROPERTY_SHAPES]
PROPERTY_SETTINGS = settings(max_examples=25)


def drawn_supermatrix(data, shape, seed):
    """A seeded dense matrix plus a quarter of sparse drawn parity blocks."""
    order, p, q = shape
    blocks = data.draw(parity_blocks(shape))
    return seeded_dense(p, q, order, seed) + Supermatrix.from_blocks(*blocks).scale(0.25)


@pytest.mark.parametrize("shape", PROPERTY_SHAPES, ids=PROPERTY_IDS)
@PROPERTY_SETTINGS
@given(data=st.data(), seed=st.integers(0, 2 ** 16))
def test_sdet_is_multiplicative(shape, data, seed):
    a, b = drawn_supermatrix(data, shape, seed), drawn_supermatrix(data, shape, seed + 1)
    assume(max(body_conditions(a) + body_conditions(b)) <= 1e3)
    assert_relative((a @ b).sdet(), a.sdet() * b.sdet())


@pytest.mark.parametrize("shape", PROPERTY_SHAPES, ids=PROPERTY_IDS)
@PROPERTY_SETTINGS
@given(data=st.data(), seed=st.integers(0, 2 ** 16))
def test_sdet_of_exp_is_exp_of_supertrace(shape, data, seed):
    order, p, q = shape
    m = drawn_supermatrix(data, shape, seed) - Supermatrix.eye(p, q, order).scale(2.0)
    m = m.scale(0.5)
    assert_relative(expm(m).sdet(), m.supertrace().exp())


@pytest.mark.parametrize("shape", PROPERTY_SHAPES, ids=PROPERTY_IDS)
@PROPERTY_SETTINGS
@given(data=st.data(), seed=st.integers(0, 2 ** 16))
def test_inverse_round_trips(shape, data, seed):
    """Supermatrix.inverse, and GrassmannMatrix.inverse on each diagonal
    block, give the identity on both sides."""
    order, p, q = shape
    m = drawn_supermatrix(data, shape, seed)
    assume(max(body_conditions(m)) <= 1e3)
    for mat, eye_mat in ((m, Supermatrix.eye(p, q, order)),
                         *((block, GrassmannMatrix.eye(block.rows, order))
                           for block in (m.block_a(), m.block_d()))):
        inverse = mat.inverse()
        for product in (mat @ inverse, inverse @ mat):
            assert (product - eye_mat).norm() <= 1e-10 * max(1.0, mat.norm() * inverse.norm())


# -- exp and log against oracles -------------------------------------------------


def object_expm(m):
    """Scaling and squaring with every term a Supermatrix: the loop ``expm``
    ran before it moved onto raw blade stacks."""
    norm = m.norm()
    nilpotent_only = not m.mat.masks or m.mat.masks[0] != 0
    s = 0
    if not nilpotent_only and norm > 1.0:
        s = max(0, math.ceil(math.log2(norm)))
    scaled = m.scale(0.5 ** s) if s else m
    result = Supermatrix.eye(m.p, m.q, m.order)
    term = Supermatrix.eye(m.p, m.q, m.order)
    for k in range(1, 200):
        term = (term @ scaled).scale(1.0 / k)
        if not term.mat.masks:
            break
        result = result + term
        if term.norm() <= SERIES_EPS * result.norm():
            break
    for _ in range(s):
        result = result @ result
    return result


def object_logm(m):
    """The series logarithm with every power a Supermatrix, for m - I
    nilpotent (the finite branch)."""
    delta = m - Supermatrix.eye(m.p, m.q, m.order)
    assert not delta.mat.masks or delta.mat.masks[0] != 0
    result = Supermatrix.zeros(m.p, m.q, m.order)
    power = Supermatrix.eye(m.p, m.q, m.order)
    for k in range(1, m.order + 2):
        power = power @ delta
        if not power.mat.masks:
            break
        result = result + power.scale((-1.0) ** (k + 1) / k)
        if k > 4 and power.norm() / k <= SERIES_EPS * max(1.0, result.norm()):
            break
    return result


def left_regular(m):
    """The (size 2^N) x (size 2^N) complex matrix of v -> M v on Lambda_N^size:
    block (c, b) is the mask-c slice of M @ e_b."""
    size, order = m.size, m.order
    out = np.zeros((size << order, size << order), dtype=complex)
    for b in range(1 << order):
        e_b = GrassmannMatrix(size, size, order, masks=(b,), stack=np.eye(size)[None])
        column = m.mat @ e_b
        for c, block in zip(column.masks, column.stack):
            out[c * size:(c + 1) * size, b * size:(b + 1) * size] = block
    return out


def dense_stack(m):
    """The matrix as a (2^N, size, size) array, one slice per mask."""
    out = np.zeros((1 << m.order, m.size, m.size), dtype=complex)
    out[list(m.mat.masks)] = m.mat.stack
    return out


# PROPERTY_SHAPES and the benchmark's (m, n, N) = (6, 2, 4)
EXP_SHAPES = PROPERTY_SHAPES + [(4, 6, 4)]


@pytest.mark.parametrize("shape", EXP_SHAPES, ids=PROPERTY_IDS + ["N4-p6-q4"])
@PROPERTY_SETTINGS
@given(data=st.data(), seed=st.integers(0, 2 ** 16))
def test_exp_and_log_match_their_oracles(shape, data, seed):
    """expm against scipy's expm of the left-regular representation, whose
    first block column is exp(M), on body-only, nilpotent-only and mixed
    input.  The Taylor branch is bit-identical to the object loop; the
    finite branches of expm and logm agree with it to rounding."""
    order, p, q = shape
    size = p + q
    m = (drawn_supermatrix(data, shape, seed) - Supermatrix.eye(p, q, order).scale(2.0)
         ).scale(0.5)
    for x in (m.body(), m.nilpotent_part(), m):
        got = expm(x)
        want = dense_expm(left_regular(x))[:, :size].reshape(1 << order, size, size)
        assert np.abs(dense_stack(got) - want).sum() <= 1e-12 * max(1.0, np.abs(want).sum())
        oracle = object_expm(x)
        if x.mat.masks and x.mat.masks[0] == 0:
            assert got.mat.masks == oracle.mat.masks
            assert np.array_equal(got.mat.stack, oracle.mat.stack)
        else:
            assert_relative(got, oracle, 1e-14)
    unipotent = Supermatrix.eye(p, q, order) + m.nilpotent_part()
    assert_relative(logm(unipotent), object_logm(unipotent), 1e-14)
    assert_relative(expm(logm(unipotent)), unipotent, 1e-13)


@pytest.mark.parametrize("shape", EXP_SHAPES, ids=PROPERTY_IDS + ["N4-p6-q4"])
@PROPERTY_SETTINGS
@given(data=st.data(), seed=st.integers(0, 2 ** 16))
def test_log_series_matches_the_left_regular_logarithm(shape, data, seed):
    """logm's convergent series (m - I with a body blade) against scipy's
    principal logm of the left-regular representation, whose first block
    column is log(M): ``object_logm`` covers only the finite series."""
    order, p, q = shape
    size = p + q
    x = drawn_supermatrix(data, shape, seed)
    assume(x.mat.masks[:1] == (0,))
    m = Supermatrix.eye(p, q, order) + x.scale(0.5 / max(1.0, x.norm()))
    got = logm(m)
    want = dense_logm(left_regular(m))[:, :size].reshape(1 << order, size, size)
    assert np.abs(dense_stack(got) - want).sum() <= 1e-12 * max(1.0, np.abs(want).sum())


def test_the_series_loop_refuses_terms_that_never_shrink():
    """x a body-only rotation and every ratio 1: each term has the norm of
    the first, so no term meets the stop test, and the loop raises at its
    cap instead of returning a partial sum."""
    c, s = math.cos(1.0), math.sin(1.0)
    rotation = np.array([[[c, -s], [s, c]]])
    with pytest.raises(ConvergenceError, match=f"did not converge in {SERIES_TERMS} terms"):
        _power_series((0,), rotation, 2, lambda k: 1.0, 1.0)


def test_the_series_loop_sums_a_nilpotent_series_to_its_last_term():
    """Without a body blade no stop test applies: x of grade 1 and norm
    about 1e-5 has a grade-4 term x^4 / 24 some 1e-20 below the sum, far
    under SERIES_EPS of it, and the loop still adds that term."""
    x = rand(11).grade(1).scale(1e-6)
    masks, stack = _power_series(x.mat.masks, x.mat.stack, ORDER, lambda k: 1.0 / k, 1.0)
    total, top = x._like(masks, stack), (x @ x @ x @ x).scale(1.0 / 24.0)
    assert 0.0 < top.norm() <= 1e-20 * total.norm()
    assert (total.grade(ORDER) - top).norm() <= 1e-12 * top.norm()


@np.errstate(over="ignore", invalid="ignore")
def eager_expm(m):
    """``expm`` as it was before its stop test took the norm of the sum only
    near the end: that norm after every Taylor term."""
    mat, size = m.mat, m.size
    if not mat.masks or mat.masks[0] != 0:
        return m._like(*_power_series(mat.masks, mat.stack, m.order, lambda k: 1.0 / k, 1.0))
    norm = mat.norm()
    if not math.isfinite(norm):
        raise AlgebraError("entry-sum norm overflows, so exp cannot scale its argument")
    s = math.ceil(math.log2(max(norm, 1.0)))
    masks, stack = mat.masks, 0.5 ** s * mat.stack
    product = functools.partial(_blade_product, np.matmul, order=m.order, shape=(size, size))
    total_masks, total = term_masks, term = (0,), np.eye(size, dtype=stack.dtype)[None]
    for k in range(1, 200):
        term_masks, term = _drop_zero_slices(*product(term_masks, term, masks, stack))
        if not term_masks:
            break
        term = term * (1.0 / k)
        total_masks, total = _union_add(total_masks, total, term_masks, term)
        if not np.abs(term).sum() > SERIES_EPS * np.abs(total).sum():
            break
    for _ in range(s):
        total_masks, total = _drop_zero_slices(*product(total_masks, total, total_masks, total))
        if not np.isfinite(total).all():
            raise AlgebraError("non-finite entry in blade slice")
    return m._like(total_masks, total)


def exp_outcome(function, m):
    """The result's (masks, dtype, bytes, stack), or the type of the exception raised."""
    try:
        got = function(m).mat
    except AlgebraError as exc:
        return type(exc)
    return got.masks, got.stack.dtype, got.stack.tobytes(), got.stack


def stop_rule_inputs():
    """Seeded so_0 elements at N = 0, 1, 4, 6 (also scaled up, so the
    squaring runs), the body-only compact and symmetric factors of the
    split, a bodiless element, complex stacks carrying -0.0 imaginary parts,
    and the golden exp payload with a body coefficient at +-1.7e308."""
    inputs = {}
    for order in (0, 1, 4, 6):
        for scale in (0.25, 3.0):
            inputs[f"so0-N{order}-x{scale}"] = random_so0(2, 1, order, seed=order + 7,
                                                          scale=scale)
    rotation = random_rotation(6, 2, 4, seed=29)
    inputs["compact"], inputs["symmetric"] = _split_rotation(rotation, 1e-9)[:2]
    alg = random_so0(3, 1, 4, seed=31)
    inputs["bodiless"] = alg.nilpotent_part()
    signed = alg.mat.stack.astype(complex)
    signed.imag = -0.0
    inputs["minus-zero-imaginary"] = Supermatrix._adopt(3, 2, 4, alg.mat.masks, signed)
    turned = alg.scale(0.6 - 0.8j).mat.stack.copy()
    turned[turned.real == 0.0] = complex(-0.0, -0.0)
    inputs["complex"] = Supermatrix._adopt(3, 2, 4, alg.mat.masks, turned)
    text = (Path(__file__).parent / "golden" / "exp.json").read_text()
    for name, (i, j), value in (("overflowing", (0, 1), 1.7e308),
                                ("decaying", (3, 3), -1.7e308)):
        payload = json.loads(text)
        payload["rows"][i][j]["terms"][0]["re"] = value
        inputs[f"golden-{name}"] = Supermatrix.from_dict(payload)
    return inputs


STOP_RULE_INPUTS = stop_rule_inputs()


@pytest.mark.parametrize("name", STOP_RULE_INPUTS)
def test_the_stop_rule_stops_at_the_eager_term(name):
    """expm, which takes the norm of the sum only when a term is near the
    stopping threshold, gives the eager loop's masks, dtype and bytes, or
    raises the same exception class."""
    m = STOP_RULE_INPUTS[name]
    got, want = exp_outcome(expm, m), exp_outcome(eager_expm, m)
    if isinstance(want, type):
        assert got is want
        assert name == "golden-overflowing"
    else:
        assert got[:3] == want[:3]
        assert np.array_equal(got[3], want[3])
        assert name != "golden-overflowing"


def count_builds(monkeypatch, call, *args):
    """How many GrassmannMatrix objects ``call(*args)`` constructs."""
    builds = []
    init = GrassmannMatrix.__init__
    monkeypatch.setattr(GrassmannMatrix, "__init__",
                        lambda self, *a, **k: (builds.append(1), init(self, *a, **k))[1])
    try:
        call(*args)
    finally:
        monkeypatch.undo()
    return len(builds)


def test_series_build_a_fixed_number_of_matrices(monkeypatch):
    """The series iterate on raw blade stacks: inputs whose series take
    different numbers of terms build the same number of matrices."""
    m = random_supermatrix(M_DIM, N_PLANES, ORDER, seed=5, scale=0.3)
    nil, top = m.nilpotent_part(), m.grade(ORDER)   # N terms and 1 term
    cases = {
        "expm Taylor": (expm, [m.body().scale(0.01), m.scale(8.0)]),
        "expm finite": (expm, [top, nil]),
        "logm finite": (logm, [eye() + top, eye() + nil]),
        "logm series": (logm, [eye() + m.scale(0.01), eye() + m.scale(0.3)]),
        "sdet": (Supermatrix.sdet, [eye() + top, eye() + nil]),
        "inverse": (Supermatrix.inverse, [eye() + top, eye() + nil]),
    }
    for name, (call, inputs) in cases.items():
        counts = [count_builds(monkeypatch, call, x) for x in inputs]
        assert counts[0] == counts[1], (name, counts)


def test_exp_stops_at_a_nan_term(wrap_kernel):
    """A non-finite term ends the series at once and the result build
    reports it; the loop does not run on to its term cap."""
    products = []

    def poisoned(product, *args, **kwargs):
        products.append(1)
        masks, stack = product(*args, **kwargs)
        return masks, stack * np.nan

    m = rand(3).scale(0.5 / rand(3).norm())   # no squarings
    wrap_kernel(poisoned)
    with np.errstate(invalid="ignore"), pytest.raises(AlgebraError, match="non-finite"):
        expm(m)
    assert len(products) == 1


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
def test_determinant_singular_body_raises_at_every_size(size):
    # body diag(0, 1, ..., 1) with f1 f2 in the corner: the Leibniz sum is
    # f1 f2, but the body is singular, as for inverse and sdet
    f12 = GrassmannNumber.blade(ORDER, 0b11)
    grid = [[f12 if i == j == 0 else GrassmannNumber.scalar(ORDER, float(i == j))
             for j in range(size)] for i in range(size)]
    mat = GrassmannMatrix.from_entries(grid, ORDER)
    assert leibniz_det(mat) == f12
    with pytest.raises(SingularBodyError):
        mat.det()
    with pytest.raises(SingularBodyError):
        Supermatrix(size, 0, mat).sdet()


def test_exp_of_zero_and_nilpotent():
    zero = Supermatrix.zeros(M_DIM, Q_DIM, ORDER)
    assert (expm(zero) - eye()).norm() == 0.0
    nil = rand(17).nilpotent_part()
    series = eye()
    term = eye()
    for k in range(1, ORDER + 1):
        term = (term @ nil).scale(1.0 / k)
        series = series + term
    assert (expm(nil) - series).norm() <= 1e-12 * max(1.0, series.norm())
    # powers beyond the Grassmann order cancel exactly: no blade exceeds it
    assert all(mask.bit_count() <= ORDER for mask in expm(nil).mat.blades)


def test_exp_berezinian_identity_small():
    for seed in range(5):
        m = rand(seed, scale=0.2)
        lhs = expm(m).sdet()
        rhs = m.supertrace().exp()
        assert (lhs - rhs).norm() <= 1e-10 * max(1.0, rhs.norm())


def test_exp_derivative_at_zero():
    m = rand(19, scale=0.3)
    h = 1e-5
    diff = (expm(m.scale(h)) - expm(m.scale(-h))).scale(1.0 / (2 * h))
    assert (diff - m).norm() <= 1e-6 * max(1.0, m.norm())


def test_log_identity_and_nilpotent_bijection():
    assert logm(eye()).norm() == 0.0
    for seed in range(10):
        nil = rand(seed, scale=0.4).nilpotent_part()
        assert (logm(expm(nil)) - nil).norm() <= 1e-12 * max(1.0, nil.norm())


def test_log_exp_roundtrip_near_identity():
    for seed in range(10):
        m = eye() + rand(seed, scale=0.04)
        assert (expm(logm(m)) - m).norm() <= 1e-9 * max(1.0, m.norm())


def test_exp_overflow_raises_plain_algebra_error():
    body = np.eye(SIZE, dtype=complex)
    body[0, 0] = 1e308
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(AlgebraError, match="non-finite") as info:
        expm(Supermatrix.from_body(M_DIM, Q_DIM, body, ORDER))
    assert type(info.value) is AlgebraError  # not SingularBodyError


def test_exp_of_argument_with_overflowing_norm_raises_algebra_error():
    # each entry is finite, but their sum is not: the scaling step has no s
    body = np.eye(M_DIM, dtype=complex)
    body[0, 1] = body[1, 0] = 1e308
    with pytest.raises(AlgebraError, match="norm overflows") as info:
        expm(Supermatrix.from_body(M_DIM, 0, body, ORDER))
    assert type(info.value) is AlgebraError


def test_exp_stops_squaring_at_the_first_overflow(wrap_kernel):
    """A diagonal body coefficient of 1.7e308 in the golden exp payload makes
    the squaring count about 1024; the total overflows within a few squares,
    and exp raises there, after a few dozen kernel products, not one a step."""
    data = json.loads((Path(__file__).parent / "golden" / "exp.json").read_text())
    diagonal = next(row[i]["terms"][0] for i, row in enumerate(data["rows"])
                    if row[i]["terms"] and row[i]["terms"][0]["mask"] == 0)
    diagonal["re"] = 1.7e308
    mat = Supermatrix.from_dict(data)
    calls = []

    def counted(product, *args, **kwargs):
        calls.append(1)
        return product(*args, **kwargs)

    wrap_kernel(counted)
    with pytest.raises(AlgebraError, match="^non-finite entry in blade slice$"):
        expm(mat)
    assert 0 < len(calls) < 100


def test_log_domain_error():
    body = np.diag([-1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]).astype(complex)
    with pytest.raises(LogDomainError):
        logm(Supermatrix.from_body(M_DIM, Q_DIM, body, ORDER))


def test_log_domain_message_writes_the_radius_in_e_format():
    # a fixed-point radius would print 1e200 as a 201-digit number
    body = np.eye(3)
    body[0, 0] = 1e200
    with pytest.raises(LogDomainError, match=r"\(spectral radius 1\.000e\+200\)$"):
        logm(Supermatrix.from_body(3, 0, body, 2))


def bosonic_rotation(theta):
    """The rotation by theta in the first plane of (3|0), over Lambda_2."""
    body = np.eye(3, dtype=complex)
    body[:2, :2] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    return Supermatrix.from_body(3, 0, body, 2)


def test_log_series_that_does_not_converge_raises():
    # ||m - I|| < 1 at both angles; at 1.045 the 5000-term series stops
    # short of its stopping test, its partial sum 4e-8 from the logarithm
    m = bosonic_rotation(1.03)
    assert (expm(logm(m)) - m).norm() <= 1e-12
    with pytest.raises(LogDomainError, match="did not converge in 5000 terms"):
        logm(bosonic_rotation(1.045))


def test_body_projection_homomorphism():
    nil = rand(23).nilpotent_part()
    assert (eye() + nil).body().isclose(eye(), 1e-15)
    a, b = rand(29), rand(31)
    lhs = (a @ b).body()
    rhs = a.body() @ b.body()
    assert (lhs - rhs).norm() <= 1e-12 * max(1.0, lhs.norm())


def test_norm_submultiplicative():
    for seed in range(5):
        a, b = rand(seed), rand(seed + 400)
        assert (a @ b).norm() <= a.norm() * b.norm() + 1e-9


def test_grading_decomposition_and_multiplicativity():
    m = rand(37)
    total = Supermatrix.zeros(M_DIM, Q_DIM, ORDER)
    for k in range(ORDER + 1):
        total = total + m.grade(k)
    assert (total - m).norm() == 0.0
    a, b = rand(41), rand(43)
    for j in range(3):
        for k in range(3):
            product = a.grade(j) @ b.grade(k)
            assert (product - product.grade(j + k)).norm() == 0.0


def test_body_times_nilpotent_exponential_factorization():
    for seed in range(10):
        m = eye() + rand(seed, scale=0.25)
        body = m.body()
        factor = logm(body.inverse() @ m)
        assert factor.body().norm() <= 1e-12
        rebuilt = body @ expm(factor)
        assert (rebuilt - m).norm() <= 1e-9 * max(1.0, m.norm())


def test_json_roundtrip_and_parity_check_on_load():
    m = rand(47)
    data = m.to_dict()
    again = Supermatrix.from_dict(data)
    assert (again - m).norm() <= 1e-15 * max(1.0, m.norm())
    bad = eye().to_dict()
    bad["rows"][0][M_DIM] = GrassmannNumber.one(ORDER).to_dict()
    with pytest.raises(ParityError):
        Supermatrix.from_dict(bad)
