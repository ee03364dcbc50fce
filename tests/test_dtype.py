"""The dtype rule of blade stacks: float64 when every imaginary part is +0.0,
complex128 otherwise (``grassmann._as_stack``).

Real payloads and the seeded generators compute in float64 through every
matrix and vector command.  A real operand met with a complex one gives a
complex result, equal to "the complex computation": the same operation with
every stack held as complex128, as all stacks were before the rule (the rule
switched off by ``every_stack_complex``).  Real operands give float64
results equal to that computation as well.  A -0.0 imaginary part keeps its
stack complex, so its text round-trips.  Writing complex values into a real
array would raise numpy's ComplexWarning, a RuntimeWarning, which the suite
raises as an error, so none of these computations truncates one.
"""

import contextlib
import json
from unittest import mock

import numpy as np
import pytest

from superspin import (
    ExtendedSuperbivector,
    GrassmannMatrix,
    GrassmannNumber,
    Supermatrix,
    Supervector,
    apply_matrix,
    bivector_to_matrix,
    clifford,
    commutator_action,
    expm,
    grassmann,
    lift_rotation,
    logm,
    matrix_to_bivector,
    orthosymplectic,
    random_grassmann,
    random_rotation,
    random_so0,
    random_sphere_vector,
    random_supermatrix,
    random_supervector,
    reflect,
    supermatrix,
    wedge,
)
from superspin.cli import main
from superspin.grassmann import _as_stack
from superspin.orthosymplectic import _sp_basis
from superspin.supermatrix import symplectic_form

M, N, ORDER = 3, 1, 4
COMPLEX = 0.6 - 0.8j
TOL = 1e-12


# -- helpers -----------------------------------------------------------------------


@contextlib.contextmanager
def every_stack_complex():
    """The rule switched off: every stack a constructor adopts is held as
    complex128."""
    def complex_stack(values):
        return np.asarray(values).astype(complex)

    with mock.patch.object(grassmann, "_as_stack", complex_stack), \
            mock.patch.object(supermatrix, "_as_stack", complex_stack), \
            mock.patch.object(clifford, "_as_stack", complex_stack):
        yield


def held_complex(obj):
    """``obj`` with its stack held as complex128, past the rule."""
    if isinstance(obj, GrassmannMatrix):
        mat = object.__new__(GrassmannMatrix)
        mat.rows, mat.cols, mat.order, mat.masks = obj.rows, obj.cols, obj.order, obj.masks
        mat.stack = obj.stack.astype(complex)
        mat.stack.flags.writeable = False
        return mat
    if isinstance(obj, Supermatrix):
        return Supermatrix(obj.p, obj.q, held_complex(obj.mat), validate=False)
    copy = object.__new__(type(obj))
    copy.m, copy.n, copy.mat = obj.m, obj.n, held_complex(obj.mat)
    return copy


def odd_part(mat: Supermatrix) -> Supermatrix:
    """The off-diagonal blocks: in so_0 when ``mat`` is."""
    zero_a = GrassmannMatrix.zeros(mat.p, mat.p, mat.order)
    zero_d = GrassmannMatrix.zeros(mat.q, mat.q, mat.order)
    return Supermatrix.from_blocks(zero_a, mat.block_b(), mat.block_c(), zero_d)


def same_as_complex_computation(function, *args):
    """function(*args), and the same with every stack complex, arguments
    included."""
    got = function(*args)
    with every_stack_complex():
        want = function(*map(held_complex, args))
    return got, want


def assert_close(got, want):
    if isinstance(want, GrassmannNumber):
        assert got.isclose(want, TOL)
    else:
        assert got.mat.isclose(want.mat, TOL)


# -- operands ----------------------------------------------------------------------


ROTATION = random_rotation(M, N, ORDER, seed=1)
ROTATION_B = random_rotation(M, N, ORDER, seed=2)
ALGEBRA = random_so0(M, N, ORDER, seed=3)
NEAR_IDENTITY = expm(ALGEBRA.scale(0.1))
VECTOR = random_supervector(M, N, ORDER, seed=4)
AXIS = random_sphere_vector(M, N, ORDER, seed=5)
BIVECTOR = matrix_to_bivector(ALGEBRA)
EVEN_REAL = random_grassmann(np.random.default_rng(6), ORDER, parity="even")
EVEN_COMPLEX = random_grassmann(np.random.default_rng(7), ORDER, parity="even", real=False)

# complex operands, and complex inputs whose blocks are real and complex
MATRIX_C = random_supermatrix(M, N, ORDER, seed=8).scale(COMPLEX)
ALGEBRA_C = ALGEBRA.scale(COMPLEX)
VECTOR_C = random_supervector(M, N, ORDER, seed=9).scale(COMPLEX)
BIVECTOR_C = matrix_to_bivector(ALGEBRA_C)
ROTATION_MIXED = ROTATION + odd_part(random_supermatrix(M, N, ORDER, seed=10)).scale(0.1j)
ALGEBRA_MIXED = ALGEBRA + odd_part(random_so0(M, N, ORDER, seed=11)).scale(0.2j)


def test_the_operands_have_the_dtypes_the_rule_gives():
    for real in (ROTATION, ROTATION_B, ALGEBRA, NEAR_IDENTITY, VECTOR, AXIS, BIVECTOR):
        assert real.mat.stack.dtype == np.float64
    for mixed in (MATRIX_C, ALGEBRA_C, VECTOR_C, BIVECTOR_C, ROTATION_MIXED, ALGEBRA_MIXED):
        assert mixed.mat.stack.dtype == np.complex128
        assert np.abs(mixed.mat.stack.imag).max() > 0.01
    assert random_supermatrix(M, N, ORDER, seed=8).mat.stack.dtype == np.float64
    # the blocks of the mixed inputs: real diagonal, complex odd
    assert ROTATION_MIXED.block_a().stack.dtype == np.float64
    assert ROTATION_MIXED.block_b().stack.dtype == np.complex128


MIXED = {
    "matmul": (lambda a, b: a @ b, (ROTATION, MATRIX_C)),
    "rmatmul": (lambda a, b: a @ b, (MATRIX_C, ROTATION)),
    "add": (lambda a, b: a + b, (ROTATION, MATRIX_C)),
    "sub": (lambda a, b: a - b, (MATRIX_C, ROTATION)),
    "scale-by-complex": (lambda a: a.scale(COMPLEX), (ROTATION,)),
    "scale-by-complex-number": (lambda a: a.scale(EVEN_COMPLEX), (ROTATION,)),
    "scale-complex-by-real-number": (lambda a: a.scale(EVEN_REAL), (MATRIX_C,)),
    "vector-scale": (lambda x: x.scale(EVEN_COMPLEX), (VECTOR,)),
    "vector-add": (lambda x, y: x + y, (VECTOR, VECTOR_C)),
    "bivector-sub": (lambda b, c: b - c, (BIVECTOR, BIVECTOR_C)),
    "inverse": (lambda a: a.inverse(), (ROTATION_MIXED,)),
    "sdet": (lambda a: a.sdet(), (ROTATION_MIXED,)),
    "expm": (expm, (ALGEBRA_MIXED,)),
    "logm": (lambda a: logm(expm(a.scale(0.1))), (ALGEBRA_MIXED,)),
    "apply-matrix": (apply_matrix, (ROTATION, VECTOR_C)),
    "apply-complex-matrix": (apply_matrix, (MATRIX_C, VECTOR)),
    "commutator-action": (commutator_action, (BIVECTOR, VECTOR_C)),
    "complex-commutator-action": (commutator_action, (BIVECTOR_C, VECTOR)),
    "reflect": (reflect, (AXIS, VECTOR_C)),
    "wedge": (wedge, (VECTOR, VECTOR_C)),
    "phi": (bivector_to_matrix, (BIVECTOR_C,)),
    "phi-inv": (matrix_to_bivector, (ALGEBRA_MIXED,)),
}


@pytest.mark.parametrize("name", sorted(MIXED))
def test_a_complex_operand_gives_the_complex_computation(name):
    function, args = MIXED[name]
    got, want = same_as_complex_computation(function, *args)
    if not isinstance(got, GrassmannNumber):
        assert got.mat.stack.dtype == np.complex128
        assert np.abs(got.mat.stack.imag).max() > 1e-3
    assert_close(got, want)


REAL = {
    "matmul": (lambda a, b: a @ b, (ROTATION, ROTATION_B)),
    "add": (lambda a, b: a + b, (ROTATION, ROTATION_B)),
    "sub": (lambda a, b: a - b, (ROTATION, ROTATION_B)),
    "scale": (lambda a: a.scale(-0.5).scale(EVEN_REAL), (ROTATION,)),
    "inverse": (lambda a: a.inverse(), (ROTATION,)),
    "sdet": (lambda a: a.sdet(), (ROTATION,)),
    "expm": (expm, (ALGEBRA,)),
    "logm": (logm, (NEAR_IDENTITY,)),
    "apply-matrix": (apply_matrix, (ROTATION, VECTOR)),
    "commutator-action": (commutator_action, (BIVECTOR, VECTOR)),
    "reflect": (reflect, (AXIS, VECTOR)),
    "wedge": (wedge, (AXIS, VECTOR)),
    "phi": (bivector_to_matrix, (BIVECTOR,)),
    "phi-inv": (matrix_to_bivector, (ALGEBRA,)),
}


@pytest.mark.parametrize("name", sorted(REAL))
def test_real_operands_compute_in_float64_as_the_complex_computation(name):
    function, args = REAL[name]
    got, want = same_as_complex_computation(function, *args)
    if not isinstance(got, GrassmannNumber):
        assert got.mat.stack.dtype == np.float64
        assert want.mat.stack.dtype == np.complex128
    assert_close(got, want)


# -- the CLI -----------------------------------------------------------------------


def real_payloads() -> dict[str, object]:
    spin = lift_rotation(ROTATION)
    return {
        "check-o0": ROTATION.to_dict(),
        "check-so0": ROTATION.to_dict(),
        "check-so0-algebra": ALGEBRA.to_dict(),
        "sdet": ROTATION.to_dict(),
        "exp": ALGEBRA.to_dict(),
        "ln": NEAR_IDENTITY.to_dict(),
        "decompose": ROTATION.to_dict(),
        "lift": ROTATION.to_dict(),
        "act": {"matrix": ROTATION.to_dict(), "vector": VECTOR.to_dict()},
        "act-spin": {"spin": spin.to_dict(), "vector": VECTOR.to_dict()},
        "reflect": {"w": AXIS.to_dict(), "x": VECTOR.to_dict()},
        "inner": {"x": AXIS.to_dict(), "y": VECTOR.to_dict()},
        "phi": BIVECTOR.to_dict(),
        "phi-inv": ALGEBRA.to_dict(),
    }


@pytest.mark.parametrize("command", sorted(real_payloads()))
def test_real_payloads_compute_in_float64_through_every_matrix_and_vector_command(
        capsys, tmp_path, monkeypatch, command):
    """Every blade stack the command builds, from reading its payload to
    writing its output, is float64."""
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(real_payloads()[command]))
    built = []
    init = GrassmannMatrix.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.stack.dtype)

    monkeypatch.setattr(GrassmannMatrix, "__init__", recording_init)
    assert main([command.removesuffix("-spin"), "--input", str(path)]) == 0
    assert '"im": -0.0' not in capsys.readouterr().out
    assert built and set(built) == {np.dtype(np.float64)}


# -- the seeded so_0 generator -------------------------------------------------------


def per_entry_so0(m, n, order, rng, scale):
    """The so_0 generator as it was built entry by entry: a GrassmannNumber
    grid for A (its lower triangle negated numbers, whose imaginary parts
    are -0.0) and C, and D summed one basis matrix at a time."""
    zero = GrassmannNumber.zero(order)
    a_grid = [[zero for _ in range(m)] for _ in range(m)]
    for j in range(m):
        for k in range(j + 1, m):
            g = random_grassmann(rng, order, parity="even", scale=scale)
            a_grid[j][k] = g
            a_grid[k][j] = -g
    a = GrassmannMatrix.from_entries(a_grid, order) if m else \
        GrassmannMatrix.zeros(0, 0, order)
    c_grid = [[random_grassmann(rng, order, parity="odd", scale=scale) for _ in range(m)]
              for _ in range(2 * n)]
    c = GrassmannMatrix.from_entries(c_grid, order) if m and n else \
        GrassmannMatrix.zeros(2 * n, m, order)
    omega = GrassmannMatrix.from_body(symplectic_form(n), order)
    b = (c.transpose() @ omega).scale(0.5)
    d = GrassmannMatrix.zeros(2 * n, 2 * n, order)
    for basis_mat in _sp_basis(n):
        g = random_grassmann(rng, order, parity="even", scale=scale)
        d = d + GrassmannMatrix.from_body(basis_mat, order).scale(g)
    return Supermatrix.from_blocks(a, b, c, d)


def workload_seeds(seed):
    """(shape, seed) of each so_0 element and of each rotation stream the
    two benchmark workloads draw at workload seed ``seed``."""
    so0 = [((4, 2, 4), seed * 1000 + 10 * i + 3) for i in range(20)]
    so0 += [((6, 2, 4), seed * 1000 + 10 * i + 1) for i in range(2)]
    rotations = [((6, 2, 4), seed * 1000 + 10 * i + k) for i in range(2) for k in (0, 5)]
    return so0, rotations


SO0_SHAPES = [(0, 1, 0), (0, 2, 4), (1, 1, 2), (2, 1, 1), (3, 0, 4), (3, 1, 4), (4, 2, 4),
              (6, 2, 4), (2, 0, 0), (0, 0, 3)]
TEST_SEEDS = [*range(31), 50, 61, 66, 700, 801, 802, 900, 901]


@pytest.mark.parametrize("m, n", [(0, 1), (0, 2), (3, 0), (1, 0), (2, 1), (3, 1)])
@pytest.mark.parametrize("order", [0, 1, 4])
def test_seeded_so0_elements_rotations_and_bivectors_are_float64(m, n, order):
    for seed in range(3):
        algebra = random_so0(m, n, order, seed=seed)
        assert algebra.mat.stack.dtype == np.float64
        assert matrix_to_bivector(algebra).mat.stack.dtype == np.float64
        assert random_rotation(m, n, order, seed=seed).mat.stack.dtype == np.float64


@pytest.mark.parametrize("shape", SO0_SHAPES)
def test_the_so0_generator_draws_the_per_entry_elements_bit_for_bit(shape):
    """Three elements drawn in a row from one generator, as random_rotation
    draws its factors: the same masks, and real parts with the same bits
    (the per-entry imaginary parts are zeros of either sign)."""
    seeds = TEST_SEEDS
    if shape in ((4, 2, 4), (6, 2, 4)):
        for workload_seed in (1, 2, 77, 301, 4242, 9111):
            so0, rotations = workload_seeds(workload_seed)
            seeds = seeds + [s for s_shape, s in so0 + rotations if s_shape == shape]
    for seed in seeds:
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            got = orthosymplectic._random_so0_from_rng(*shape, got_rng, 0.25)
            want = per_entry_so0(*shape, want_rng, 0.25)
            assert got.mat.stack.dtype == np.float64
            assert got.mat.masks == want.mat.masks
            assert not want.mat.stack.imag.any()
            assert (got.mat.stack.view(np.uint64)
                    == np.ascontiguousarray(want.mat.stack.real).view(np.uint64)).all()


def test_seeded_rotations_are_the_products_of_the_per_entry_exponentials():
    for shape, seed in [((3, 1, 4), 1), ((2, 1, 2), 5), ((6, 2, 4), 9111000)]:
        rng = np.random.default_rng(seed)
        want = Supermatrix.eye(shape[0], 2 * shape[1], shape[2])
        for _ in range(3):
            want = want @ expm(per_entry_so0(*shape, rng, 0.25))
        assert random_rotation(*shape, seed=seed).mat.isclose(want.mat, 1e-14)


def per_entry_supermatrix(m, n, order, seed, scale=0.25):
    """``random_supermatrix`` as it was built: one ``random_grassmann`` per
    entry, row by row, even in the diagonal blocks and odd off them."""
    rng = np.random.default_rng(seed)
    size = m + 2 * n
    grid = [[random_grassmann(rng, order, parity="even" if (i < m) == (j < m) else "odd",
                              scale=scale) for j in range(size)] for i in range(size)]
    return Supermatrix.from_entries(m, 2 * n, grid, order)


def per_entry_supervector(m, n, order, seed, scale=0.5):
    """``random_supervector`` as it was built: m even, then 2n odd numbers."""
    rng = np.random.default_rng(seed)
    even = [random_grassmann(rng, order, parity="even", scale=scale) for _ in range(m)]
    odd = [random_grassmann(rng, order, parity="odd", scale=scale) for _ in range(2 * n)]
    return Supervector(m, n, order, even, odd)


@pytest.mark.parametrize("shape", [(0, 1, 0), (3, 0, 1), (2, 1, 4), (6, 2, 4), (4, 2, 4),
                                   (3, 1, 5), (0, 0, 3), (1, 1, 0)])
def test_seeded_supermatrices_and_vectors_are_the_per_entry_draws(shape):
    for seed in range(5):
        for got, want in ((random_supermatrix(*shape, seed=seed),
                           per_entry_supermatrix(*shape, seed)),
                          (random_supervector(*shape, seed=seed),
                           per_entry_supervector(*shape, seed))):
            assert got.mat.masks == want.mat.masks
            assert got.mat.stack.dtype == want.mat.stack.dtype == np.float64
            assert got.mat.stack.tobytes() == want.mat.stack.tobytes()


# -- signed zeros and the rule itself ------------------------------------------------


def test_a_negative_zero_imaginary_part_keeps_its_stack_complex_and_its_text():
    payloads = {
        Supervector: VECTOR.to_dict(),
        Supermatrix: ROTATION.to_dict(),
        ExtendedSuperbivector: BIVECTOR.to_dict(),
    }
    for cls, data in payloads.items():
        cell = (data["even"][0] if cls is Supervector else data["rows"][0][0]
                if cls is Supermatrix else data["b"][0]["coeff"])
        cell["terms"][0]["im"] = -0.0
        held = cls.from_dict(data)
        assert held.mat.stack.dtype == np.complex128
        text = held.to_json()
        assert text.count('"im": -0.0') == 1
        assert cls.from_dict(json.loads(text)).to_json() == text
        cell["terms"][0]["im"] = 0.0
        assert cls.from_dict(data).mat.stack.dtype == np.float64


def test_the_rule_reads_the_bits_of_every_imaginary_part():
    real = np.array([[[1.0, -0.0]]])
    assert _as_stack(real) is real
    assert _as_stack(np.array([[[1, 2]]])).dtype == np.float64
    for imag, dtype in ((0.0, np.float64), (-0.0, np.complex128), (5e-324, np.complex128),
                        (1.0, np.complex128)):
        values = np.array([[[complex(2.0, 0.0), complex(-0.0, imag)]]])
        held = _as_stack(values)
        assert held.dtype == dtype and held.flags.c_contiguous
        assert held.tobytes() == (values.real if dtype == np.float64 else values).tobytes()
    mat = GrassmannMatrix(1, 2, 1, masks=(1,), stack=np.array([[[1.0 + 0j, 2.0 + 0j]]]))
    assert mat.stack.dtype == np.float64 and not mat.stack.flags.writeable


def test_a_truncating_assignment_is_an_error_in_this_suite():
    """ComplexWarning is a RuntimeWarning, which the suite's filter raises."""
    complex_warning = getattr(np, "exceptions", np).ComplexWarning
    assert issubclass(complex_warning, RuntimeWarning)
    with pytest.raises(complex_warning):
        np.zeros(1)[0:1] = np.array([1j])
