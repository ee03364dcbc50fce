"""CLI payloads: the JSON writer, the payload codecs and the shared parser.

The writer is checked against ``json.dumps(indent=2, allow_nan=False)``;
every payload class's ``to_json`` against ``json.dumps`` of the dict the
previous encoders built (``oracle_dict``); and the Supermatrix, Supervector,
bivector and spin element decoders against the per-entry route through
``GrassmannNumber`` kept below as an oracle.
"""

import functools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superspin import (
    CliffordElement,
    ExtendedSuperbivector,
    GrassmannMatrix,
    GrassmannNumber,
    SpinElement,
    Supermatrix,
    Supervector,
    expm,
    matrix_to_bivector,
    random_rotation,
    random_so0,
    random_sphere_vector,
    random_supervector,
)
from superspin import cli
from superspin.cli import main
from superspin.exceptions import (
    AlgebraError,
    OrderMismatchError,
    ParityError,
    ShapeMismatchError,
)
from superspin import grassmann
from superspin.grassmann import CANON_EPS, DEFAULT_TOL, MAX_ORDER, _json_text


def oracle_text(value) -> str:
    return json.dumps(value, indent=2, allow_nan=False)


# -- the writer ---------------------------------------------------------------------

FLOATS = (st.floats(allow_nan=False, allow_infinity=False)
          | st.sampled_from([0.0, -0.0, 5e-324, -2.225e-308, 1e16, -1e16, 1e22,
                             0.1, 1 / 3, 1e-7, 123456789.0, 1.7976931348623157e308]))
INTS = st.integers() | st.sampled_from([2 ** 63, -2 ** 64, 10 ** 40, -(10 ** 300)])
# pieces of any length; the %-forms would be format slots if the writer did not escape them
STRINGS = st.text() | st.lists(st.sampled_from(
    ['"', "\\", "/", "\n", "\r", "\t", "\b", "\f", "\x00", "\x1f", "\x7f",
     " ", "é", "€", "\U0001f600", "a",
     "%", "%%", "%s", "%(k)d", "100%"])).map("".join)
KEYS = STRINGS | INTS | FLOATS | st.booleans() | st.none()
SCALARS = st.none() | st.booleans() | INTS | FLOATS | STRINGS
TREES = st.recursive(
    SCALARS,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(KEYS, children, max_size=4)),
    max_leaves=25)


@settings(max_examples=400)
@given(TREES)
def test_writer_matches_json_dumps(tree):
    assert _json_text(tree) == oracle_text(tree)


@pytest.mark.parametrize("value", [
    [], {}, (), [[]], {"a": {}}, {"a": []}, [{}, ()], {1: 2, 1.5: True, None: None,
                                                         False: "x", "k": -0.0},
])
def test_writer_matches_json_dumps_on_empty_and_mixed_containers(value):
    assert _json_text(value) == oracle_text(value)


class Count(int):
    pass


class Ratio(float):
    pass


class Name(str):
    pass


class Rows(list):
    pass


class Record(dict):
    pass


def test_writer_accepts_subclasses_as_json_does():
    value = Record({Name("n"): Count(3), "r": Ratio(0.5), "l": Rows([Count(-1)]),
                    Count(7): np.float64(0.1), Ratio(2.5): Name("s\n")})
    assert _json_text(value) == oracle_text(value)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, Ratio(math.inf)])
@pytest.mark.parametrize("where", ["top", "list", "dict", "key"])
def test_non_finite_floats_raise_value_error(bad, where):
    value = {"top": bad, "list": [1.0, bad], "dict": {"a": {"b": bad}},
             "key": {bad: 1}}[where]
    with pytest.raises(ValueError):
        oracle_text(value)
    with pytest.raises(ValueError):
        _json_text(value)


@pytest.mark.parametrize("bad", [
    1j, np.zeros(2), {1, 2}, object(), np.int64(3), {"a": [1, 2j]}, {(1, 2): 3},
    {"a": {frozenset(): 1}}, [np.bool_(True)],
])
def test_unserialisable_values_raise_type_error(bad):
    with pytest.raises(TypeError):
        oracle_text(bad)
    with pytest.raises(TypeError):
        _json_text(bad)


def test_failed_emit_writes_nothing(capsys, monkeypatch, tmp_path):
    with pytest.raises(ValueError):
        cli._emit({"a": [1.0, 2.0], "b": math.nan})
    with pytest.raises(TypeError):
        cli._emit({"a": [1.0, 2.0], "b": 1j})
    assert capsys.readouterr().out == ""

    class Unwritable:
        def to_json(self, newline="\n"):
            return _json_text({"p": 1, "rows": [[{"re": math.inf}]]}, newline)

    with pytest.raises(ValueError, match="Out of range float"):
        cli._emit({"r": Unwritable()})
    assert capsys.readouterr().out == ""
    monkeypatch.setattr(cli, "expm", lambda m: Unwritable())
    path = tmp_path / "m.json"
    path.write_text(json.dumps(Supermatrix.eye(1, 0, 0).to_dict()))
    assert main(["exp", "--input", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "Out of range float" in err


# -- to_json and to_dict ------------------------------------------------------------


def oracle_number(g: GrassmannNumber) -> dict:
    """The dict ``GrassmannNumber.to_dict`` built before it parsed ``to_json``."""
    return {"N": g.order, "terms": [
        {"mask": m, "re": g.terms[m].real, "im": g.terms[m].imag} for m in sorted(g.terms)]}


def oracle_cells(order: int, masks, values: np.ndarray) -> list[dict]:
    """The dict builder the stack classes encoded their cells with: each row
    of ``values`` (cells x blades) as a number dict, one CANON_EPS filter."""
    re, im = values.real, values.imag
    kept = (np.abs(re) >= CANON_EPS) | (np.abs(im) >= CANON_EPS)
    ii, kk = np.nonzero(kept)
    terms = [{"mask": m, "re": r, "im": i} for m, r, i in zip(
        np.asarray(masks, dtype=np.int64)[kk].tolist(), re[ii, kk].tolist(),
        im[ii, kk].tolist())]
    ends = np.cumsum(kept.sum(axis=1)).tolist()
    return [{"N": order, "terms": terms[start:end]} for start, end in zip([0] + ends, ends)]


def oracle_dict(x) -> dict:
    """The ``to_dict`` form of every payload class, built as dicts."""
    if isinstance(x, GrassmannNumber):
        return oracle_number(x)
    if isinstance(x, Supermatrix):
        size = x.size
        cells = oracle_cells(x.order, x.mat.masks,
                             x.mat.stack.reshape(len(x.mat.masks), size * size).T)
        return {"p": x.p, "q": x.q, "N": x.order,
                "rows": [cells[i * size:(i + 1) * size] for i in range(size)]}
    if isinstance(x, Supervector):
        cells = oracle_cells(x.order, x.mat.masks, x.mat.stack[:, :, 0].T)
        return {"m": x.m, "n": x.n, "N": x.order, "even": cells[:x.m], "odd": cells[x.m:]}
    if isinstance(x, ExtendedSuperbivector):
        return oracle_bivector_dict(x.m, x.n, x.order, (x.b, x.bq, x.bb))
    if isinstance(x, SpinElement):
        return {"m": x.m, "n": x.n, "N": x.order,
                "factors": [oracle_dict(f) for f in x.factors]}
    if isinstance(x, CliffordElement):
        return {"m": x.m, "n": x.n, "N": x.order, "cap": x.cap, "truncated": x.truncated,
                "terms": [{"emask": emask, "alpha": list(alpha), "coeff": oracle_number(c)}
                          for (emask, alpha), c in sorted(x.terms.items())]}
    raise TypeError(type(x).__name__)


def oracle_tree(value):
    """``value`` with every payload object replaced by its oracle dict."""
    if hasattr(value, "to_json"):
        return oracle_dict(value)
    if isinstance(value, dict):
        return {key: oracle_tree(item) for key, item in value.items()}
    if isinstance(value, list):
        return [oracle_tree(item) for item in value]
    return value


# Coefficient parts: signed zeros, the CANON_EPS edge from both sides, and the
# repr forms json writes (exponent switch at 1e16 and 1e-5, subnormals).
PARTS = (st.sampled_from([
    0.0, -0.0, 1.0, -2.5, CANON_EPS, -CANON_EPS, math.nextafter(CANON_EPS, 0.0),
    math.nextafter(CANON_EPS, 1.0), 3e-15, 1e16, -1e16, 9999999999999998.0, 1e-5,
    9.999999999999999e-06, 5e-324, -5e-324, 1 / 3, 1e22, 123456789.0])
    | st.floats(min_value=-1e6, max_value=1e6))
SIGNATURES = st.sampled_from([(0, 0), (0, 1), (2, 0), (1, 1), (3, 1), (2, 2)])
ORDERS = st.sampled_from([0, 1, 4, MAX_ORDER])


def complexes(size):
    return st.lists(st.tuples(PARTS, PARTS), min_size=size, max_size=size).map(
        lambda parts: np.array([complex(re, im) for re, im in parts], dtype=complex))


@st.composite
def blade_stacks(draw, order, rows, cols, parity=None):
    """(masks, stack) of at most 4 blades; ``parity(odd, rows, cols)`` says
    which cells each blade may fill (the rest are 0.0)."""
    masks = sorted(draw(st.sets(st.integers(0, (1 << order) - 1), max_size=4)))
    stack = draw(complexes(len(masks) * rows * cols)).reshape(len(masks), rows, cols)
    if parity is not None:
        odd = np.array([m.bit_count() % 2 == 1 for m in masks], dtype=bool)
        stack = np.where(parity(odd[:, None, None], rows, cols), stack, 0.0)
    return masks, stack


@st.composite
def numbers(draw, order=None, parity=None):
    order = draw(ORDERS) if order is None else order
    masks, stack = draw(blade_stacks(order, 1, 1))
    terms = draw(st.permutations(list(zip(masks, stack.ravel()))))  # any insertion order
    return GrassmannNumber(order, {m: c for m, c in terms
                                   if parity is None or m.bit_count() % 2 == (parity == "odd")})


def _supermatrix_parity(p):
    def allowed(odd, rows, cols):
        diagonal = (np.arange(rows)[:, None] < p) == (np.arange(cols)[None, :] < p)
        return diagonal != odd
    return allowed


@st.composite
def supermatrices(draw):
    (p, q), order = draw(SIGNATURES), draw(ORDERS)
    masks, stack = draw(blade_stacks(order, p + q, p + q, _supermatrix_parity(p)))
    return Supermatrix(p, q, GrassmannMatrix(p + q, p + q, order, masks=masks, stack=stack))


@st.composite
def supervectors(draw):
    (m, n), order = draw(SIGNATURES), draw(ORDERS)
    masks, stack = draw(blade_stacks(order, m + 2 * n, 1, lambda odd, rows, cols: (
        (np.arange(rows) >= m)[:, None] == odd)))
    return Supervector.from_column(m, n, GrassmannMatrix(m + 2 * n, 1, order, masks=masks,
                                                         stack=stack))


@st.composite
def bivectors(draw, signature=None):
    m, n, order = signature or (*draw(SIGNATURES), draw(ORDERS))
    keys = ([(j, k) for j in range(1, m + 1) for k in range(j + 1, m + 1)],
            [(j, u) for j in range(1, m + 1) for u in range(1, 2 * n + 1)],
            [(u, v) for u in range(1, 2 * n + 1) for v in range(u, 2 * n + 1)])
    families = [{key: draw(numbers(order, parity))
                 for key in draw(st.lists(st.sampled_from(family), max_size=3))}
                if family else {} for family, parity in zip(keys, ("even", "odd", "even"))]
    return ExtendedSuperbivector(m, n, order, *families)


@st.composite
def spin_elements(draw):
    m, n, order = *draw(SIGNATURES), draw(ORDERS)
    factors = draw(st.lists(bivectors((m, n, order)), max_size=2))
    return SpinElement(m, n, order, factors)


@st.composite
def clifford_elements(draw):
    m, n, order, cap = *draw(SIGNATURES), draw(ORDERS), draw(st.integers(0, 3))
    keys = st.tuples(st.integers(0, (1 << m) - 1),
                     st.lists(st.integers(0, 1), min_size=2 * n, max_size=2 * n).map(tuple))
    terms = {key: draw(numbers(order)) for key in draw(st.lists(keys, max_size=3))
             if sum(key[1]) <= cap}
    return CliffordElement(m, n, order, cap, terms, truncated=draw(st.booleans()))


PAYLOADS = (numbers() | supermatrices() | supervectors() | bivectors() | spin_elements()
            | clifford_elements())


@settings(max_examples=300, deadline=None)
@given(PAYLOADS)
def test_to_json_is_json_dumps_of_the_oracle_dict(x):
    want = oracle_dict(x)
    assert x.to_json() == oracle_text(want)
    assert x.to_json("\n    ") == oracle_text(want).replace("\n", "\n    ")
    got = x.to_dict()
    assert got == want
    assert json.dumps(got) == json.dumps(want)  # the signs of zeros too


def edge_bivectors() -> list[ExtendedSuperbivector]:
    """Bivectors with m = 0, n = 0 or N = 0, empty families, and complex
    coefficients, one of them with -0.0 parts."""
    def g(order, terms):
        return GrassmannNumber(order, terms)

    return [
        ExtendedSuperbivector(0, 1, 0, bb={(1, 1): g(0, {0: 1 + 2j}), (1, 2): g(0, {0: -0.5})}),
        ExtendedSuperbivector(3, 0, 2, b={(1, 2): g(2, {0: -0.5j, 3: 1.0}),
                                          (2, 3): g(2, {3: 2.5})}),
        ExtendedSuperbivector(2, 1, 4, bq={(2, 1): g(4, {1: complex(1.5, -0.0), 7: 3j})}),
        ExtendedSuperbivector(2, 1, 4, b={(1, 2): g(4, {0: complex(-0.0, 0.25)})},
                              bq={(1, 2): g(4, {2: -1.0})}, bb={(2, 2): g(4, {0: 0.75j, 5: 1.0})}),
        ExtendedSuperbivector.zero(0, 0, 0),
    ]


def test_to_json_covers_the_edge_shapes():
    """Empty cells, p = 0, q = 0, N = 0 and MAX_ORDER, written exactly; the
    bivectors and spin elements also as json.dumps of their parsed text.
    Each matrix row, supervector coordinate list and bivector family is one
    list node of the writer, so a row of empty cells amid full ones, a
    (0|0) matrix, an empty family between full ones, complex -0.0 parts in a
    family and an empty even list are among the inputs."""
    bivectors = edge_bivectors()
    g = GrassmannNumber
    edge = [Supermatrix.zeros(2, 0, 0), Supermatrix.eye(0, 2, MAX_ORDER),
            Supermatrix.zeros(0, 0, 1), Supervector.zero(0, 1, 4),
            Supermatrix.from_body(1, 2, np.diag([1.5, 0.0, -2.0]), 2),
            Supermatrix.eye(0, 0, 3),
            ExtendedSuperbivector(2, 1, 2, b={(1, 2): g(2, {0: 1.0, 3: -0.25})},
                                  bb={(1, 1): g(2, {3: -2.0}), (2, 2): g(2, {0: 0.5})}),
            ExtendedSuperbivector(2, 1, 2, b={(1, 2): g(2, {0: complex(-0.0, 1.5)})},
                                  bq={(2, 2): g(2, {1: complex(2.0, -0.0), 2: -0.5j})}),
            Supervector(0, 1, 2, [], [g(2, {1: complex(-0.0, 0.5)}), g(2, {2: 1.0})]),
            ExtendedSuperbivector.zero(2, 1, MAX_ORDER), SpinElement(1, 0, 0),
            GrassmannNumber(MAX_ORDER, {(1 << MAX_ORDER) - 1: complex(-0.0, 1e16)}),
            CliffordElement(0, 0, 0, 0), *bivectors,
            SpinElement(0, 1, 0, bivectors[:1]), SpinElement(3, 0, 2, bivectors[1:2]),
            SpinElement(2, 1, 4, [bivectors[2], bivectors[3], ExtendedSuperbivector.zero(2, 1, 4)]),
            SpinElement(0, 0, 0, [bivectors[4]])]
    for x in edge:
        assert x.to_json() == oracle_text(oracle_dict(x))
        assert x.to_dict() == oracle_dict(x)
        assert x.to_json() == json.dumps(json.loads(x.to_json()), indent=2)


def test_a_full_max_order_cell_renders_and_the_template_cache_stays_bounded():
    """A complex cell of all 2^16 blades, and a real matrix whose cells
    hold the 2^15 even ones: their templates are longer than the cache's
    byte bound, so they are built for the cell and never cached."""
    rng = np.random.default_rng(3)
    size = 1 << MAX_ORDER
    scales = 10.0 ** rng.integers(-5, 17, size)
    coeffs = (rng.normal(size=size) + 1j * rng.normal(size=size)) * scales
    number = GrassmannNumber(MAX_ORDER, dict(enumerate(coeffs)))
    assert len(number.terms) == size
    even = [m for m in range(size) if m.bit_count() % 2 == 0]
    matrix = Supermatrix(2, 0, GrassmannMatrix(2, 2, MAX_ORDER, masks=even,
                                               stack=coeffs.real[even, None, None] * np.eye(2)))
    templates = grassmann._templates
    for x in (number, matrix, {"%": [number], "%s": {"m": matrix}}):
        assert _json_text(x) == oracle_text(oracle_tree(x))
        assert templates.size == sum(map(len, templates.values()))
        assert templates.size <= grassmann._TEMPLATE_BYTES
        assert all(key[1] < len(even) for key in templates)
    assert number.to_dict() == oracle_dict(number)


def test_a_non_finite_cell_raises_value_error_as_json_does():
    matrix = Supermatrix(1, 0, GrassmannMatrix(1, 1, 0, masks=(0,), stack=np.ones((1, 1, 1))))
    # a finite stack is checked on construction; swap in a non-finite one
    object.__setattr__(matrix.mat, "stack", np.full((1, 1, 1), complex(math.inf, 0.0)))
    with pytest.raises(ValueError):
        oracle_text(oracle_dict(matrix))
    with pytest.raises(ValueError):
        matrix.to_json()


SAMPLE_OBJECTS = [GrassmannNumber(2, {0: 1.5, 3: complex(-0.0, 2e-14)}),
                  random_rotation(1, 1, 2, seed=4), random_supervector(1, 1, 2, seed=5),
                  matrix_to_bivector(random_so0(2, 1, 2, seed=6)),
                  CliffordElement(1, 1, 2, 4, {(1, (1, 0)): GrassmannNumber.one(2)})]
SAMPLE_OBJECTS.append(SpinElement(2, 1, 2, [SAMPLE_OBJECTS[3]]))


class Fragment:
    """Finished JSON text from outside the package: an object whose
    ``to_json(newline)`` returns its text, which the writer inlines."""

    def __init__(self, tree):
        self.tree = tree

    def to_json(self, newline="\n"):
        return oracle_text(self.tree).replace("\n", newline)


# (tree holding fragments and payload objects, the same tree with dicts in their place)
LEAF_PAIRS = (SCALARS.map(lambda v: (v, v))
              | TREES.map(lambda tree: (Fragment(tree), tree))
              | st.sampled_from(SAMPLE_OBJECTS).map(lambda x: (x, oracle_dict(x))))
PAIR_TREES = st.recursive(
    LEAF_PAIRS,
    lambda children: (
        st.lists(children, max_size=4).map(
            lambda items: ([a for a, _ in items], [b for _, b in items]))
        | st.dictionaries(KEYS, children, max_size=4).map(
            lambda d: ({k: a for k, (a, _) in d.items()}, {k: b for k, (_, b) in d.items()}))),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(PAIR_TREES)
def test_fragments_and_objects_nest_at_any_depth(pair):
    written, plain = pair
    assert _json_text(written) == oracle_text(plain)


def _matrix_inputs(tmp_path, m, n, order):
    rot = random_rotation(m, n, order, seed=21)
    alg = random_so0(m, n, order, seed=22)
    w = random_sphere_vector(m, n, order, seed=23)
    x = random_supervector(m, n, order, seed=24)
    y = random_supervector(m, n, order, seed=25)
    payloads = {
        "rotation": rot.to_dict(),
        "near-identity": expm(random_so0(m, n, order, seed=26, scale=0.1)).to_dict(),
        "algebra": alg.to_dict(),
        "reflect": {"w": w.to_dict(), "x": x.to_dict()},
        "pair": {"x": x.to_dict(), "y": y.to_dict()},
        "action": {"matrix": rot.to_dict(), "vector": x.to_dict()},
        "bivector": matrix_to_bivector(alg).to_dict(),
    }
    paths = {}
    for key, payload in payloads.items():
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_text(json.dumps(payload))
    return paths


MATRIX_COMMANDS = [
    ("check-so0", "rotation"), ("sdet", "rotation"), ("exp", "algebra"),
    ("ln", "near-identity"), ("decompose", "rotation"), ("lift", "rotation"),
    ("reflect", "reflect"), ("inner", "pair"), ("act", "action"),
    ("phi", "bivector"), ("phi-inv", "algebra"), ("check-so0-algebra", "algebra"),
]


def test_every_matrix_command_writes_json_dumps_bytes(capsys, monkeypatch, tmp_path):
    """At (m, n, N) = (6, 2, 4), beyond the (3, 1, 4) golden corpus."""
    paths = _matrix_inputs(tmp_path, 6, 2, 4)
    emitted = []
    write = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda payload: (emitted.append(payload),
                                                       write(payload))[1])
    for command, key in MATRIX_COMMANDS:
        code = main([command, "--input", str(paths[key])])
        out = capsys.readouterr().out
        assert code == 0, command
        assert out == oracle_text(oracle_tree(emitted[-1])) + "\n", command
    assert len(emitted) == len(MATRIX_COMMANDS)


# -- the Supermatrix codecs ------------------------------------------------------


def oracle_to_dict(m: Supermatrix) -> dict:
    """The per-entry encoder: one GrassmannNumber per entry."""
    return {"p": m.p, "q": m.q, "N": m.order,
            "rows": [[oracle_number(g) for g in row] for row in m.entries()]}


def oracle_from_dict(data) -> Supermatrix:
    """The per-entry decoder: one GrassmannNumber per entry."""
    p, q, order = int(data["p"]), int(data["q"]), int(data["N"])
    rows = data["rows"]
    if len(rows) != p + q or any(len(r) != p + q for r in rows):
        raise ShapeMismatchError("rows grid does not match p + q")
    entries = [[GrassmannNumber.from_dict(g) for g in row] for row in rows]
    for row in entries:
        for g in row:
            if g.order != order:
                raise OrderMismatchError("entry order differs from matrix order")
    return Supermatrix.from_entries(p, q, entries, order)


def seeded_matrix(p, q, order, seed):
    """Parity-valid complex supermatrix with exact zeros, signed zeros and
    coefficients at and below the canonical threshold among its entries."""
    rng = np.random.default_rng(seed)
    size = p + q
    odd = np.array([k.bit_count() % 2 for k in range(1 << order)], dtype=bool)
    diagonal = np.zeros((size, size), dtype=bool)
    diagonal[:p, :p] = diagonal[p:, p:] = True
    shape = (1 << order, size, size)
    stack = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    pick = rng.integers(0, 6, size=shape)
    stack[pick == 0] = 0.0
    stack[pick == 1] = complex(-0.0, 1.0)
    stack[pick == 2] = complex(3e-15, -0.0)
    stack[pick == 3] = complex(1e-14, 0.0)
    stack *= diagonal != odd[:, None, None]
    stack[0] += 2.0 * np.eye(size)
    return Supermatrix(p, q, GrassmannMatrix(size, size, order,
                                             masks=range(1 << order), stack=stack))


CODEC_SHAPES = [(3, 1, 4), (6, 2, 4), (10, 3, 6), (0, 2, 3), (3, 0, 3), (2, 2, 0),
                (0, 0, 2), (1, 1, 1)]


def codec_matrices():
    for p, q, order in CODEC_SHAPES:
        for seed in range(2):
            yield seeded_matrix(p, q, order, seed)
    yield random_rotation(3, 1, 4, seed=3)
    yield random_so0(6, 2, 4, seed=4)
    yield Supermatrix.zeros(2, 2, 4)
    yield Supermatrix.eye(0, 2, 0)


def assert_same_matrix(got: Supermatrix, want: Supermatrix):
    assert (got.p, got.q, got.order) == (want.p, want.q, want.order)
    assert got.mat.masks == want.mat.masks
    assert np.array_equal(got.mat.stack, want.mat.stack)
    assert np.array_equal(np.signbit(got.mat.stack.real), np.signbit(want.mat.stack.real))


@pytest.mark.parametrize("m", list(codec_matrices()), ids=repr)
def test_codecs_match_the_per_entry_route(m):
    encoded = m.to_dict()
    assert json.dumps(encoded) == json.dumps(oracle_to_dict(m))
    data = json.loads(json.dumps(encoded))
    assert_same_matrix(Supermatrix.from_dict(data), oracle_from_dict(data))


def test_decoder_sums_repeats_and_reads_loose_numbers_like_the_oracle():
    loose = {"N": 2, "terms": [
        {"mask": 0, "re": 1.5},                       # im optional
        {"mask": 0, "re": 0.25, "im": 2},             # float and int coefficients
        {"mask": 3, "re": 1, "im": 0},                # int parts read as floats
    ]}
    tiny = {"N": 2, "terms": [
        {"mask": 3, "re": 1e-15, "im": -1e-15},       # below CANON_EPS, alone
        {"mask": 3, "re": 4e-15, "im": 0.0},          # and summed: dropped
    ]}
    cancelled = {"N": 2, "terms": [
        {"mask": 3, "re": 1.0}, {"mask": 3, "re": -1.0}, {"mask": 3, "re": 3e-15},
    ]}
    crossing = {"N": 2, "terms": [
        {"mask": 3, "re": 6e-15}, {"mask": 3, "re": 6e-15},  # kept once summed
    ]}
    data = {"p": 2, "q": 0, "N": 2, "rows": [[loose, tiny], [cancelled, {"N": 2}]]}
    decoded = Supermatrix.from_dict(data)
    assert_same_matrix(decoded, oracle_from_dict(data))
    assert decoded.mat.masks == (0, 3) and decoded.entry(0, 1).terms == {}
    data["rows"][1][1] = crossing
    decoded = Supermatrix.from_dict(data)
    assert_same_matrix(decoded, oracle_from_dict(data))
    assert decoded.entry(1, 1).terms == {3: 1.2e-14}


def test_signed_zero_part_survives_decode_and_encode():
    """A -0.0 part next to a nonzero other part reads back with its sign, in
    a number, a vector and a matrix payload."""
    number = {"N": 2, "terms": [{"mask": 0, "re": -0.0, "im": 1.5}]}
    payloads = [
        (GrassmannNumber, number),
        (Supervector, {"m": 1, "n": 0, "N": 2, "even": [number], "odd": []}),
        (Supermatrix, {"p": 1, "q": 0, "N": 2, "rows": [[number]]}),
    ]
    for cls, data in payloads:
        assert json.dumps(cls.from_dict(data).to_dict()) == json.dumps(data)


# -- the Supervector, bivector and spin element codecs -------------------------------


SPECIAL = [0.0, complex(-0.0, 1.0), complex(1.0, -0.0), complex(3e-15, -0.0),
           complex(1e-14, 0.0), complex(-0.0, -1e-14), complex(0.0, -0.0)]


def seeded_number(rng, order, parity):
    """A GrassmannNumber of one parity whose coefficients include signed
    zero parts and values at and below the canonical threshold."""
    masks = [k for k in range(1 << order) if k.bit_count() % 2 == (parity == "odd")]
    terms = {}
    for mask in masks:
        pick = rng.integers(0, len(SPECIAL) + 2)
        terms[mask] = (SPECIAL[pick] if pick < len(SPECIAL)
                       else complex(rng.normal(), rng.normal() * (pick % 2)))
    return GrassmannNumber(order, terms)


def oracle_number_lists(numbers):
    return [oracle_number(g) for g in numbers]


def oracle_bivector_dict(m, n, order, families):
    def fam(d):
        return [{"j": j, "k": k, "coeff": oracle_number(d[key])}
                for key in sorted(d) for j, k in [key] if d[key].terms]
    return {"m": m, "n": n, "N": order, "b": fam(families[0]), "bq": fam(families[1]),
            "B": fam(families[2])}


def seeded_families(rng, m, n, order):
    keys = ([(j, k) for j in range(1, m + 1) for k in range(j + 1, m + 1)],
            [(j, u) for j in range(1, m + 1) for u in range(1, 2 * n + 1)],
            [(u, v) for u in range(1, 2 * n + 1) for v in range(u, 2 * n + 1)])
    return tuple({key: seeded_number(rng, order, parity) for key in family
                  if rng.random() < 0.8}
                 for family, parity in zip(keys, ("even", "odd", "even")))


VECTOR_SHAPES = [(3, 1, 4), (2, 2, 4), (0, 2, 3), (3, 0, 3), (1, 1, 1), (2, 1, 0),
                 (0, 0, 2)]


def decoded(data):
    """JSON text after a per-entry decode and re-encode: every number goes
    through ``GrassmannNumber.from_dict`` (which adds a repeated mask to its
    first term, so a -0.0 part keeps its sign) and ``oracle_number``."""
    def walk(value):
        if isinstance(value, dict) and "terms" in value:
            return oracle_number(GrassmannNumber.from_dict(value))
        if isinstance(value, dict):
            return {key: walk(item) for key, item in value.items()}
        if isinstance(value, list):
            return [walk(item) for item in value]
        return value
    return json.dumps(walk(json.loads(json.dumps(data))))


@pytest.mark.parametrize("m, n, order", VECTOR_SHAPES)
@pytest.mark.parametrize("seed", [0, 1])
def test_vector_bivector_and_spin_codecs_match_the_per_entry_route(m, n, order, seed):
    rng = np.random.default_rng(seed)
    even = [seeded_number(rng, order, "even") for _ in range(m)]
    odd = [seeded_number(rng, order, "odd") for _ in range(2 * n)]
    families = [seeded_families(rng, m, n, order) for _ in range(2)]
    factors = [ExtendedSuperbivector(m, n, order, *f) for f in families]
    cases = [
        (Supervector, Supervector(m, n, order, even, odd),
         {"m": m, "n": n, "N": order, "even": oracle_number_lists(even),
          "odd": oracle_number_lists(odd)}),
        *((ExtendedSuperbivector, biv, oracle_bivector_dict(m, n, order, f))
          for biv, f in zip(factors, families)),
        (SpinElement, SpinElement(m, n, order, factors),
         {"m": m, "n": n, "N": order,
          "factors": [oracle_bivector_dict(m, n, order, f) for f in families]}),
    ]
    for cls, value, want in cases:
        assert json.dumps(value.to_dict()) == json.dumps(want)
        again = cls.from_dict(json.loads(json.dumps(want)))
        assert json.dumps(again.to_dict()) == decoded(want)


def _bad_payloads():
    good = random_rotation(1, 1, 2, seed=8).to_dict()

    def edit(change):
        data = json.loads(json.dumps(good))
        change(data)
        return data

    def term(data):
        return data["rows"][0][0]["terms"][0]

    def order_17(data):
        data["N"] = 17
        for row in data["rows"]:
            for entry in row:
                entry["N"] = 17

    return [
        ("mask above range", edit(lambda d: term(d).update(mask=4)), OrderMismatchError),
        ("negative mask", edit(lambda d: term(d).update(mask=-1)), OrderMismatchError),
        ("huge mask", edit(lambda d: term(d).update(mask=10 ** 30)), OrderMismatchError),
        ("entry order", edit(lambda d: d["rows"][1][2].update(N=3)), OrderMismatchError),
        ("order past MAX_ORDER", edit(order_17), OrderMismatchError),
        ("non-finite re", edit(lambda d: term(d).update(re=1e999)), AlgebraError),
        ("non-finite im", edit(lambda d: term(d).update(im=-1e999)), AlgebraError),
        ("ragged rows", edit(lambda d: d["rows"][1].pop()), ShapeMismatchError),
        ("row count", edit(lambda d: d["rows"].pop()), ShapeMismatchError),
        ("parity", edit(lambda d: d["rows"][0][1].update(
            terms=[{"mask": 0, "re": 1.0}])), ParityError),
        ("missing re", edit(lambda d: term(d).pop("re")), KeyError),
        ("missing entry N", edit(lambda d: d["rows"][0][0].pop("N")), KeyError),
        ("missing p", edit(lambda d: d.pop("p")), KeyError),
        ("term not an object", edit(lambda d: d["rows"][0][0].update(terms=[1])),
         TypeError),
        ("entry not an object", edit(lambda d: d["rows"][0].__setitem__(0, [])),
         TypeError),
        ("re not a number", edit(lambda d: term(d).update(re=[1.0])), TypeError),
        ("re not numeric text", edit(lambda d: term(d).update(re="one")), TypeError),
        ("re numeric text", edit(lambda d: term(d).update(re="0.25")), TypeError),
        ("re a bool", edit(lambda d: term(d).update(re=True)), TypeError),
        ("im null", edit(lambda d: term(d).update(im=None)), TypeError),
        ("re too large for a float", edit(lambda d: term(d).update(re=10 ** 400)),
         OverflowError),
        ("negative p", {"p": -1, "q": 2, "N": 1, "rows": [[{"N": 1, "terms": [
            {"mask": 0, "re": 2.0}]}]]}, ShapeMismatchError),
        ("negative q", edit(lambda d: d.update(p=3, q=-1)), ShapeMismatchError),
    ]


BAD_PAYLOADS = _bad_payloads()


@pytest.mark.parametrize("data, error", [case[1:] for case in BAD_PAYLOADS],
                         ids=[case[0] for case in BAD_PAYLOADS])
def test_malformed_matrix_payloads_raise_the_oracle_class_and_exit_2(
        capsys, tmp_path, data, error):
    with pytest.raises(error) as want:
        oracle_from_dict(data)
    with pytest.raises(error) as got:
        Supermatrix.from_dict(data)
    assert type(got.value) is type(want.value)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data).replace("Infinity", "1e999"))
    for command in ("sdet", "exp"):
        assert main([command, "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "malformed input" in captured.err


def test_out_of_range_order_is_malformed_even_without_entries(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"p": 0, "q": 0, "N": 17, "rows": []}))
    assert main(["sdet", "--input", str(path)]) == 2
    assert "order must be in [0, 16]" in capsys.readouterr().err


def test_an_overflowing_sum_is_malformed_input_without_a_warning(capsys, tmp_path):
    """Repeated masks, or a repeated bivector key, whose sum passes the float
    range: exit 2 with one stderr line and no numpy warning, for the matrix,
    vector and bivector decoders."""
    def number(mask, *parts):
        return {"N": 2, "terms": [{"mask": mask, "re": re} for re in parts]}

    vector = {"m": 1, "n": 0, "N": 2, "even": [number(0, 1e308, 1e308)], "odd": []}
    cases = [
        ("sdet", {"p": 1, "q": 0, "N": 2, "rows": [[number(0, 1e308, 1e308)]]}),
        ("inner", {"x": vector, "y": vector}),
        ("phi", {"m": 2, "n": 0, "N": 2, "b": [
            {"j": 1, "k": 2, "coeff": number(3, 1e308, 1e308)}]}),
        ("phi", {"m": 2, "n": 0, "N": 2, "b": [
            {"j": 1, "k": 2, "coeff": number(3, 1e308)},
            {"j": 1, "k": 2, "coeff": number(3, 1e308)}]}),
    ]
    for command, payload in cases:
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(payload))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, "--input", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out, caught) == (2, "", []), command
        assert captured.err.count("\n") == 1, captured.err
        assert captured.err.startswith("malformed input") and "non-finite" in captured.err


def test_bivector_decoder_sums_repeated_keys():
    half = {"N": 2, "terms": [{"mask": 0, "re": 0.25, "im": -0.0}, {"mask": 3, "re": 1.0}]}
    data = {"m": 1, "n": 1, "N": 2, "B": [{"j": 1, "k": 2, "coeff": half},
                                          {"j": 1, "k": 2, "coeff": half}]}
    whole = GrassmannNumber.from_dict(half) + GrassmannNumber.from_dict(half)
    assert ExtendedSuperbivector.from_dict(data).bb == {(1, 2): whole}


def test_clifford_decoder_sums_repeated_keys_in_one_read(monkeypatch):
    half = {"N": 2, "terms": [{"mask": 0, "re": 0.25, "im": -0.0}, {"mask": 3, "re": 1.0}]}
    other = {"N": 2, "terms": [{"mask": 1, "re": -2.0}]}
    data = {"m": 1, "n": 1, "N": 2, "terms": [
        {"emask": 1, "alpha": [1, 0], "coeff": half},
        {"emask": 0, "alpha": [0, 0], "coeff": other},
        {"emask": 1, "alpha": [1, 0], "coeff": half}]}
    reads = []
    read = grassmann._read_cells
    monkeypatch.setattr(grassmann, "_read_cells",
                        lambda *args: (reads.append(len(args[0])), read(*args))[1])
    element = CliffordElement.from_dict(data)
    assert reads == [3]
    whole = GrassmannNumber.from_dict(half) + GrassmannNumber.from_dict(half)
    assert element.terms == {(1, (1, 0)): whole, (0, (0, 0)): GrassmannNumber.from_dict(other)}


def _cells_of_another_order():
    """(decoder, payload, container noun): each decoder's order-2 payload with
    one cell of order 3."""
    coeff = {"N": 3, "terms": [{"mask": 3, "re": 1.0}]}
    matrix = random_rotation(1, 1, 2, seed=4).to_dict()
    matrix["rows"][1][1] = coeff
    vector = random_supervector(1, 1, 2, seed=5).to_dict()
    vector["even"][0] = coeff
    bivector = matrix_to_bivector(random_so0(2, 1, 2, seed=6)).to_dict()
    bivector["b"][0]["coeff"] = coeff
    element = {"m": 1, "n": 1, "N": 2, "terms": [{"emask": 1, "alpha": [0, 0], "coeff": coeff}]}
    return [(Supermatrix, matrix, "matrix"), (Supervector, vector, "supervector"),
            (ExtendedSuperbivector, bivector, "bivector"),
            (CliffordElement, element, "Clifford element")]


@pytest.mark.parametrize("kind, data, noun", _cells_of_another_order(),
                         ids=[noun for _, _, noun in _cells_of_another_order()])
def test_a_cell_of_another_order_names_its_container(kind, data, noun):
    with pytest.raises(OrderMismatchError) as caught:
        kind.from_dict(data)
    assert str(caught.value) == f"entry order differs from {noun} order"


def test_clifford_coefficient_of_another_order_is_refused():
    coeff = {"N": 3, "terms": [{"mask": 4, "re": 1.0}]}
    with pytest.raises(OrderMismatchError):
        CliffordElement.from_dict({"m": 1, "n": 1, "N": 2, "terms": [
            {"emask": 1, "alpha": [0, 0], "coeff": coeff}]})


# -- integer fields ---------------------------------------------------------------


def int_field_payloads():
    """(decoder, payload) for every decoder, each payload holding every
    integer field the decoder reads."""
    biv = matrix_to_bivector(random_so0(2, 1, 2, seed=21))
    spin = SpinElement(2, 1, 2, [biv])
    clifford = CliffordElement(2, 1, 2, 4, {(0b11, (1, 2)): GrassmannNumber.blade(2, 3, 1.5)})
    return [(type(value), json.loads(json.dumps(value.to_dict()))) for value in (
        GrassmannNumber(2, {3: 1.5}), random_rotation(2, 1, 2, seed=5, factors=2),
        random_supervector(2, 1, 2, seed=22), biv, spin, clifford)]


INT_FIELD_PAYLOADS = int_field_payloads()
INT_FIELDS = {"N", "mask", "p", "q", "m", "n", "j", "k", "emask", "alpha", "cap"}


def int_field_paths(tree, path=()):
    """Path of the first occurrence of each integer field, keyed by name."""
    found = {}
    items = (tree.items() if isinstance(tree, dict)
             else enumerate(tree) if isinstance(tree, list) else ())
    for key, value in items:
        name = path[-1] if isinstance(key, int) else key
        if name in INT_FIELDS and type(value) is int:
            found.setdefault(name, (*path, key))
        for field, where in int_field_paths(value, (*path, key)).items():
            found.setdefault(field, where)
    return found


def replaced(tree, path, value):
    tree = json.loads(json.dumps(tree))
    parent = tree
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return tree


def test_int_field_payloads_hold_every_field():
    seen = set()
    for cls, data in INT_FIELD_PAYLOADS:
        assert cls.from_dict(data).to_dict() == data
        seen.update(int_field_paths(data))
    assert seen == INT_FIELDS


@pytest.mark.parametrize("cls, data", INT_FIELD_PAYLOADS,
                         ids=[cls.__name__ for cls, _ in INT_FIELD_PAYLOADS])
def test_integer_fields_accept_only_json_integers(cls, data):
    """A float, a numeric string or a bool in an integer field is refused;
    int() used to truncate 3.4 to 3 and parse "2"."""
    for field, path in int_field_paths(data).items():
        value = functools.reduce(lambda tree, key: tree[key], path, data)
        for bad in (value + 0.4, float(value), str(value), True, None, [value]):
            with pytest.raises(TypeError, match=f"{field} must be an integer"):
                cls.from_dict(replaced(data, path, bad))


def test_clifford_truncated_accepts_only_a_json_bool():
    data = CliffordElement(1, 1, 2, 4, {(1, (1, 0)): GrassmannNumber.one(2)},
                           truncated=True).to_dict()
    assert CliffordElement.from_dict(data).truncated is True
    for bad in (1, 0, "true", None, [True]):
        with pytest.raises(TypeError, match="truncated must be a boolean"):
            CliffordElement.from_dict({**data, "truncated": bad})


def test_fractional_order_is_refused_not_truncated():
    with pytest.raises(TypeError, match="N must be an integer"):
        GrassmannNumber.from_dict({"N": 2.5, "terms": [{"mask": 1, "re": 1.0}]})


# -- the parser ------------------------------------------------------------------


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_consecutive_calls_do_not_share_arguments(capsys, monkeypatch, tmp_path):
    seen = []
    check = cli.check_so0
    monkeypatch.setattr(cli, "check_so0", lambda m, tol: (seen.append(tol),
                                                          check(m, tol))[1])
    path = tmp_path / "rotation.json"
    path.write_text(json.dumps(random_rotation(2, 1, 2, seed=5).to_dict()))
    assert main(["check-so0", "--tol", "1e-3", "--input", str(path)]) == 0
    assert main(["check-so0", "--input", str(path)]) == 0
    assert seen == [1e-3, DEFAULT_TOL]
    capsys.readouterr()


def test_a_parse_error_does_not_poison_the_next_call(capsys):
    for argv in (["check-so0", "--tol", "nan"],
                 ["osc-exp", "--theta", "1", "--plane", "2", "--n", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    capsys.readouterr()
    assert main(["osc-exp", "--theta", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["element"]["N"] == 4
