"""The rules Supermatrix, Supervector and ExtendedSuperbivector share through
their one base class, and GrassmannNumber's decoder through ``_read_cells``.

Every graded class refuses an operand of another grading (ShapeMismatchError)
or order (OrderMismatchError) in ``+``, ``-`` and ``isclose``, naming itself,
and scales only by a complex number or an even GrassmannNumber.  The number
decoder is pinned bit for bit against the term loop it replaced, written out
below.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superspin import (
    ExtendedSuperbivector,
    GrassmannNumber,
    OrderMismatchError,
    ParityError,
    ShapeMismatchError,
    Supermatrix,
    Supervector,
    matrix_to_bivector,
    random_so0,
    random_supermatrix,
    random_supervector,
)
from superspin.exceptions import AlgebraError
from superspin.grassmann import json_float, json_int


def supermatrix(m, n, order, seed=1):
    return random_supermatrix(m, n, order, seed=seed)


def supervector(m, n, order, seed=1):
    return random_supervector(m, n, order, seed=seed)


def bivector(m, n, order, seed=1):
    return matrix_to_bivector(random_so0(m, n, order, seed=seed))


MAKERS = {Supermatrix: supermatrix, Supervector: supervector,
          ExtendedSuperbivector: bivector}
CLASSES = list(MAKERS)
IDS = [cls.__name__ for cls in CLASSES]

OPERATIONS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "isclose": lambda a, b: a.isclose(b),
}


@pytest.mark.parametrize("operation", OPERATIONS)
@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_another_grading_raises_shape_mismatch(cls, operation):
    make = MAKERS[cls]
    for other in (make(3, 2, 2), make(2, 1, 2), make(3, 0, 2)):
        with pytest.raises(ShapeMismatchError, match=f"^{cls.__name__} grading mismatch"):
            OPERATIONS[operation](make(2, 2, 2), other)


@pytest.mark.parametrize("operation", OPERATIONS)
@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_another_order_raises_order_mismatch(cls, operation):
    make = MAKERS[cls]
    with pytest.raises(OrderMismatchError,
                       match=f"^{cls.__name__} order mismatch: 2 vs 3$"):
        OPERATIONS[operation](make(2, 1, 2), make(2, 1, 3))


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_scaling_by_an_odd_or_mixed_number_raises_parity_error(cls):
    x = MAKERS[cls](2, 1, 3)
    odd = GrassmannNumber.generator(3, 2)
    for factor in (odd, odd + 1.0):
        with pytest.raises(ParityError, match=f"^{cls.__name__} scaling factor must be even$"):
            x.scale(factor)
    even = GrassmannNumber(3, {0: 0.5, 3: 2.0})
    assert x.scale(even).isclose(x.scale(0.5) + x.scale(GrassmannNumber.blade(3, 3, 2.0)))


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_the_linear_operations_keep_the_class_and_grading(cls):
    x, y = MAKERS[cls](2, 1, 3, seed=4), MAKERS[cls](2, 1, 3, seed=5)
    for result in (x + y, x - y, -x, x.scale(2.0)):
        assert type(result) is cls
        assert result._grading == x._grading and result.order == 3
    assert (x - x).norm() == 0.0
    assert (x + y - y).isclose(x) and (-x + x).norm() == 0.0


# -- GrassmannNumber.from_dict against the term loop it replaced ----------------


def old_from_dict(data):
    order = json_int(data["N"], "N")
    terms = {}
    for item in data.get("terms", []):
        mask = json_int(item["mask"], "mask")
        real, imag = item["re"], item.get("im", 0.0)
        value = complex(real if type(real) is float else json_float(real, "re"),
                        imag if type(imag) is float else json_float(imag, "im"))
        terms[mask] = terms[mask] + value if mask in terms else value
    return GrassmannNumber(order, terms)


def outcome(decode, data):
    """The number's order and bits, or the error: AlgebraError for any
    subclass, since with two faults in one payload (an overflowing sum and a
    mask out of range) the one named follows the decoder's check order."""
    try:
        number = decode(data)
    except AlgebraError:
        return AlgebraError
    # every coefficient's bits, by ascending mask
    return number.order, [(mask, np.array([c.real, c.imag]).view(np.uint64).tolist())
                          for mask, c in sorted(number.terms.items())]


PARTS = st.sampled_from([1.0, -2.5, 0.0, -0.0, 1e-15, -1e-15, 9.9e-15, 1e-14, 1e308,
                         -1e308, 3, 0, -1])
TERM = st.fixed_dictionaries({"mask": st.integers(0, 8), "re": PARTS},
                             optional={"im": PARTS})


@settings(max_examples=400)
@given(order=st.integers(0, 3), terms=st.lists(TERM, max_size=8))
def test_number_decoder_matches_the_term_loop_bit_for_bit(order, terms):
    """Repeated masks add in order from the first term (-0.0 keeps its sign),
    parts below CANON_EPS drop, an overflowing sum or an out-of-range mask
    raises, with ints read as floats."""
    data = {"N": order, "terms": terms}
    assert outcome(GrassmannNumber.from_dict, data) == outcome(old_from_dict, data)


def test_number_decoder_keeps_signed_zeros_and_drops_tiny_parts():
    data = {"N": 2, "terms": [{"mask": 3, "re": -0.0, "im": 1.0},
                              {"mask": 1, "re": 1e-15, "im": -1e-15},
                              {"mask": 0, "re": 2.0, "im": -0.0},
                              {"mask": 3, "re": 0.0, "im": 0.5}]}
    number = GrassmannNumber.from_dict(data)
    assert list(number.terms) == [0, 3]
    body, top = number.terms[0], number.terms[3]
    assert body == 2.0 and math.copysign(1.0, body.imag) == -1.0
    assert top == 1.5j and math.copysign(1.0, top.real) == 1.0


@pytest.mark.parametrize("terms, error", [
    ([{"mask": 4, "re": 1.0}], OrderMismatchError),
    ([{"mask": 1, "re": 1e308}, {"mask": 1, "re": 1e308}], AlgebraError),
    ([{"mask": 1, "re": "1.0"}], TypeError),
    ([{"mask": 1.0, "re": 1.0}], TypeError),
])
def test_number_decoder_names_a_single_fault_as_the_term_loop_did(terms, error):
    data = {"N": 2, "terms": terms}
    for decode in (GrassmannNumber.from_dict, old_from_dict):
        with pytest.raises(error) as caught:
            decode(data)
        assert type(caught.value) is error
