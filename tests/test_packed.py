"""Tests for the packed-key polynomial kernel against MultiPoly arithmetic."""

from hypothesis import given, settings
from hypothesis import strategies as st

from fussnarayana import _packed
from fussnarayana.poly import MultiPoly
from fussnarayana.series import product_coefficient, square_coefficient, truncated_mul

NUM_VARS, RADIX = 3, 7


def pack(poly: MultiPoly) -> dict[int, int]:
    units = _packed.units(NUM_VARS, RADIX)
    return {sum(e * u for e, u in zip(exps, units)): c for exps, c in poly.terms.items()}


# exponents below 3, so a product of two stays below the radix 7
polys = st.dictionaries(st.tuples(*[st.integers(0, 2)] * NUM_VARS), st.integers(-5, 5),
                        max_size=4).map(lambda terms: MultiPoly(NUM_VARS, terms))


def test_units_unpack_to_the_variables():
    for s, unit in enumerate(_packed.units(NUM_VARS, RADIX)):
        assert _packed.unpack(NUM_VARS, RADIX, {unit: 1}) == MultiPoly.variable(NUM_VARS, s)
    assert _packed.unpack(NUM_VARS, RADIX, {0: 0, 1: 2}) == 2 * MultiPoly.variable(NUM_VARS, 0)


@given(polys, polys)
@settings(max_examples=50, deadline=None)
def test_add_product_is_the_polynomial_product(a, b):
    d1 = MultiPoly.variable(NUM_VARS, 1)
    total = _packed.add_product(pack(a), pack(a), pack(b), _packed.units(NUM_VARS, RADIX)[1])
    assert _packed.unpack(NUM_VARS, RADIX, total) == a + a * b * d1


@given(st.lists(polys, min_size=1, max_size=3), st.lists(polys, min_size=1, max_size=3), polys)
@settings(max_examples=50, deadline=None)
def test_product_coefficient_is_the_series_product(a, b, start):
    # the series kernel on packed dicts: series whose coefficients are still
    # being filled take part with those they have, added into a nonzero total
    order = len(a) + len(b) - 2
    expected = truncated_mul(a, b, order, MultiPoly(NUM_VARS))
    packed_a, packed_b = [pack(c) for c in a], [pack(c) for c in b]
    for n in range(order + 1):
        total = product_coefficient(packed_a, packed_b, n, {}, _packed.add_product)
        assert _packed.unpack(NUM_VARS, RADIX, total) == expected[n]
        total = product_coefficient(packed_a, packed_b, n, pack(start), _packed.add_product)
        assert _packed.unpack(NUM_VARS, RADIX, total) == start + expected[n]


@given(st.lists(polys, min_size=1, max_size=5), polys)
@settings(max_examples=50, deadline=None)
def test_square_coefficient_is_the_series_square(a, start):
    # the symmetric square in both rings against the full product, odd and
    # even n, past the stored coefficients, and added into a nonzero total
    zero = MultiPoly(NUM_VARS)
    order = 2 * len(a) - 1
    expected = truncated_mul(a, a, order, zero)
    packed_a = [pack(c) for c in a]
    for n in range(order + 1):
        assert square_coefficient(a, n, zero) == expected[n]
        assert square_coefficient(a, n, start) == start + expected[n]
        total = square_coefficient(packed_a, n, pack(start), _packed.add_product, {0: 2})
        assert _packed.unpack(NUM_VARS, RADIX, total) == start + expected[n]
