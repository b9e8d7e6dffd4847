"""Tests for the packed-key polynomial kernel against MultiPoly arithmetic."""

import pytest
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


def read(terms):
    """The reader of packed dicts in ``NUM_VARS`` variables at ``RADIX``."""
    return _packed.unpack(NUM_VARS, RADIX, terms)


def test_orders_unpack_each_order_once_when_it_is_read(unpacked):
    d0, d1, d2 = (MultiPoly.variable(NUM_VARS, s) for s in range(NUM_VARS))
    eager = [MultiPoly(NUM_VARS), d0, d1 * d2 + 3 * d0 * d0, -d2]
    # a route's reader runs on an order's stored dict once: the second copy
    # stores each key shifted by d0's unit, and its reader shifts it back
    shifted = [{key + 1: c for key, c in pack(poly).items()} for poly in eager]
    decoded = []

    def read_shifted(terms):
        decoded.append(terms)
        return read({key - 1: c for key, c in terms.items()})

    for orders in (_packed.Orders([pack(poly) for poly in eager], read),
                   _packed.Orders(list(shifted), read_shifted)):
        unpacked.clear()
        assert len(orders) == 4 and not unpacked
        assert orders[-1] == -d2 and orders[2] == eager[2]
        assert unpacked == [-d2, eager[2]]
        # a second read returns the kept object and unpacks nothing
        assert orders[2] is unpacked[1] and orders[-1] is unpacked[0]
        assert orders[1:3] == eager[1:3] and orders[::-2] == eager[::-2]
        assert len(unpacked) == 3  # only order 1 was still packed
        assert list(orders) == eager and len(unpacked) == 4
        with pytest.raises(IndexError):
            orders[4]
    assert decoded == [shifted[3], shifted[2], shifted[1], shifted[0]]


def test_orders_know_no_packing(unpacked):
    # a reader that is not unpack at all: each order is read once, in the
    # order it is first indexed, and a second read returns the kept object
    stored = [{}, {1: 2}, {3: 4, 5: 6}, {7: 8}]
    read_terms = []

    def count_terms(terms):
        read_terms.append(terms)
        return MultiPoly.constant(1, len(terms))

    orders = _packed.Orders(list(stored), count_terms)
    third = orders[2]
    assert third == MultiPoly.constant(1, 2) and orders[-4] == MultiPoly.constant(1, 0)
    assert read_terms == [stored[2], stored[0]]
    assert orders[2] is third and orders[1:3][1] is third and read_terms[2:] == [stored[1]]
    assert orders == [MultiPoly.constant(1, n) for n in (0, 1, 2, 1)]
    assert read_terms == [stored[2], stored[0], stored[1], stored[3]] and not unpacked


def test_orders_equal_the_eager_list_from_either_side():
    d0, d1, _ = (MultiPoly.variable(NUM_VARS, s) for s in range(NUM_VARS))
    eager = [d0, d0 * d1]

    def orders():
        return _packed.Orders([pack(poly) for poly in eager], read)

    assert orders() == eager and eager == orders() and orders() == orders()
    assert not orders() != eager and not eager != orders()
    for other in ([d0, d1], [d0], eager + [d1], []):
        assert orders() != other and other != orders()
    assert orders() != tuple(eager) and orders() != eager[0]


def test_orders_repr_lists_every_order_unpacked():
    d0, d1, _ = (MultiPoly.variable(NUM_VARS, s) for s in range(NUM_VARS))
    orders = _packed.Orders([pack(MultiPoly(NUM_VARS)), pack(d0 * d1)], read)
    assert repr(orders) == "Orders([MultiPoly(3, '0'), MultiPoly(3, 'x0*x1')])"
