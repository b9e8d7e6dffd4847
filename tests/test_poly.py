"""Unit and property tests for the exact polynomial ring."""

from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fussnarayana.poly import MultiPoly, format_exact

NUM_VARS = 3

exponents = st.tuples(*(st.integers(0, 4) for _ in range(NUM_VARS)))
coeffs = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)
polys = st.dictionaries(exponents, coeffs, max_size=6).map(
    lambda terms: MultiPoly(NUM_VARS, terms)
)
int_polys = st.dictionaries(exponents, st.integers(-50, 50), max_size=6).map(
    lambda terms: MultiPoly(NUM_VARS, terms)
)
int_or_fraction = st.one_of(st.integers(-6, 6), st.fractions(-3, 3, max_denominator=5))
points = st.tuples(*(st.fractions(min_value=-3, max_value=3, max_denominator=6)
                     for _ in range(NUM_VARS)))
exact_coordinates = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-3, max_value=3, max_denominator=9),
)
exact_points = st.tuples(*(exact_coordinates for _ in range(NUM_VARS)))
mixed_points = st.tuples(*(
    st.one_of(exact_coordinates, st.floats(-3, 3, allow_nan=False))
    for _ in range(NUM_VARS)
))


def fraction_reference(poly, values):
    """Term-by-term evaluation in Fractions, the definition of the exact value."""
    total = Fraction(0)
    for exps, coeff in poly.terms.items():
        term = Fraction(coeff)
        for v, e in zip(values, exps):
            term *= Fraction(v) ** e
        total += term
    return total


def term_loop(poly, values):
    """The term-by-term loop in the order evaluate used before clearing denominators.

    It runs on Fraction coefficients, as the loop did when every stored
    coefficient was a Fraction.
    """
    total = 0
    for exps, coeff in poly.terms.items():
        term = Fraction(coeff)
        for v, e in zip(values, exps):
            if e:
                term = term * v**e
        total = total + term
    return total if poly.terms else Fraction(0)


def test_zero_and_constant():
    zero = MultiPoly(2)
    assert not zero
    assert zero.evaluate((Fraction(5), Fraction(7))) == 0
    assert MultiPoly.constant(2, 0) == zero  # zero coefficient is dropped


def test_variable_and_pow():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    p = (x + y) ** 2
    assert p == x * x + 2 * x * y + y * y
    assert p.evaluate((2, 3)) == 25
    with pytest.raises(ValueError):
        MultiPoly.variable(2, 2)
    with pytest.raises(ValueError):
        x ** -1


def test_arity_mismatch_rejected():
    with pytest.raises(ValueError):
        MultiPoly.variable(2, 0) + MultiPoly.variable(3, 0)
    with pytest.raises(ValueError):
        MultiPoly.variable(2, 0) * MultiPoly.variable(3, 0)
    with pytest.raises(ValueError, match="entries"):
        MultiPoly(2, {(1,): 1})
    with pytest.raises(ValueError, match="entries"):
        MultiPoly(2, {(1, 0, 0): 1})
    with pytest.raises(ValueError, match="negative"):
        MultiPoly(2, {(1, -1): 1})


@pytest.mark.parametrize("bad", [1.5, 2.0, "2", None])
def test_non_integral_exponents_rejected(bad):
    with pytest.raises(ValueError, match="non-integral"):
        MultiPoly(1, {(bad,): 1})


@pytest.mark.parametrize("bad", [0.1, 2.0, float("inf"), float("nan"), "3", "1/3", None,
                                 Decimal("0.5"), 1 + 0j, np.float64(2.0)])
def test_non_rational_coefficients_rejected(bad):
    with pytest.raises(ValueError, match=r"non-rational coefficient .* at \(1,\)"):
        MultiPoly(1, {(1,): bad})


def test_rational_coefficients_stored_as_int_when_integral():
    p = MultiPoly(1, {(0,): True, (1,): np.int64(-3), (2,): Fraction(8, 2), (3,): Fraction(1, 3)})
    assert [type(c) for _, c in p.canonical_terms()] == [Fraction, int, int, int]
    assert p.terms == {(0,): 1, (1,): -3, (2,): 4, (3,): Fraction(1, 3)}
    assert not MultiPoly(1, {(1,): np.int32(0), (2,): False})


def test_integer_like_exponents_accepted():
    x = MultiPoly.variable(2, 0)
    assert MultiPoly(2, {(True, False): 1}) == x
    square = MultiPoly(2, {(np.int64(2), np.int32(0)): Fraction(3, 2)})
    assert square == Fraction(3, 2) * x * x
    assert all(type(e) is int for e in next(iter(square.terms)))


@given(polys, polys, polys)
@settings(max_examples=60)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + MultiPoly(NUM_VARS) == a
    assert a * MultiPoly.constant(NUM_VARS, 1) == a
    assert not (a - a)


@given(polys, polys, points)
@settings(max_examples=60)
def test_evaluation_is_a_homomorphism(a, b, pt):
    assert (a + b).evaluate(pt) == a.evaluate(pt) + b.evaluate(pt)
    assert (a * b).evaluate(pt) == a.evaluate(pt) * b.evaluate(pt)


mixed_polys = st.dictionaries(exponents, int_or_fraction, max_size=8).map(
    lambda terms: MultiPoly(NUM_VARS, terms)
)


@given(st.one_of(polys, int_polys, mixed_polys), exact_points)
@settings(max_examples=200)
def test_exact_evaluate_matches_fraction_reference(a, pt):
    value = a.evaluate(pt)
    assert type(value) is Fraction
    assert value == fraction_reference(a, pt)


def test_exact_evaluate_when_terms_cancel_within_a_group():
    # at y = 1, 3 x y and -3 x y^2 fall in the group of x^1 and cancel
    p = MultiPoly(2, {(1, 1): 3, (1, 2): -3, (2, 0): 1})
    assert p.evaluate((Fraction(2, 5), 1)) == Fraction(4, 25)
    # every group cancels: x (y - 1) + x^2 (y - 1) at y = 1
    q = MultiPoly(2, {(1, 1): 1, (1, 0): -1, (2, 1): Fraction(1, 2), (2, 0): Fraction(-1, 2)})
    value = q.evaluate((Fraction(7, 3), 1))
    assert type(value) is Fraction and value == 0
    assert value == fraction_reference(q, (Fraction(7, 3), 1))


@given(polys, mixed_points)
@settings(max_examples=100)
def test_float_evaluate_keeps_the_term_loop(a, pt):
    value = a.evaluate(pt)
    expected = term_loop(a, pt)
    assert type(value) is type(expected)
    assert repr(value) == repr(expected)


def test_evaluate_edge_cases():
    zero = MultiPoly(NUM_VARS)
    assert zero.evaluate((Fraction(1, 3), 0, -2)) == 0
    assert type(zero.evaluate((0.5, 1.0, 2.0))) is Fraction
    assert MultiPoly.constant(0, Fraction(-5, 6)).evaluate(()) == Fraction(-5, 6)
    # no variable, or one, whose terms all share the empty group
    for poly, pt in [
        (MultiPoly.constant(0, 7), ()),
        (MultiPoly(1, {(0,): 2, (3,): -1, (5,): 4}), (Fraction(-2, 3),)),
        (MultiPoly(1, {(1,): Fraction(1, 3), (2,): 5}), (Fraction(3, 7),)),
        (MultiPoly(1, {(2,): 3}), (0,)),
    ]:
        value = poly.evaluate(pt)
        assert type(value) is Fraction and value == fraction_reference(poly, pt)
    p = MultiPoly(NUM_VARS, {(3, 0, 1): Fraction(1, 6), (0, 2, 0): Fraction(-3, 4), (0, 0, 0): 2})
    pt = (Fraction(-2, 3), 0, Fraction(5, 2))
    assert p.evaluate(pt) == fraction_reference(p, pt)


@given(polys, st.fractions(min_value=-3, max_value=3, max_denominator=4))
@settings(max_examples=60)
def test_substitute_matches_evaluate(a, value):
    partial = a.substitute(1, value)
    assert partial.num_vars == NUM_VARS - 1
    pt = (Fraction(2), Fraction(1, 3))
    assert partial.evaluate(pt) == a.evaluate((pt[0], value, pt[1]))


def test_divide_by_variable():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    p = x * y + x * x * y
    assert p.divide_by_variable(0) == y + x * y
    with pytest.raises(ValueError):
        (p + 1).divide_by_variable(0)


def test_canonical_order_descending_lex():
    p = MultiPoly(2, {(0, 2): 1, (2, 0): 3, (1, 1): 2})
    assert [e for e, _ in p.canonical_terms()] == [(2, 0), (1, 1), (0, 2)]


def test_json_form():
    p = MultiPoly(2, {(1, 1): Fraction(1, 2), (0, 2): 3})
    doc = p.to_json_dict(["a", "b"])
    assert doc == {
        "vars": ["a", "b"],
        "terms": [
            {"exponents": [1, 1], "coeff": "1/2"},
            {"exponents": [0, 2], "coeff": "3"},
        ],
    }
    with pytest.raises(ValueError):
        p.to_json_dict(["a"])


def test_format_exact():
    assert format_exact(4) == "4"
    assert format_exact(Fraction(8, 2)) == "4"
    assert format_exact(Fraction(-3, 7)) == "-3/7"


def test_to_string():
    p = MultiPoly(2, {(2, 1): 1, (0, 0): -2})
    assert p.to_string(["u", "v"]) == "u^2*v + -2"
    assert MultiPoly(2).to_string() == "0"


def assert_clean(result, all_int):
    """A result equals its validated rebuild, keeps no zero, and is int-valued on int input."""
    assert result == MultiPoly(result.num_vars, result.terms)
    assert all(result.terms.values())
    if all_int:
        assert all(type(c) is int for c in result.terms.values())


def int_valued(*operands):
    return all(
        all(type(c) is int for c in x.terms.values()) if isinstance(x, MultiPoly)
        else type(x) is int
        for x in operands
    )


@given(st.one_of(int_polys, polys), st.one_of(int_polys, polys), int_or_fraction,
       st.integers(0, 3), st.integers(0, NUM_VARS - 1))
@settings(max_examples=150)
def test_operation_results_are_clean(a, b, scalar, power, index):
    x = MultiPoly.variable(NUM_VARS, index)
    assert_clean(a + b, int_valued(a, b))
    assert_clean(a - b, int_valued(a, b))
    assert_clean(-a, int_valued(a))
    assert_clean(a * b, int_valued(a, b))
    assert_clean(scalar * a, int_valued(a, scalar))
    assert_clean(a * scalar, int_valued(a, scalar))
    assert_clean(a ** power, int_valued(a))
    assert_clean(a.substitute(index, scalar), int_valued(a, scalar))
    assert_clean((a * x).divide_by_variable(index), int_valued(a))
    assert (a * x).divide_by_variable(index) == a


def test_int_and_fraction_coefficients_compare_and_hash_alike():
    d0, d1 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    as_int = 3 * d0 * d0 - d1 + 2
    as_fraction = Fraction(1) * as_int
    assert all(type(c) is int for c in as_int.terms.values())
    assert all(type(c) is Fraction for c in as_fraction.terms.values())
    assert as_int == as_fraction
    assert hash(as_int) == hash(as_fraction)
    assert len({as_int, as_fraction}) == 1
    assert as_int.to_json_dict(["a", "b"]) == as_fraction.to_json_dict(["a", "b"])
    assert as_int.to_string() == as_fraction.to_string()


@given(int_polys, st.tuples(*(st.floats(-3, 3, allow_nan=False) for _ in range(NUM_VARS))))
@settings(max_examples=100)
def test_float_evaluate_of_int_coefficients_matches_fraction_coefficients(a, pt):
    value = a.evaluate(pt)
    expected = term_loop(a, pt)
    assert type(value) is type(expected)
    assert repr(value) == repr(expected)
    assert repr((Fraction(1) * a).evaluate(pt)) == repr(value)
