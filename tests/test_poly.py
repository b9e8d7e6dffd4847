"""Unit and property tests for the polynomial ring over the integers."""

import operator
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fussnarayana.poly import MultiPoly

NUM_VARS = 3

exponents = st.tuples(*(st.integers(0, 4) for _ in range(NUM_VARS)))
polys = st.dictionaries(exponents, st.integers(-50, 50), max_size=8).map(
    lambda terms: MultiPoly(NUM_VARS, terms)
)
points = st.tuples(*(st.fractions(min_value=-3, max_value=3, max_denominator=6)
                     for _ in range(NUM_VARS)))
exact_coordinates = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-3, max_value=3, max_denominator=9),
)
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
                                 Decimal("0.5"), 1 + 0j, np.float64(2.0),
                                 Fraction(1, 3), Fraction(8, 2), 0.5])
def test_non_rational_coefficients_rejected(bad):
    # only integers are coefficients: a Fraction is rejected even when integral
    with pytest.raises(ValueError, match=r"non-integral coefficient .* at \(1,\)"):
        MultiPoly(1, {(1,): bad})


def test_rational_coefficients_stored_as_int_when_integral():
    # integer-like inputs (bool, numpy ints) are read with operator.index
    p = MultiPoly(1, {(0,): True, (1,): np.int64(-3), (2,): np.int32(4)})
    assert [type(c) for _, c in p.canonical_terms()] == [int, int, int]
    assert p.terms == {(0,): 1, (1,): -3, (2,): 4}
    assert not MultiPoly(1, {(1,): np.int32(0), (2,): False})


def test_rational_scalars_rejected():
    x = MultiPoly.variable(1, 0)
    with pytest.raises(TypeError):
        Fraction(1, 2) * x
    with pytest.raises(TypeError):
        x + Fraction(1, 2)
    with pytest.raises(ValueError, match="non-integral value"):
        x.substitute(0, Fraction(1, 2))


@given(polys, st.one_of(st.integers(-3, 3), st.just(True)), points)
@settings(max_examples=60)
def test_int_scalars_multiply_as_constant_polynomials(a, n, pt):
    # an int operand goes through the one product, as a constant polynomial
    product = MultiPoly.constant(NUM_VARS, n) * a
    assert n * a == a * n == product
    assert_clean(product)
    assert product.evaluate(pt) == n * a.evaluate(pt)


def test_integer_like_exponents_accepted():
    x = MultiPoly.variable(2, 0)
    assert MultiPoly(2, {(True, False): 1}) == x
    square = MultiPoly(2, {(np.int64(2), np.int32(0)): 3})
    assert square == 3 * x * x
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


@given(polys, mixed_points)
@settings(max_examples=200)
def test_exact_evaluate_matches_fraction_reference(a, pt):
    # float coordinates are read exactly, as Fraction(v)
    value = a.evaluate(pt)
    assert type(value) is Fraction
    assert value == fraction_reference(a, [Fraction(v) for v in pt])


def test_exact_evaluate_when_terms_cancel_within_a_group():
    # at y = 1, 3 x y and -3 x y^2 fall in the group of x^1 and cancel
    p = MultiPoly(2, {(1, 1): 3, (1, 2): -3, (2, 0): 1})
    assert p.evaluate((Fraction(2, 5), 1)) == Fraction(4, 25)
    # every group cancels: x (y - 1) + 2 x^2 (y - 1) at y = 1
    q = MultiPoly(2, {(1, 1): 1, (1, 0): -1, (2, 1): 2, (2, 0): -2})
    value = q.evaluate((Fraction(7, 3), 1))
    assert type(value) is Fraction and value == 0
    assert value == fraction_reference(q, (Fraction(7, 3), 1))


def test_evaluate_edge_cases():
    zero = MultiPoly(NUM_VARS)
    assert zero.evaluate((Fraction(1, 3), 0, -2)) == 0
    assert type(zero.evaluate((0.5, 1.0, 2.0))) is Fraction
    assert MultiPoly.constant(0, -5).evaluate(()) == -5
    # 0.1 is read as the double nearest to it, not as 1/10
    value = MultiPoly(2, {(1, 1): 3}).evaluate((0.1, 2))
    assert value == 6 * Fraction(0.1) != Fraction(6, 10) and type(value) is Fraction
    # no variable, or one, whose terms all share the empty group
    for poly, pt in [
        (MultiPoly.constant(0, 7), ()),
        (MultiPoly(1, {(0,): 2, (3,): -1, (5,): 4}), (Fraction(-2, 3),)),
        (MultiPoly(1, {(1,): 3, (2,): 5}), (Fraction(3, 7),)),
        (MultiPoly(1, {(2,): 3}), (0,)),
        (MultiPoly(1, {(1,): -1, (4,): 7}), (-2.5,)),
    ]:
        value = poly.evaluate(pt)
        assert type(value) is Fraction and value == fraction_reference(poly, pt)
    p = MultiPoly(NUM_VARS, {(3, 0, 1): 6, (0, 2, 0): -4, (0, 0, 0): 2})
    pt = (Fraction(-2, 3), 0, Fraction(5, 2))
    assert p.evaluate(pt) == fraction_reference(p, pt)
    pt = (-0.75, 0.0, 1e-3)
    assert p.evaluate(pt) == fraction_reference(p, pt)


@given(polys, st.integers(-3, 3))
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


def test_out_of_range_arguments_and_foreign_operands_rejected():
    with pytest.raises(ValueError, match="num_vars must be nonnegative"):
        MultiPoly(-1)
    x = MultiPoly.variable(2, 0)
    for operation in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            operation(x, "x")
    with pytest.raises(ValueError, match="expected 2 values, got 3"):
        x.evaluate((1, 2, 3))
    for index in (-1, 2):
        with pytest.raises(ValueError, match=f"variable index {index} out of range"):
            x.substitute(index, 1)
        with pytest.raises(ValueError, match=f"variable index {index} out of range"):
            x.divide_by_variable(index)


def test_hash_and_repr():
    p = MultiPoly(2, {(2, 1): 1, (0, 0): -2})
    # equal polynomials hash equal, whatever order their terms came in
    assert hash(p) == hash(MultiPoly(2, {(0, 0): -2, (2, 1): 1}))
    assert len({p, MultiPoly(2, dict(p.terms)), MultiPoly(2)}) == 2
    assert repr(p) == "MultiPoly(2, 'x0^2*x1 + -2')"
    assert repr(MultiPoly(0)) == "MultiPoly(0, '0')"


def test_canonical_order_descending_lex():
    p = MultiPoly(2, {(0, 2): 1, (2, 0): 3, (1, 1): 2})
    assert [e for e, _ in p.canonical_terms()] == [(2, 0), (1, 1), (0, 2)]


def test_json_form():
    p = MultiPoly(2, {(1, 1): -2, (0, 2): 3})
    doc = p.to_json_dict(["a", "b"])
    assert doc == {
        "vars": ["a", "b"],
        "terms": [
            {"exponents": [1, 1], "coeff": "-2"},
            {"exponents": [0, 2], "coeff": "3"},
        ],
    }
    with pytest.raises(ValueError):
        p.to_json_dict(["a"])


def test_to_string():
    p = MultiPoly(2, {(2, 1): 1, (0, 0): -2})
    assert p.to_string(["u", "v"]) == "u^2*v + -2"
    assert MultiPoly(2).to_string() == "0"


def assert_clean(result):
    """A result equals its validated rebuild and keeps no zero and no non-int coefficient."""
    assert result == MultiPoly(result.num_vars, result.terms)
    assert all(type(c) is int and c for c in result.terms.values())


@given(polys, polys, st.integers(-6, 6), st.integers(0, 3), st.integers(0, NUM_VARS - 1))
@settings(max_examples=150)
def test_operation_results_are_clean(a, b, scalar, power, index):
    x = MultiPoly.variable(NUM_VARS, index)
    assert_clean(a + b)
    assert_clean(a - b)
    assert_clean(-a)
    assert_clean(a * b)
    assert_clean(scalar * a)
    assert_clean(a * scalar)
    assert_clean(a ** power)
    assert_clean(a.substitute(index, scalar))
    assert_clean((a * x).divide_by_variable(index))
    assert (a * x).divide_by_variable(index) == a


def repeated_product(poly, power):
    result = MultiPoly.constant(poly.num_vars, 1)
    for _ in range(power):
        result = result * poly
    return result


@given(exponents, st.integers(-10**20, 10**20).filter(bool), st.integers(0, 30))
@settings(max_examples=100)
def test_one_term_power_equals_repeated_product(exps, coeff, power):
    term = MultiPoly(NUM_VARS, {exps: coeff})
    result = term ** power
    assert result == repeated_product(term, power)
    assert_clean(result)


def test_pow_of_zero_and_of_several_terms():
    zero = MultiPoly(NUM_VARS)
    assert zero ** 0 == MultiPoly.constant(NUM_VARS, 1)
    assert zero ** 5 == zero
    x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    several = x + 2 * y - 3
    for power in range(8):
        assert several ** power == repeated_product(several, power)
    assert several ** 2 == MultiPoly(2, {(2, 0): 1, (1, 1): 4, (0, 2): 4, (1, 0): -6,
                                         (0, 1): -12, (0, 0): 9})
    for base in (x, 2 * x, several):
        with pytest.raises(ValueError):
            base ** -1


@pytest.mark.parametrize("exponent", [2.0, 2.5, "2", -1])
def test_pow_rejects_an_exponent_that_is_not_a_nonnegative_int(exponent):
    x = MultiPoly.variable(2, 0)
    with pytest.raises(ValueError):
        x ** exponent


def test_pow_reads_a_numpy_int_exponent():
    x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    assert (x + y) ** np.int64(3) == (x + y) ** 3 == (x + y) * (x + y) * (x + y)
