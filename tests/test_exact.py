"""Tests for the closed-form counting kernel.

Frozen oracle values in this file were computed independently of the
implementation: binomials against an additive Pascal triangle, counts
against exhaustive enumeration of small index sets, and the golden
polynomials entered by hand from the worked examples of the source
material.
"""

import contextlib
import io
import itertools
import math
import random
import re
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fussnarayana import cli, exact
from fussnarayana.exact import (
    binomial,
    fuss_catalan,
    fuss_narayana_number,
    fuss_narayana_poly,
    limit_moment_poly,
    limit_moment_value,
    vandermonde_decomposition,
)
from fussnarayana.freeprob import FREEPROB_FIXTURES
from fussnarayana.poly import MultiPoly


def pascal_row(n: int) -> list[int]:
    row = [1]
    for _ in range(n):
        row = [a + b for a, b in zip([0] + row, row + [0])]
    return row


def test_binomial_against_pascal():
    for n in range(0, 12):
        row = pascal_row(n)
        for k in range(0, n + 1):
            assert binomial(n, k) == row[k]
    assert binomial(9, 7) == 36
    assert binomial(5, -1) == 0
    assert binomial(5, 6) == 0
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_fuss_catalan_values():
    # frozen small table; p=1 gives the Catalan numbers
    assert [fuss_catalan(1, k) for k in range(1, 7)] == [1, 2, 5, 14, 42, 132]
    assert fuss_catalan(2, 1) == 1
    assert fuss_catalan(2, 2) == 3
    assert fuss_catalan(2, 3) == 12
    assert fuss_catalan(3, 2) == 4
    assert fuss_catalan(3, 3) == 22
    with pytest.raises(ValueError):
        fuss_catalan(0, 1)
    with pytest.raises(ValueError):
        fuss_catalan(1, 0)


@given(st.integers(1, 5), st.integers(1, 8))
@settings(max_examples=60)
def test_fuss_catalan_two_closed_forms_agree(p, k):
    # (1/k) C((p+1)k, pk+1) and (1/(pk+1)) C((p+1)k, k) count the same family
    lhs = fuss_catalan(p, k)
    top = binomial((p + 1) * k, k)
    assert top % (p * k + 1) == 0
    assert lhs == top // (p * k + 1)


def test_fuss_narayana_number_small_cases():
    # p = 1, k = 3: (1/3) C(3,j0) C(3,j1) on j0 + j1 = 4
    assert fuss_narayana_number(3, (2, 2)) == 3
    assert fuss_narayana_number(3, (1, 3)) == 1
    assert fuss_narayana_number(3, (3, 1)) == 1
    # p = 2, k = 2: (1/2) C(2,1) C(2,2) C(2,2)
    assert fuss_narayana_number(2, (1, 2, 2)) == 1
    # out of support: wrong total, or an entry outside [1, k]
    assert fuss_narayana_number(2, (1, 1, 2)) == 0
    assert fuss_narayana_number(3, (1, 2, 3)) == 0
    assert fuss_narayana_number(3, (0, 4)) == 0
    assert fuss_narayana_number(2, (2, 2, 2)) == 0
    with pytest.raises(ValueError):
        fuss_narayana_number(0, (1, 1))
    with pytest.raises(ValueError):
        fuss_narayana_number(2, ())


@pytest.mark.parametrize("index", [(1.5, 3, 3), (2.9, 3, 2), ("2", 3, 2)], ids=repr)
def test_fuss_narayana_number_rejects_non_integral_entries(index):
    # int() would read these as (1, 3, 3), (2, 3, 2) and (2, 3, 2), counts 1 and 3
    with pytest.raises(ValueError, match="non-integral entry"):
        fuss_narayana_number(3, index)


@pytest.mark.parametrize("k", [2.5, 3.0, "3", Fraction(3), None], ids=repr)
def test_fuss_narayana_number_rejects_a_non_integral_order(k):
    # read unchecked, 2.5 falls off the support (count 0) and 3.0 fails inside math.comb
    with pytest.raises(ValueError, match="requires an integer k"):
        fuss_narayana_number(k, (2, 2))


def test_fuss_narayana_number_reads_integer_like_orders():
    numpy = pytest.importorskip("numpy")
    assert fuss_narayana_number(numpy.int64(3), (numpy.int32(2), 2)) == 3
    assert fuss_narayana_number(True, (1,)) == 1


@pytest.mark.parametrize("function", [binomial, fuss_catalan, vandermonde_decomposition,
                                      limit_moment_poly, fuss_narayana_poly], ids=lambda f: f.__name__)
@pytest.mark.parametrize("args", [(2, 2.5), (2, 2.0), (2, "3"), (Fraction(2), 3), (None, 3)], ids=repr)
def test_integer_arguments_are_read_strictly(function, args):
    # a ValueError naming the argument, not a TypeError from the arithmetic
    position = 0 if type(args[0]) is not int else 1
    name = ("n" if function is binomial else "p", "k")[position]
    message = f"{function.__name__} requires an integer {name}, got {name}={args[position]!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        function(*args)


def test_integer_arguments_take_integer_like_values():
    numpy = pytest.importorskip("numpy")
    assert binomial(numpy.int64(4), numpy.int32(2)) == 6
    assert fuss_catalan(numpy.int64(2), True) == 1
    assert limit_moment_poly(numpy.int64(2), numpy.int64(2)) == limit_moment_poly(2, 2)


@pytest.mark.parametrize("p,k", [(0, 2), (2, 0)])
def test_vandermonde_decomposition_names_bad_arguments(p, k):
    with pytest.raises(ValueError, match=f"got p={p}, k={k}"):
        vandermonde_decomposition(p, k)


def test_fuss_narayana_number_against_brute_sum():
    # independent check: summing over the full support recovers fuss_catalan
    for p, k in [(1, 4), (2, 3), (3, 2)]:
        total = 0
        for js in itertools.product(range(1, k + 1), repeat=p + 1):
            if sum(js) == p * k + 1:
                total += fuss_narayana_number(k, js)
        assert total == fuss_catalan(p, k)


@given(st.integers(1, 4), st.integers(1, 6))
@settings(max_examples=60)
def test_vandermonde_decomposition_is_an_identity(p, k):
    refined, total = vandermonde_decomposition(p, k)
    assert refined == total == fuss_catalan(p, k)


def test_vandermonde_decomposition_3_3():
    # independent tally of (1/3) C(3,a) C(3,b) C(3,c) C(3,d) over a+b+c+d = 10:
    # multiset {3,3,3,1}: 4 orderings of (1/3)*1*1*1*3 = 1 -> 4
    # multiset {3,3,2,2}: 6 orderings of (1/3)*1*1*3*3 = 3 -> 18
    assert vandermonde_decomposition(3, 3) == (22, 22)


def test_limit_moment_poly_golden_orders_2_and_3():
    d = [MultiPoly.variable(3, i) for i in range(3)]
    expected_2 = d[1] ** 2 * d[2] ** 2 + d[0] * d[1] * d[2] ** 2 + d[0] * d[1] ** 2 * d[2]
    assert limit_moment_poly(2, 2) == expected_2
    expected_3 = (
        d[1] ** 3 * d[2] ** 3
        + 3 * d[0] * d[1] ** 2 * d[2] ** 3
        + 3 * d[0] * d[1] ** 3 * d[2] ** 2
        + d[0] ** 2 * d[1] * d[2] ** 3
        + 3 * d[0] ** 2 * d[1] ** 2 * d[2] ** 2
        + d[0] ** 2 * d[1] ** 3 * d[2]
    )
    assert limit_moment_poly(2, 3) == expected_3


def test_limit_moment_poly_order_zero_and_one():
    assert limit_moment_poly(2, 0) == MultiPoly.constant(3, 1)
    assert limit_moment_poly(1, 1) == MultiPoly.variable(2, 1)
    d = [MultiPoly.variable(3, i) for i in range(3)]
    assert limit_moment_poly(2, 1) == d[1] * d[2]
    with pytest.raises(ValueError):
        limit_moment_poly(0, 1)


def test_limit_moment_poly_coefficient_indexing():
    # the coefficient of d0^1 d1^2 d2^3 at order 3 is the refined count at (2, 2, 3)
    poly = limit_moment_poly(2, 3)
    assert poly.terms[(1, 2, 3)] == fuss_narayana_number(3, (2, 2, 3)) == 3


@given(st.integers(1, 3), st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_limit_moment_poly_is_homogeneous(p, k):
    poly = limit_moment_poly(p, k)
    assert all(sum(exps) == p * k for exps in poly.terms)
    assert all(coeff > 0 and coeff.denominator == 1 for coeff in poly.terms.values())


@pytest.mark.parametrize("p,k", [(1, 20), (2, 12), (3, 9), (4, 6), (5, 5), (6, 4)])
def test_limit_moment_poly_term_order_is_j0_major_then_lexicographic(p, k):
    # The insertion order is pinned: j0 ascending, then (j1, ..., jp) in
    # lexicographic order, as the loop over j0 and the compositions of
    # p*k - j0 into [1, k] produced them.
    expected = []
    for j0 in range(k):
        for rest in itertools.product(range(1, k + 1), repeat=p):
            if sum(rest) == p * k - j0:
                expected.append(((j0,) + rest, fuss_narayana_number(k, (j0 + 1,) + rest)))
    assert list(limit_moment_poly(p, k).terms.items()) == expected


@pytest.mark.parametrize("p,k", [(1, 20), (2, 10), (3, 8), (2, 30), (3, 30), (4, 14)])
def test_moment_polynomials_keep_int_coefficients(p, k):
    # the benchmark's symbolic and moments orders
    for poly in (limit_moment_poly(p, k), fuss_narayana_poly(p, k)):
        assert all(type(c) is int for c in poly.terms.values())


@given(st.integers(1, 3), st.integers(1, 4), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_first_ratio_times_poly_is_fully_symmetric(p, k, rng):
    # d0 * poly is invariant under every permutation of all p+1 ratios
    poly = MultiPoly.variable(p + 1, 0) * limit_moment_poly(p, k)
    perm = list(range(p + 1))
    rng.shuffle(perm)
    permuted = {tuple(exps[j] for j in perm): c for exps, c in poly.terms.items()}
    assert permuted == poly.terms


@pytest.mark.parametrize("p", range(1, 6))
def test_fuss_narayana_poly_is_the_closed_form_at_unit_first_ratio(p):
    for k in range(11):
        assert fuss_narayana_poly(p, k) == limit_moment_poly(p, k).substitute(0, 1)


def test_fuss_narayana_poly_refuses_to_merge_terms(monkeypatch):
    # d0 + 1 is not homogeneous: dropping d0 maps both its terms to the constant
    skewed = MultiPoly(2, {(1, 0): 1, (0, 0): 1})
    monkeypatch.setattr(exact, "limit_moment_poly", lambda p, k: skewed)
    with pytest.raises(ArithmeticError, match="merged"):
        fuss_narayana_poly(1, 1)


def test_fuss_narayana_poly_golden():
    t = [MultiPoly.variable(2, i) for i in range(2)]
    expected_2 = t[0] ** 2 * t[1] ** 2 + t[0] * t[1] ** 2 + t[0] ** 2 * t[1]
    assert fuss_narayana_poly(2, 2) == expected_2
    expected_3 = (
        t[0] ** 3 * t[1] ** 3
        + t[0] * t[1] ** 3
        + t[0] ** 3 * t[1]
        + 3 * t[0] ** 2 * t[1] ** 2
        + 3 * t[0] ** 2 * t[1] ** 3
        + 3 * t[0] ** 3 * t[1] ** 2
    )
    assert fuss_narayana_poly(2, 3) == expected_3


def test_fuss_narayana_poly_reduces_to_narayana():
    # p = 1: coefficients (1/k) C(k,j) C(k,j-1)
    t = MultiPoly.variable(1, 0)
    assert fuss_narayana_poly(1, 1) == t
    assert fuss_narayana_poly(1, 2) == t + t**2
    assert fuss_narayana_poly(1, 3) == t + 3 * t**2 + t**3
    assert fuss_narayana_poly(1, 4) == t + 6 * t**2 + 6 * t**3 + t**4


def test_moment_poly_at_unit_ratios_is_fuss_catalan():
    for p in (1, 2, 3):
        for k in range(1, 5):
            value = limit_moment_poly(p, k).evaluate((Fraction(1),) * (p + 1))
            assert value == fuss_catalan(p, k)


def _random_point(rng: random.Random, p: int, kind: str) -> list:
    """p+1 coordinates of one kind, with zeros and negatives among them."""
    draw = {
        "int": lambda: rng.randint(-6, 6),
        "fraction": lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        "float": lambda: rng.uniform(-3.0, 3.0) if rng.random() < 0.8 else 0.0,
    }[kind]
    return [draw() for _ in range(p + 1)]


@pytest.mark.parametrize("p", range(1, 6))
def test_limit_moment_value_is_the_polynomial_at_the_point(p):
    rng = random.Random(20261020 + p)
    for k in range(11):
        poly = limit_moment_poly(p, k)
        for kind in ("int", "fraction", "float"):
            point = _random_point(rng, p, kind)
            at_zero = [point[0] * 0] + point[1:]
            for dims in (point, at_zero):
                value = limit_moment_value(dims, k)
                assert type(value) is Fraction
                assert value == poly.evaluate(dims), (k, dims)


def test_limit_moment_value_at_unit_ratios_is_fuss_catalan():
    for p in (1, 2, 3, 8):
        for k in (1, 2, 5, 40):
            assert limit_moment_value((1,) * (p + 1), k) == fuss_catalan(p, k)


@pytest.mark.parametrize("dims, k, message", [
    ((2,), 3, "requires p+1 >= 2 dims"),
    ((), 3, "requires p+1 >= 2 dims"),
    ((1, 2), -1, "k >= 0"),
    ((1, 2), 2.5, "requires an integer k"),
    ((1, 2), 2.0, "requires an integer k"),
    ((1, 2), Fraction(2), "requires an integer k"),
    ((1, float("inf")), 2, "requires finite coordinates"),
    ((float("-inf"), 1), 2, "requires finite coordinates"),
    ((1, float("nan")), 2, "requires finite coordinates"),
], ids=repr)
def test_limit_moment_value_rejects_bad_arguments(dims, k, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        limit_moment_value(dims, k)


def test_verify_freeprob_catches_an_off_by_one_binomial_in_the_point_loop(monkeypatch):
    # C(k, j - 1) for C(k, j) keeps every product of binomials divisible by a
    # prime k, so at k = 7 the division check passes the wrong sum, and past
    # the polynomial's orders (k <= 6) only the series table can catch it
    def off_by_one(n, j):
        return math.comb(n, j - 1) if n == 7 and j else math.comb(n, j)

    points = [(1,) + shapes for shapes in FREEPROB_FIXTURES]
    honest = [limit_moment_value(point, 7) for point in points]
    monkeypatch.setattr(exact, "math", types.SimpleNamespace(**{**vars(math), "comb": off_by_one}))
    planted = [limit_moment_value(point, 7) for point in points]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["verify", "--suite", "freeprob", "--k-max", "8"]) == 1
    text = out.getvalue()
    assert '"ok": false' in text
    # at p = 1 the shifted pair C(k, j0 - 1) C(k, j1 - 1), j0 + j1 = k + 1, is
    # the Narayana pair C(k, j1) C(k, j1 - 1) again; every fixture with p >= 2
    # moves and is reported
    moved = [before != after for before, after in zip(honest, planted)]
    assert moved == [len(shapes) >= 2 for shapes in FREEPROB_FIXTURES]
    for shapes, wrong in zip(FREEPROB_FIXTURES, moved):
        reported = f"shapes {shapes}: series, closed form at the point and closed-form polynomial" in text
        assert reported == wrong, shapes
