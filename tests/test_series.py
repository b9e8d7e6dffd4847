"""Tests for the truncated-series kernel, the functional-equation solver, and Lagrange inversion."""

import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fussnarayana import _packed
from fussnarayana.exact import limit_moment_poly
from fussnarayana.poly import MultiPoly
from fussnarayana.series import (
    _solve,
    lagrange_coefficient,
    product_coefficient,
    solve_functional_equation,
    truncated_mul,
)


def test_series_arithmetic_truncates():
    t = MultiPoly.variable(1, 0)
    one = MultiPoly.constant(1, 1)
    # s = 1 + t x + t x^2 over one variable t; s^2 through x^2
    s = [one, t, t]
    assert truncated_mul(s, s, 2, MultiPoly(1)) == [one, 2 * t, 2 * t + t * t]


def test_series_products_drop_terms_past_the_order():
    zero, one = MultiPoly(0), MultiPoly.constant(0, 1)
    # at order 1 the product x * x has nowhere to put x^2, so it is zero
    assert truncated_mul([zero, one], [zero, one], 1, zero) == [zero, zero]
    # (1 + x)(1 - x) keeps the x^2 term at order 2
    product = truncated_mul([one, one, zero], [one, -one, zero], 2, zero)
    assert product == [one, zero, MultiPoly.constant(0, -1)]


def test_solver_small_golden():
    # p = 1, two orders: the solution starts d0 d1 x + (d0^2 d1 + d0 d1^2) x^2
    g = solve_functional_equation(1, 2)
    d0 = MultiPoly.variable(2, 0)
    d1 = MultiPoly.variable(2, 1)
    assert len(g) == 3
    assert not g[0]
    assert g[1] == d0 * d1
    assert g[2] == d0 * d0 * d1 + d0 * d1 * d1


def test_solver_rejects_bad_arguments():
    with pytest.raises(ValueError):
        solve_functional_equation(0, 3)
    with pytest.raises(ValueError):
        solve_functional_equation(1, -1)
    with pytest.raises(ValueError):
        solve_functional_equation(2, 3, dims=(1, 2))


@pytest.mark.parametrize("function", [solve_functional_equation, lagrange_coefficient],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("args", [(1.0, 3), (1, 3.0), (2, 2.5), ("1", 3), (1, None)], ids=repr)
def test_integer_arguments_are_read_strictly(function, args):
    # a ValueError naming the argument, not a TypeError from range or a comparison
    position = 0 if type(args[0]) is not int else 1
    name = ("p", "order" if function is solve_functional_equation else "n")[position]
    message = f"{function.__name__} requires an integer {name}, got {name}={args[position]!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        function(*args)


def test_integer_arguments_take_integer_like_values():
    numpy = pytest.importorskip("numpy")
    assert solve_functional_equation(numpy.int64(2), numpy.int32(3)) == solve_functional_equation(2, 3)
    assert lagrange_coefficient(True, numpy.int64(4)) == lagrange_coefficient(1, 4)


def test_symbolic_solve_stores_terms_in_the_elementary_polynomials():
    # g_20 at p = 3 is 94 terms in e_1..e_4 and 1540 in d_0..d_3
    g = solve_functional_equation(3, 20)
    assert len(g._orders[20]) == 94
    assert len(g[20].terms) == 1540


@pytest.mark.parametrize("p,order", [(1, 60), (2, 30), (3, 20), (4, 14), (5, 10)])
def test_symbolic_solve_is_the_moment_polynomial_past_the_benchmark_orders(p, order):
    g = solve_functional_equation(p, order)
    assert g[order] == limit_moment_poly(p, order) * MultiPoly.variable(p + 1, 0)


@pytest.mark.parametrize("p,order", [(1, 6), (2, 5), (3, 4)])
def test_solution_satisfies_its_equation(p, order):
    # substitute the solution back: g - x * prod_i (g + d_i) must vanish
    # in every kept order (the x factor protects the top coefficient)
    g = solve_functional_equation(p, order)
    num_vars = p + 1
    zero = MultiPoly(num_vars)
    acc = [MultiPoly.constant(num_vars, 1)]
    for i in range(num_vars):
        factor = [g[0] + MultiPoly.variable(num_vars, i)] + g[1:]
        acc = truncated_mul(acc, factor, order, zero)
    rhs = [zero] + acc[:-1]
    for k in range(order + 1):
        assert g[k] == rhs[k], f"residual at order {k}"


def test_solver_coefficients_are_moment_polynomials():
    # the benchmark's orders
    for p, order in [(1, 20), (2, 10), (3, 8)]:
        g = solve_functional_equation(p, order)
        d0 = MultiPoly.variable(p + 1, 0)
        for k in range(1, order + 1):
            assert g[k] == d0 * limit_moment_poly(p, k)


def test_symbolic_solver_keeps_int_coefficients():
    # the benchmark's orders
    for p, order in [(1, 20), (2, 10), (3, 8)]:
        for g_k in solve_functional_equation(p, order):
            assert all(type(c) is int for c in g_k.terms.values())


@pytest.mark.parametrize("p,order", [(1, 12), (2, 7), (3, 5), (4, 4)])
def test_symbolic_solver_exponents_reach_the_order_and_no_further(p, order):
    # the packed solver's radix order + 1 rests on this bound being tight
    g = solve_functional_equation(p, order)
    assert max(max(exps) for g_k in g for exps in g_k.terms) == order
    if p == 1:
        assert (1, order) in g[order].terms  # d0 * d1^order
    d0 = MultiPoly.variable(p + 1, 0)
    dims = (Fraction(1, 2), Fraction(3), Fraction(5, 7), Fraction(2), Fraction(4, 3))[: p + 1]
    numeric = solve_functional_equation(p, order, dims=dims)
    assert not g[0] and not numeric[0]
    for k in range(1, order + 1):
        assert g[k] == d0 * limit_moment_poly(p, k)
        assert numeric[k] == g[k].evaluate(dims)


rationals = st.fractions(min_value=Fraction(1, 7), max_value=Fraction(4), max_denominator=9)


@given(st.integers(1, 3), st.integers(1, 5), st.data())
@settings(max_examples=30, deadline=None)
def test_numeric_mode_matches_symbolic_evaluation(p, order, data):
    dims = tuple(data.draw(rationals) for _ in range(p + 1))
    numeric = solve_functional_equation(p, order, dims=dims)
    symbolic = solve_functional_equation(p, order)
    for k in range(order + 1):
        assert numeric[k] == symbolic[k].evaluate(dims)


def fraction_recurrence(dims, order):
    """g[0..order] of g = x * prod_i (g + d_i) by the plain Fraction recurrence.

    g_{n+1} is the x^n coefficient of the product, expanded in full from
    g_0..g_n at every order.
    """
    g = [Fraction(0)]
    for n in range(order):
        product = [Fraction(1)] + [Fraction(0)] * n
        for d in dims:
            factor = [Fraction(d)] + g[1:]
            product = [sum(product[i] * factor[m - i] for i in range(m + 1)) for m in range(n + 1)]
        g.append(product[n])
    return g


signed_dims = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=9), min_size=2, max_size=5
)


@given(signed_dims, st.integers(0, 12))
@example(dims=[Fraction(-2, 3), 0, Fraction(5, 4), 7], order=12)
@example(dims=[1, -2, 3], order=12)
@example(dims=[Fraction(1, 6), Fraction(-1, 10), Fraction(3, 14), Fraction(9, 4)], order=12)
@settings(max_examples=60, deadline=None)
def test_rational_solve_matches_the_fraction_recurrence(dims, order):
    # mixed denominators, zero and negative dims, p = len(dims) - 1 from 1
    # to 4: the integer solve is rescaled by q^(pn+1), q the lcm of the
    # denominators
    p = len(dims) - 1
    g = solve_functional_equation(p, order, dims=dims)
    assert all(type(c) is Fraction for c in g)
    assert g == fraction_recurrence(dims, order)


def partial_product_solve(ds, zero, one, order, step):
    """g[0..order] of g = x * prod_i (g + d_i) through the partial products.

    F_i = prod_{j<=i} (g + d_j) is extended by one coefficient per order,
    F_i = F_{i-1} * (g + d_i), and g_{n+1} = [x^n] F_p: a second recurrence
    for the same coefficients, the reference for the solve through powers
    of g.
    """
    g = [zero]
    partial = [[one] + [zero] * order] + [[] for _ in ds]
    for n in range(order):
        for i, d in enumerate(ds):
            partial[i + 1].append(step(partial[i], g, n, d))
        g.append(partial[-1][n])
    return g


def fraction_step(prev, g, n, d):
    # (g + d) has d at x^0 and g_m at x^m; g_0 = 0 drops prev[n] * g_0
    return prev[n] * d + product_coefficient(prev, g, n, 0)


def packed_step(prev, g, n, d):
    # multiplying by the variable d shifts every packed key by its unit
    return product_coefficient(prev, g, n, {key + d: c for key, c in prev[n].items()},
                               _packed.add_product)


@pytest.mark.parametrize("p,order", [(1, 12), (2, 8), (3, 6), (4, 5), (5, 4), (6, 4)])
def test_symbolic_solve_matches_the_partial_product_recurrence(p, order):
    radix = order + 1
    reference = partial_product_solve(_packed.units(p + 1, radix), {}, {0: 1}, order, packed_step)
    assert solve_functional_equation(p, order) == [
        _packed.unpack(p + 1, radix, terms) for terms in reference
    ]


@pytest.mark.parametrize("p", range(1, 7))
def test_rational_solve_matches_the_partial_product_recurrence(p):
    # equal dims and a negative one, then the same with the last dim zero
    dims = [Fraction(1, 2), Fraction(1, 2), Fraction(3), Fraction(-2, 5), Fraction(3),
            Fraction(4, 3), Fraction(1, 2)][: p + 1]
    for ds in (dims, dims[:-1] + [Fraction(0)]):
        reference = partial_product_solve(ds, Fraction(0), Fraction(1), 14, fraction_step)
        assert solve_functional_equation(p, 14, dims=ds) == reference
    assert not any(reference)  # a zero dim makes g = x * g * ... vanish


def test_lagrange_against_direct_expansion():
    # independent route for p = 2, n = 2: expand (y + d0)^2 (y + d1)^2 (y + d2)^2
    # in a 4-variable ring and read off the coefficient of y^1, twice the answer
    y, d0, d1, d2 = (MultiPoly.variable(4, i) for i in range(4))
    product = (y + d0) ** 2 * (y + d1) ** 2 * (y + d2) ** 2
    linear = {
        exps[1:]: coeff for exps, coeff in product.terms.items() if exps[0] == 1
    }
    assert 2 * lagrange_coefficient(2, 2) == MultiPoly(3, linear)


@pytest.mark.parametrize("p,order", [(1, 8), (2, 4), (3, 2), (1, 20), (2, 10), (3, 8)])
def test_lagrange_matches_solver(p, order):
    g = solve_functional_equation(p, order)
    for n in range(1, order + 1):
        assert lagrange_coefficient(p, n) == g[n]


@pytest.mark.parametrize("p,n", [(1, 100), (2, 30), (3, 20)])
def test_symbolic_lagrange_is_the_moment_polynomial_past_the_solver_orders(p, n):
    # the orders of the CI series-against-closed-form step
    assert lagrange_coefficient(p, n) == limit_moment_poly(p, n) * MultiPoly.variable(p + 1, 0)


def test_lagrange_coefficients_are_integers():
    for p, n in [(1, 6), (2, 4), (3, 3), (4, 2)]:
        poly = lagrange_coefficient(p, n)
        assert all(c.denominator == 1 for c in poly.terms.values())
    with pytest.raises(ValueError):
        lagrange_coefficient(1, 0)


Q = 2**61 - 1


def add_product_mod_q(total, a, b):
    """The multiply-accumulate of the ints mod Q; ``None`` is the empty sum."""
    return (a * b if total is None else total + a * b) % Q


def test_kernel_is_generic_over_the_coefficient_ring():
    # (1 + t x)^2 truncated at x^1, over MultiPoly in t, then at t = 3 over Fraction
    t = MultiPoly.variable(1, 0)
    one = MultiPoly.constant(1, 1)
    symbolic = truncated_mul([one, t], [one, t], 1, MultiPoly(1))
    assert symbolic == [one, 2 * t]
    numeric = truncated_mul([Fraction(1), Fraction(3)], [Fraction(1), Fraction(3)], 1, Fraction(0))
    assert numeric == [c.evaluate([3]) for c in symbolic]
    # the ints mod Q, a ring given only by its accumulate, run the same
    # solve at (p, K) = (1, 40) and (3, 12): the integer g_n, far past Q, reduced
    for ds, order in [([3, -5], 40), ([2, -3, 5, 7], 12)]:
        exact = _solve(ds, 1, order, int)
        assert max(exact) > Q
        assert _solve([d % Q for d in ds], 1, order, int, add_product_mod_q) == [g % Q for g in exact]
