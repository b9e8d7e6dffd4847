"""Truncated power series, computed one coefficient at a time.

The kernel works on coefficient lists ``c[0..K]``, standing for
``c_0 + c_1 x + ... + c_K x^K + O(x^{K+1})``, over exact rationals or
:class:`~fussnarayana.poly.MultiPoly`.  Its one step is ``[x^n] (a * b)``
from the coefficients stored so far, so a coefficient that depends only
on lower ones is computed once, in increasing order (Brent and Kung,
J. ACM 25, 1978).

Two independent routes to the moment generating series live here:

* ``solve_functional_equation`` solves ``g = x * prod_i (g + d_i)`` by
  the recurrence ``g_{n+1} = [x^n] F_p`` on the partial products
  ``F_i = prod_{j<=i} (g + d_j)``, extending each ``F_i`` by one
  coefficient per order: O(p K^2) coefficient products through x^K.

* ``lagrange_coefficient`` extracts the same coefficient via Lagrange
  inversion: the x^n coefficient of the solution equals
  ``(1/n) [lambda^{n-1}] prod_i (lambda + d_i)^n``.

Both produce the order-k moment polynomial multiplied by d0.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .poly import MultiPoly


def product_coefficient(a: Sequence, b: Sequence, n: int, zero):
    """``[x^n] (a * b)`` from the coefficients stored in ``a`` and ``b``.

    Only index pairs inside both sequences contribute, so a series whose
    coefficients are still being computed takes part with those it has.
    Zero coefficients are skipped; ``zero`` is the ring's zero.
    """
    total = zero
    for i in range(max(0, n - len(b) + 1), min(n, len(a) - 1) + 1):
        a_i, b_j = a[i], b[n - i]
        if a_i and b_j:
            total = total + a_i * b_j
    return total


def truncated_mul(a: Sequence, b: Sequence, order: int, zero) -> list:
    """Coefficients 0..order of the product a * b."""
    return [product_coefficient(a, b, n, zero) for n in range(order + 1)]


def truncated_inverse(a: Sequence[Fraction], order: int) -> list[Fraction]:
    """Coefficients 0..order of 1/a; a[0] must be a nonzero rational."""
    if not a[0]:
        raise ValueError("series with zero constant term has no reciprocal")
    head = 1 / Fraction(a[0])
    out = [head]
    # with out holding n entries, the step leaves out the unknown a[0] * out[n]
    for n in range(1, order + 1):
        out.append(-product_coefficient(a, out, n, Fraction(0)) * head)
    return out


def truncated_compose(f: Sequence, g: Sequence, order: int, zero) -> list:
    """Coefficients 0..order of f(g(x)); g must have zero constant term."""
    if g[0]:
        raise ValueError("composition needs a series with zero constant term")
    top = min(order, len(f) - 1)
    out = [f[top]]
    for k in range(top - 1, -1, -1):
        out = truncated_mul(out, g, order, zero)
        out[0] = out[0] + f[k]
    return out + [zero] * (order + 1 - len(out))


def solve_functional_equation(
    p: int, order: int, dims: Sequence | None = None
) -> list:
    """Solve g = x * (g + d0) * (g + d1) * ... * (g + dp) to the given order.

    Returns the coefficient list ``g[0..order]``.  With ``dims`` omitted
    the d_i are symbolic and ``g[k]`` is the order-k limit moment
    polynomial times d0, in ``p+1`` variables.  With ``dims`` given (p+1
    exact rationals) the same recurrence runs on rational coefficients,
    which is much faster for numeric work, and the ``g[k]`` are
    ``Fraction``s.

    Each coefficient of g and of the partial products
    ``F_i = prod_{j<=i} (g + d_j)`` is computed once, in increasing order:
    ``g_{n+1} = [x^n] F_p``, so the result is exact through x^order.
    """
    if p < 1 or order < 0:
        raise ValueError(f"need p >= 1 and order >= 0, got p={p}, order={order}")
    if dims is None:
        ds = [MultiPoly.variable(p + 1, i) for i in range(p + 1)]
        zero = MultiPoly(p + 1)
    else:
        if len(dims) != p + 1:
            raise ValueError(f"dims must provide p+1 = {p + 1} values, got {len(dims)}")
        ds = [Fraction(d) for d in dims]
        zero = Fraction(0)
    g = [zero]
    # partial[i + 1][n] = [x^n] F_i, filled one order at a time; partial[0] is the series 1
    partial = [[zero + 1] + [zero] * order] + [[] for _ in ds]
    for n in range(order):
        for i, d in enumerate(ds):
            prev = partial[i]
            # (g + d) has d at x^0 and g_m at x^m; g_0 = 0 drops prev[n] * g_0
            partial[i + 1].append(prev[n] * d + product_coefficient(prev, g, n, zero))
        g.append(partial[-1][n])
    return g


def lagrange_coefficient(p: int, n: int) -> MultiPoly:
    """x^n coefficient of the functional-equation solution, via inversion.

    Computes (1/n) times the lambda^(n-1) coefficient of
    ``prod_{i=0..p} (lambda + d_i)^n``, working with a univariate
    polynomial in lambda truncated above degree n-1.  The division by n
    must be exact; a failure raises rather than returning a rational.
    """
    if p < 1 or n < 1:
        raise ValueError(f"need p >= 1 and n >= 1, got p={p}, n={n}")
    num_vars = p + 1
    zero = MultiPoly(num_vars)
    # acc[m] is the d-polynomial multiplying lambda^m, kept only for m <= n-1.
    acc = [MultiPoly.constant(num_vars, 1)]
    for i in range(num_vars):
        d_i = MultiPoly.variable(num_vars, i)
        # (lambda + d_i)^n truncated above lambda^(n-1)
        factor = [MultiPoly.constant(num_vars, math.comb(n, m)) * d_i ** (n - m) for m in range(n)]
        acc = truncated_mul(acc, factor, n - 1, zero)
    return (acc[n - 1] * Fraction(1, n)).assert_integer_coefficients()
