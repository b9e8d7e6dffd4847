"""Truncated power series, computed one coefficient at a time.

The kernel works on coefficient lists ``c[0..K]``, standing for
``c_0 + c_1 x + ... + c_K x^K + O(x^{K+1})``, over any ring whose
elements multiply and add: Python ints, exact rationals or
:class:`~fussnarayana.poly.MultiPoly`.  Its one operation is the product
coefficient ``[x^n] (a * b)`` from the coefficients stored so far
(:func:`product_coefficient`, and :func:`truncated_mul` for a whole
truncated product), so a coefficient that depends only on lower ones is
computed once, in increasing order (Brent and Kung, J. ACM 25, 1978).

Two routes to the moment generating series live here.  Only the first is
independent of the closed form in :mod:`fussnarayana.exact`: with
symbolic d_i, ``[lambda^{n-1}] prod_i (lambda + d_i)^n`` expands term by
term into ``prod_i C(n, m_i) d_i^{n - m_i}`` summed over
``m_0 + ... + m_p = n - 1``, the closed form's own binomial products, so
Lagrange inversion agreeing with the closed form checks the truncated
products, not the theorem.

* ``solve_functional_equation`` solves ``g = x * prod_i (g + d_i)`` by
  the recurrence ``g_{n+1} = [x^n] F_p`` on the partial products
  ``F_i = prod_{j<=i} (g + d_j)``, extending each ``F_i`` by one
  coefficient per order: O(p K^2) coefficient products through x^K.
  One loop serves two rings.  With symbolic d_i the coefficients are
  packed-key term dicts (:mod:`fussnarayana._packed`), whose step adds
  every pair product into one dict, and are turned into ``MultiPoly``
  once at the end.  With rational d_i the loop runs on Python ints: g_n
  is homogeneous of degree pn + 1 in the d_i, so the solver scales the
  d_i by the lcm q of their denominators, solves over the integers with
  :func:`product_coefficient` as the step, and divides g_n by q^{pn+1}
  once, in one ``Fraction`` per order.

* ``lagrange_coefficient`` extracts the same coefficient via Lagrange
  inversion: the x^n coefficient of the solution equals
  ``(1/n) [lambda^{n-1}] prod_i (lambda + d_i)^n``.  It runs in the
  solver's two rings, each with the algorithm that is faster for it.
  With symbolic d_i it multiplies the factors as ``MultiPoly`` series
  truncated above lambda^{n-1}, O(p n^2) coefficient products.  With
  the integer dims it runs Miller's power recurrence on the degree-(p+1)
  polynomial ``A = prod_i (lambda + d_i)``: each coefficient of A^n
  comes from the p+1 before it and one exact division, O(p n) integer
  products in all.  On ``MultiPoly`` coefficients the recurrence was
  3-14 times slower than the truncated products, because its terms and
  its division by m * A(0) work on whole polynomials.  It stays off the
  packed kernel, so it checks that kernel independently.

Both produce the order-k moment polynomial multiplied by d0.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from . import _packed
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


def _int_step(prev: Sequence[int], g: Sequence[int], n: int, d: int) -> int:
    """``[x^n] (F * (g + d))`` from the stored coefficients of F = ``prev`` and g."""
    # (g + d) has d at x^0 and g_m at x^m; g_0 = 0 drops prev[n] * g_0
    return prev[n] * d + product_coefficient(prev, g, n, 0)


def _packed_step(prev: Sequence[dict], g: Sequence[dict], n: int, d: int) -> dict:
    """The same step on packed terms, where multiplying by d shifts every key by its unit."""
    return _packed.product_coefficient(prev, g, n, {key + d: c for key, c in prev[n].items()})


def _solve(ds: Sequence, zero, one, order: int, step) -> list:
    """g[0..order] of g = x * prod_i (g + d_i), with ``step`` the ring's ``[x^n] (F * (g + d))``."""
    g = [zero]
    # partial[i + 1][n] = [x^n] F_i, filled one order at a time; partial[0] is the series 1
    partial = [[one] + [zero] * order] + [[] for _ in ds]
    for n in range(order):
        for i, d in enumerate(ds):
            partial[i + 1].append(step(partial[i], g, n, d))
        g.append(partial[-1][n])
    return g


def _exact_quotient(numerator: int, denominator: int) -> int:
    """``numerator / denominator`` as an int; a remainder raises ``ArithmeticError``."""
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise ArithmeticError(f"{numerator} is not divisible by {denominator}")
    return quotient


def _integer_dims(p: int, dims: Sequence) -> tuple[int, list[int]]:
    """``(q, [q * d for d in dims])`` for p+1 exact rational dims, q the lcm of their denominators."""
    if len(dims) != p + 1:
        raise ValueError(f"dims must provide p+1 = {p + 1} values, got {len(dims)}")
    ds = [Fraction(d) for d in dims]
    q = math.lcm(*(d.denominator for d in ds))
    return q, [d.numerator * (q // d.denominator) for d in ds]


def solve_functional_equation(
    p: int, order: int, dims: Sequence | None = None
) -> list:
    """Solve g = x * (g + d0) * (g + d1) * ... * (g + dp) to the given order.

    Returns the coefficient list ``g[0..order]``.  With ``dims`` omitted
    the d_i are symbolic and ``g[k]`` is the order-k limit moment
    polynomial times d0, in ``p+1`` variables.  With ``dims`` given (p+1
    exact rationals) the same recurrence runs on the integer dims
    ``q * d_i``, q the lcm of their denominators, and ``g[k]`` is the
    integer result divided by ``q**(p*k + 1)``, a ``Fraction``.

    Each coefficient of g and of the partial products
    ``F_i = prod_{j<=i} (g + d_j)`` is computed once, in increasing order:
    ``g_{n+1} = [x^n] F_p``, so the result is exact through x^order.
    """
    if p < 1 or order < 0:
        raise ValueError(f"need p >= 1 and order >= 0, got p={p}, order={order}")
    if dims is None:
        # Radix order + 1 packs every monomial stored, because no exponent
        # exceeds the order.  By induction no exponent in g_m exceeds m: a
        # term of [x^n] F_i takes d_s at most once from its own factor and
        # the rest from coefficients g_m whose m sum to n, so its exponents
        # are at most 1 + n, and g_{n+1} = [x^n] F_p.  The loop stops at
        # n = order - 1.  At p = 1, d0 * d1^order in g[order] meets the
        # bound, so the radix is tight.
        radix = order + 1
        g = _solve(_packed.units(p + 1, radix), {}, {0: 1}, order, _packed_step)
        return [_packed.unpack(p + 1, radix, terms) for terms in g]
    # Homogeneity: if g(x) solves the equation at d, then h(x) = q g(q^p x)
    # solves it at q d, since x prod_i (h + q d_i) = q^{p+1} x prod_i
    # (g(q^p x) + d_i) = q g(q^p x), the last step being the equation at
    # q^p x.  So G_n = g_n(q d) = q^{pn+1} g_n(d), and with q the lcm of
    # the denominators the loop sees only ints.
    q, ds = _integer_dims(p, dims)
    big = _solve(ds, 0, 1, order, _int_step)
    return [Fraction(coefficient, q ** (p * n + 1)) for n, coefficient in enumerate(big)]


def lagrange_coefficient(p: int, n: int, dims: Sequence | None = None) -> MultiPoly | Fraction:
    """x^n coefficient of the functional-equation solution, via inversion.

    Computes (1/n) [lambda^(n-1)] prod_{i=0..p} (lambda + d_i)^n.  The
    dims and the result follow :func:`solve_functional_equation`: a
    ``MultiPoly`` for symbolic d_i, a ``Fraction`` through the integer
    dims for rational ones.  Each ring runs the algorithm that is faster
    for it.  Symbolic d_i multiply the factors truncated above
    lambda^(n-1), O(p n^2) products of ``MultiPoly`` coefficients.
    Integer dims run Miller's power recurrence on A = prod_i (lambda +
    d_i), O(p n) integer products.  On ``MultiPoly`` coefficients that
    recurrence was 3-14 times slower, because its terms and its
    quotients by m * A(0) are whole polynomials.  Every division is
    exact or raises ``ArithmeticError``.
    """
    if p < 1 or n < 1:
        raise ValueError(f"need p >= 1 and n >= 1, got p={p}, n={n}")
    if dims is None:
        zero = MultiPoly(p + 1)
        ds = [MultiPoly.variable(p + 1, i) for i in range(p + 1)]
        # (lambda + d)^n truncated above lambda^(n-1)
        factors = [[math.comb(n, m) * d ** (n - m) for m in range(n)] for d in ds]
        acc = factors[0]
        for factor in factors[1:-1]:
            acc = truncated_mul(acc, factor, n - 1, zero)
        top = product_coefficient(acc, factors[-1], n - 1, zero)
        quotients = {exps: _exact_quotient(c, n) for exps, c in top.terms.items()}
        return MultiPoly._from_terms(p + 1, quotients)
    q, ds = _integer_dims(p, dims)
    # a[j] = [lambda^j] A, A = prod_i (lambda + d_i) of degree p + 1
    a = [1]
    for d in ds:
        a = [d * kept + shifted for kept, shifted in zip(a + [0], [0] + a)]
    if not a[0]:
        # a zero dim puts lambda^n into A^n, so [lambda^(n-1)] A^n = 0
        return Fraction(0)
    # Miller's recurrence (Knuth, TAOCP vol. 2, 4.7) for b = A^n: reading
    # A b' = n A' b at lambda^(m-1) gives m a_0 b_m = sum_{j>=1}
    # ((n+1) j - m) a_j b_{m-j}, and b_m is an integer
    b = [a[0] ** n]
    for m in range(1, n):
        total = 0
        for j in range(1, min(m, p + 1) + 1):
            total += ((n + 1) * j - m) * a[j] * b[m - j]
        b.append(_exact_quotient(total, m * a[0]))
    # the same homogeneity as in the solver: G_n = q^{pn+1} g_n
    return Fraction(_exact_quotient(b[n - 1], n), q ** (p * n + 1))
