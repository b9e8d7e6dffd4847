"""Exact Fuss-Catalan and Fuss-Narayana combinatorics.

This module is the closed-form counting kernel of the package.  It
provides binomial coefficients, Fuss-Catalan numbers, the refined
Fuss-Narayana counts indexed by integer vectors, and the two moment
polynomials assembled from those counts:

* ``limit_moment_poly(p, k)`` is the homogeneous polynomial of degree
  ``p*k`` in ``p+1`` variables ``d0..dp`` whose value is the large-size
  limit of the k-th normalized trace moment of ``B B*`` for a product
  ``B`` of ``p`` independent rectangular Gaussian blocks with dimension
  ratios ``d0..dp``.

* ``fuss_narayana_poly(p, k)`` is the same object with ``d0 = 1``,
  a polynomial in ``t1..tp`` that also gives the moments of free
  multiplicative convolutions of Marchenko-Pastur laws.

* ``limit_moment_value(dims, k)`` is the exact value of
  ``limit_moment_poly(p, k)`` at a rational point, summed without
  building the polynomial.

Every division is guarded by an exact divisibility check, so a wrong
formula fails loudly instead of silently rounding.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator, Sequence
from fractions import Fraction

from .poly import MultiPoly


def _exact_div(numerator: int, denominator: int) -> int:
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise ArithmeticError(f"{numerator} is not divisible by {denominator}")
    return quotient


def _integer(function: str, name: str, value) -> int:
    """``value`` read with ``operator.index``.

    A value that is not an integer raises ``ValueError`` naming
    ``function`` and the argument ``name``, so a float or str never
    reaches the arithmetic, to fail there with a ``TypeError`` or to be
    truncated.
    """
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{function} requires an integer {name}, got {name}={value!r}") from None


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k); zero outside 0 <= k <= n.

    ``n`` must be nonnegative.  Out-of-range ``k`` (negative or above n)
    yields 0 rather than an error, which keeps summation formulas free
    of boundary cases.
    """
    n, k = _integer("binomial", "n", n), _integer("binomial", "k", k)
    if n < 0:
        raise ValueError(f"binomial requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def fuss_catalan(p: int, k: int) -> int:
    """Fuss-Catalan number (1/k) * C((p+1)k, pk+1) for p >= 1, k >= 1.

    Counts, among other families, the noncrossing pair matchings of the
    k-fold repetition of a fixed alternating word on p letter pairs.
    Equals (1/(pk+1)) * C((p+1)k, k).
    """
    p, k = _integer("fuss_catalan", "p", p), _integer("fuss_catalan", "k", k)
    if p < 1 or k < 1:
        raise ValueError(f"fuss_catalan requires p >= 1 and k >= 1, got p={p}, k={k}")
    return _exact_div(binomial((p + 1) * k, p * k + 1), k)


def fuss_narayana_number(k: int, index: Sequence[int]) -> int:
    """Refined Fuss-Narayana count (1/k) * prod_i C(k, j_i) for j = index.

    The vector ``index = (j_0, ..., j_p)`` refines the Fuss-Catalan
    number ``fuss_catalan(p, k)``: summing over all vectors with entries
    in [1, k] and total ``p*k + 1`` recovers it.  Outside that support
    the count is 0 by convention, never an error, so callers can sum
    freely.  The product of binomials is always divisible by k on the
    support; the division is checked.
    """
    k = _integer("fuss_narayana_number", "k", k)
    if k < 1:
        raise ValueError(f"fuss_narayana_number requires k >= 1, got k={k}")
    try:
        js = tuple(map(operator.index, index))
    except TypeError:
        raise ValueError(f"non-integral entry in index vector {index!r}") from None
    if not js:
        raise ValueError("index vector must be nonempty")
    p = len(js) - 1
    if sum(js) != p * k + 1 or min(js) < 1 or max(js) > k:
        return 0
    product = 1
    for j in js:
        product *= math.comb(k, j)
    return _exact_div(product, k)


def _compositions(total: int, parts: int, low: int, high: int) -> Iterator[tuple[int, ...]]:
    """All tuples of length ``parts`` >= 1 with entries in [low, high] summing to total."""
    if parts == 1:
        if low <= total <= high:
            yield (total,)
        return
    rest_low = low * (parts - 1)
    rest_high = high * (parts - 1)
    for first in range(max(low, total - rest_high), min(high, total - rest_low) + 1):
        for rest in _compositions(total - first, parts - 1, low, high):
            yield (first,) + rest


def vandermonde_decomposition(p: int, k: int) -> tuple[int, int]:
    """Both sides of the refinement identity, returned as (sum, total).

    The first entry sums ``fuss_narayana_number(k, j)`` over every index
    vector ``j`` of length ``p+1`` with entries in [1, k] and total
    ``p*k + 1``; the second is ``fuss_catalan(p, k)`` computed from the
    closed form.  The two must agree; returning both lets callers assert
    the equality rather than trust either formula alone.
    """
    p, k = _integer("vandermonde_decomposition", "p", p), _integer("vandermonde_decomposition", "k", k)
    if p < 1 or k < 1:
        raise ValueError(f"vandermonde_decomposition requires p >= 1 and k >= 1, got p={p}, k={k}")
    refined = sum(fuss_narayana_number(k, js) for js in _compositions(p * k + 1, p + 1, 1, k))
    return refined, fuss_catalan(p, k)


def limit_moment_poly(p: int, k: int) -> MultiPoly:
    """Limit moment polynomial of order k in the ratios d0..dp.

    Homogeneous of degree ``p*k``; the coefficient of
    ``d0^j0 * d1^j1 * ... * dp^jp`` is
    ``fuss_narayana_number(k, (j0+1, j1, ..., jp))``, supported on
    ``j0 in [0, k-1]`` and ``j_i in [1, k]`` with exponent total ``p*k``.
    Order 0 gives the constant 1.

    The term order is fixed: ``terms`` lists j0 ascending and, for each
    j0, the exponents ``(j1, ..., jp)`` in ascending lexicographic order.
    """
    p, k = _integer("limit_moment_poly", "p", p), _integer("limit_moment_poly", "k", k)
    if p < 1 or k < 0:
        raise ValueError(f"limit_moment_poly requires p >= 1 and k >= 0, got p={p}, k={k}")
    if k == 0:
        return MultiPoly.constant(p + 1, 1)
    # Every composition lies on the support of fuss_narayana_number, so the
    # coefficient is the row product of C(k, j) divided (checked) by k.
    row = [math.comb(k, j) for j in range(k + 1)]
    terms: dict[tuple[int, ...], int] = {}
    if p == 1:
        for j0 in range(k):
            terms[(j0, k - j0)] = _exact_div(row[j0 + 1] * row[k - j0], k)
        return MultiPoly._from_terms(2, terms)
    # Depth-first over exponent prefixes, smallest next exponent popped
    # first, so terms arrive in the documented order.  Each entry carries
    # the running product of its prefix, and the last two exponents come
    # as one (j, total - j) pair with the product of their binomials, so
    # each term costs one multiplication and one checked divmod.
    pair_tables: dict[int, list[tuple[tuple[int, int], int]]] = {}
    stack = [((j0,), row[j0 + 1], p * k - j0, p) for j0 in reversed(range(k))]
    while stack:
        head, product, total, parts = stack.pop()
        if parts > 2:
            rest = parts - 1
            firsts = range(min(k, total - rest), max(1, total - k * rest) - 1, -1)
            stack.extend((head + (j,), product * row[j], total - j, rest) for j in firsts)
            continue
        pairs = pair_tables.get(total)
        if pairs is None:
            pairs = pair_tables[total] = [
                ((j, total - j), row[j] * row[total - j])
                for j in range(max(1, total - k), min(k, total - 1) + 1)
            ]
        for tail, weight in pairs:
            quotient, remainder = divmod(product * weight, k)
            if remainder:
                raise ArithmeticError(f"{product * weight} is not divisible by {k}")
            terms[head + tail] = quotient
    return MultiPoly._from_terms(p + 1, terms)


def fuss_narayana_poly(p: int, k: int) -> MultiPoly:
    """Multivariate Fuss-Narayana polynomial of order k in t1..tp.

    Obtained from ``limit_moment_poly(p, k)`` by setting the first ratio
    to 1.  Its value at ``(t1, ..., tp)`` is the k-th moment of the free
    multiplicative convolution of Marchenko-Pastur laws with those shape
    parameters.

    P_k is homogeneous of degree ``p*k``, so dropping the d0 exponent maps
    its terms one to one; a collision raises ``ArithmeticError``.
    """
    p, k = _integer("fuss_narayana_poly", "p", p), _integer("fuss_narayana_poly", "k", k)
    full = limit_moment_poly(p, k).terms
    terms = {exps[1:]: coeff for exps, coeff in full.items()}
    if len(terms) != len(full):
        raise ArithmeticError(f"dropping d0 merged terms of P_{k} for p={p}")
    return MultiPoly._from_terms(p, terms)


def limit_moment_value(dims: Sequence, k: int) -> Fraction:
    """``limit_moment_poly(p, k)`` at the point ``dims``, without building it.

    ``dims`` holds the p+1 >= 2 coordinates d0..dp, each read as
    ``Fraction(d)``, which is exact for ints, Fractions and finite
    floats; a non-finite coordinate raises ``ValueError``.  With q the
    lcm of their denominators and a_i = q d_i, P_k is homogeneous of
    degree pk, so P_k(d) = c / (k q^(pk)) with

        c = [x^(pk+1)] F_0 F_1 ... F_p,
        F_0 = sum_{j=1..k} C(k, j) a_0^(j-1) x^j,
        F_i = sum_{j=1..k} C(k, j) a_i^j x^j  (i >= 1),

    the generating form of the coefficients of :func:`limit_moment_poly`.
    Nothing divides by d0, so d0 = 0 works.  The division by k is exact
    or raises ``ArithmeticError``.  The factors are multiplied in turn,
    each partial product kept only at the degrees from which the factors
    still to come, each of degree 1 to k, can reach pk+1; the last one
    adds a single coefficient.  O(p k^2) integer products.
    """
    k = _integer("limit_moment_value", "k", k)
    try:
        point = [Fraction(d) for d in dims]
    except (OverflowError, ValueError):
        raise ValueError(f"limit_moment_value requires finite coordinates, got {dims!r}") from None
    p = len(point) - 1
    if p < 1 or k < 0:
        raise ValueError(f"limit_moment_value requires p+1 >= 2 dims and k >= 0, got {len(point)} dims, k={k}")
    if k == 0:
        return Fraction(1)
    q = math.lcm(*(d.denominator for d in point))
    row = [math.comb(k, j) for j in range(k + 1)]
    # columns[i][j] = [x^j] F_i for j = 0..k, zero at j = 0
    columns = []
    for i, d in enumerate(point):
        base = d.numerator * (q // d.denominator)
        power, column = (base if i else 1), [0]
        for j in range(1, k + 1):
            column.append(row[j] * power)
            power *= base
        columns.append(column)
    target = p * k + 1
    # partial[n] = [x^n] F_0 ... F_(m-1) for lo <= n <= hi, zero below lo;
    # each sum pairs an ascending slice of partial with one of the column
    # reversed, [x^(n-t)] F_m at index k - n + t
    partial, lo, hi = columns[0], 1, k
    for m in range(1, p + 1):
        rest = p - m
        new_lo, new_hi = max(lo + 1, target - rest * k), min(hi + k, target - rest)
        reversed_column = columns[m][::-1]
        grown = [0] * new_lo
        for n in range(new_lo, new_hi + 1):
            first, last = max(lo, n - k), min(hi, n - 1)
            grown.append(sum(map(operator.mul, partial[first:last + 1],
                                 reversed_column[k - n + first:k - n + last + 1])))
        partial, lo, hi = grown, new_lo, new_hi
    return Fraction(_exact_div(partial[target], k), q ** (p * k))
