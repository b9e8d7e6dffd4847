"""Truncated power series, computed one coefficient at a time.

The kernel works on coefficient lists ``c[0..K]``, standing for
``c_0 + c_1 x + ... + c_K x^K + O(x^{K+1})``, over any ring whose
elements can be multiplied and added.  Its operation is the product
coefficient ``[x^n] (a * b)`` from the coefficients stored so far
(:func:`product_coefficient`, and :func:`truncated_mul` for a whole
truncated product), so a coefficient that depends only on lower ones is
computed once, in increasing order (Brent and Kung, J. ACM 25, 1978).
A square ``[x^n] (a * a)`` has its own coefficient,
:func:`square_coefficient`, which multiplies each unordered pair once.
These two functions alone decide which index pairs form ``[x^n]``; a
ring supplies only its multiply-accumulate ``add_product(total, a, b)``.
The default, ``total + a * b``, serves Python ints, exact rationals and
:class:`~fussnarayana.poly.MultiPoly`; packed-key term dicts pass
:func:`fussnarayana._packed.add_product`, which adds every pair product
into one dict.  The rings in use:

* packed-key term dicts: the symbolic series solve, and the interval
  counter of :mod:`fussnarayana.partitions` for profile histograms,
  whose accumulate also multiplies by the monomial of a block's
  profile slot;
* Python ints: the solve at integer-scaled rational d_i, the
  S-transform check of :mod:`fussnarayana.freeprob`, and the interval
  counter for plain counts (``partitions.count_adapted``);
* ``MultiPoly``: Lagrange inversion and the lemma sweep's product
  decomposition.

Two routes to the moment generating series live here.  Only the first is
independent of the closed form in :mod:`fussnarayana.exact`: with
symbolic d_i, ``[lambda^{n-1}] prod_i (lambda + d_i)^n`` expands term by
term into ``prod_i C(n, m_i) d_i^{n - m_i}`` summed over
``m_0 + ... + m_p = n - 1``, the closed form's own binomial products, so
Lagrange inversion agreeing with the closed form checks the truncated
products, not the theorem.

* ``solve_functional_equation`` solves ``g = x * prod_i (g + d_i)``.
  The product is ``sum_j e_{p+1-j} g^j``, e_m the m-th elementary
  symmetric polynomial of the d_i, so
  ``g_{n+1} = e_{p+1} [n = 0] + sum_{j=1..p+1} e_{p+1-j} [x^n] g^j``.
  Each power is extended by one coefficient per order,
  ``[x^n] g^j = sum_m g_m [x^{n-m}] g^{j-1}``, and ``[x^n] g^2`` by
  :func:`square_coefficient`, which multiplies each unordered pair
  g_m g_{n-m} once.  Through x^K that is p - 1/2 convolutions of n
  coefficient products per order n, O(p K^2) in all.
  One loop, :func:`_series`, takes the e_m in any ring.  With symbolic
  d_i it runs on packed-key term dicts (:mod:`fussnarayana._packed`)
  over the indeterminates e_1..e_{p+1}, not d_0..d_p, accumulated by
  ``_packed.add_product``.  That is exact: the e_m are algebraically
  independent, and g_n, symmetric in the d_i, is a polynomial in them
  (Stanley, EC2, Thm 7.4.4).  It has far fewer terms: through
  (p, K) = (4, 14) g and its powers store 660 terms, against 19 228 in
  d_0..d_4, and g_20 at p = 3 has 94 against 1540.  The orders come as
  :class:`fussnarayana._packed.Orders`, which reads an order the first
  time it is indexed, with the reader :func:`_decoder` builds: it
  substitutes e_m by the elementary polynomial of the d_i and unpacks
  the result to a ``MultiPoly``.
  With rational d_i the loop runs on Python ints with the default
  accumulate (:func:`_solve`): g_n is homogeneous of degree pn + 1 in
  the d_i, so the solver scales the d_i by the lcm q of their
  denominators, solves over the integers and divides g_n by q^{pn+1}
  once, in one ``Fraction`` per order.

* ``lagrange_coefficient`` extracts the same coefficient via Lagrange
  inversion: the x^n coefficient of the solution equals
  ``(1/n) [lambda^{n-1}] prod_i (lambda + d_i)^n``.  It takes symbolic
  d_i only and multiplies the factors as ``MultiPoly`` series truncated
  above lambda^{n-1}, O(p n^2) coefficient products.  It stays off the
  packed ring, so it checks that ring independently.  Lagrange inversion
  at rational d_i is :func:`fussnarayana.freeprob.moments_by_lagrange`,
  which runs Miller's power recurrence on integers.

Both produce the order-k moment polynomial multiplied by d0.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from fractions import Fraction

from . import _packed
from .poly import MultiPoly


def _add_product(total, a, b):
    """The default multiply-accumulate, ``total + a * b``; ``None`` is the empty sum."""
    return a * b if total is None else total + a * b


def product_coefficient(a: Sequence, b: Sequence, n: int, zero, add_product=_add_product):
    """``[x^n] (a * b)`` from the coefficients stored in ``a`` and ``b``, added into ``zero``.

    Only index pairs inside both sequences contribute, so a series whose
    coefficients are still being computed takes part with those it has.
    Zero coefficients are skipped.  ``add_product(total, a_i, b_j)``, the
    ring's multiply-accumulate, returns the total with a_i b_j added.
    """
    total = zero
    for i in range(max(0, n - len(b) + 1), min(n, len(a) - 1) + 1):
        a_i, b_j = a[i], b[n - i]
        if a_i and b_j:
            total = add_product(total, a_i, b_j)
    return total


def truncated_mul(a: Sequence, b: Sequence, order: int, zero) -> list:
    """Coefficients 0..order of the product a * b."""
    return [product_coefficient(a, b, n, zero) for n in range(order + 1)]


def square_coefficient(a: Sequence, n: int, zero, add_product=_add_product, two=2):
    """``[x^n] (a * a)`` from the coefficients stored in ``a``, added into ``zero``.

    The product is symmetric, so each unordered pair a_i a_{n-i}, i < n - i,
    is multiplied once into a pair sum, added in times ``two``, the ring's
    2; the middle square a_{n/2}^2 of an even n is added once.  Half the
    pair products of :func:`product_coefficient`, and the same value.  The
    pair sum starts as ``None``, the empty sum, which ``add_product`` takes.
    """
    pairs = None
    for i in range(max(0, n - len(a) + 1), (n + 1) // 2):
        a_i, a_j = a[i], a[n - i]
        if a_i and a_j:
            pairs = add_product(pairs, a_i, a_j)
    total = zero if pairs is None else add_product(zero, pairs, two)
    if n % 2 == 0 and n // 2 < len(a) and a[n // 2]:
        total = add_product(total, a[n // 2], a[n // 2])
    return total


def _elementary(ds: Sequence, one, zero, add_product) -> list:
    """``e[m] = e_m(d)``, m = 0..p+1: the coefficients of prod_i (1 + d_i t), in the solve's ring."""
    e = [one]
    for d in ds:
        e = [product_coefficient(e, [one, d], m, zero(), add_product) for m in range(len(e) + 1)]
    return e


def _solve(ds: Sequence, one, order: int, zero, add_product=_add_product) -> list:
    """g[0..order] of g = x * prod_i (g + d_i) at the dims ``ds``, in one ring.

    The ring is its ``one``, a factory ``zero()`` of its zero and its
    multiply-accumulate ``add_product``; :func:`_series` runs on the
    elementary symmetric polynomials of ``ds``.
    """
    return _series(_elementary(ds, one, zero, add_product), one, order, zero, add_product)


def _series(e: Sequence, one, order: int, zero, add_product) -> list:
    """g[0..order] of g = x * sum_j e[p+1-j] g^j, e[0..p+1] given in one ring.

    :func:`product_coefficient` and :func:`square_coefficient` run on the
    ring's ``add_product``; its 2 is ``one*one + one*one``.
    """
    p = len(e) - 2
    two = add_product(add_product(None, one, one), one, one)
    g = [zero()]
    # power[j][n] = [x^n] g^j, filled one order at a time; power[0] is the series 1
    power = [[one] + [zero() for _ in range(order)], g] + [[] for _ in range(p)]
    for n in range(order):
        power[2].append(square_coefficient(g, n, zero(), add_product, two))
        for j in range(3, p + 2):
            power[j].append(product_coefficient(g, power[j - 1], n, zero(), add_product))
        # g_{n+1} = sum_j e_{p+1-j} [x^n] g^j
        g.append(product_coefficient(e, [row[n] for row in power], p + 1, zero(), add_product))
    return g


def _horner(terms: dict, e: Sequence, level: int, radix: int) -> dict[int, int]:
    """``sum_a c_a e_1^a_1 ... e_level^a_level``, each c_a a packed d-dict.

    ``terms`` maps the packed key of (a_1, ..., a_level), radix ``radix``,
    to c_a.  Horner in e_level outermost, over the digit a_level, each
    coefficient the same sum one level down: e_1 innermost.
    """
    if level == 0:
        return terms[0]
    unit = radix ** (level - 1)
    inner = {}
    for key, c in terms.items():
        digit, rest = divmod(key, unit)
        inner.setdefault(digit, {})[rest] = c
    e_level, acc = e[level], {}
    for digit in range(max(inner), -1, -1):
        below = _horner(inner[digit], e, level - 1, radix) if digit in inner else {}
        # acc * e_level + below, added into below's fresh dict
        acc = _packed.add_product(below, acc, e_level) if acc else below
    return acc


def _decoder(p: int, radix: int):
    """The map from a packed e-dict of the symbolic solve to its ``MultiPoly`` in d_0..d_p.

    Substitutes e_m by the m-th elementary symmetric polynomial of
    d_0..d_p, built once from :func:`_elementary` over the packed d units.
    e_{p+1} = d_0 ... d_p is one monomial, so its power is a shift of the
    key, and an absent e_{p+1} reads as zero; e_1..e_p go by
    :func:`_horner`, e_p outermost.  Every stored term holds e_{p+1}:
    g_0 is empty, g_1 = e_{p+1}, and a term of g_{n+1}, n >= 1, is
    e_{p+1-j} times a product of j >= 1 terms of earlier orders.  The
    packed d-dict is then unpacked with :func:`_packed.unpack`.
    """
    e = _elementary([{unit: 1} for unit in _packed.units(p + 1, radix)], {0: 1}, dict,
                    _packed.add_product)
    top = list(e[p + 1]) if len(e) > p + 1 else []
    slot = radix**p

    def decode(terms: dict[int, int]) -> MultiPoly:
        leaves = {}
        for key, c in terms.items():
            power, rest = divmod(key, slot)
            if top:
                leaves[rest] = {power * top[0]: c}
        return _packed.unpack(p + 1, radix, _horner(leaves, e, p, radix) if leaves else {})

    return decode


def _integer(function: str, name: str, value) -> int:
    """``value`` read with ``operator.index``; a non-integer raises ``ValueError`` naming it."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{function} requires an integer {name}, got {name}={value!r}") from None


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
) -> _packed.Orders | list[Fraction]:
    """Solve g = x * (g + d0) * (g + d1) * ... * (g + dp) to the given order.

    Returns the coefficients ``g[0..order]``.  With ``dims`` omitted the
    d_i are symbolic and ``g[k]`` is the order-k limit moment polynomial
    times d0, in ``p+1`` variables.  The solve runs over e_1..e_{p+1},
    and the orders come as a :class:`~fussnarayana._packed.Orders` whose
    reader, :func:`_decoder`, returns an order's ``MultiPoly`` in the d_i
    the first time the order is read; it equals the list of them.
    With ``dims`` given (p+1 exact rationals) the same recurrence runs on
    the integer dims ``q * d_i``, q the lcm of their denominators, and the
    result is a list whose ``g[k]`` is the integer result divided by
    ``q**(p*k + 1)``, a ``Fraction``.

    The product is ``sum_j e_{p+1-j} g^j``, e_m the m-th elementary
    symmetric polynomial of the d_i, so ``g_{n+1} = e_{p+1} [n = 0] +
    sum_{j=1..p+1} e_{p+1-j} [x^n] g^j``.  Each coefficient of g and of
    its powers g^2, ..., g^(p+1) is computed once, in increasing order,
    so the result is exact through x^order: g^2 by the symmetric square,
    each higher power as g times the one below, O(p order^2) coefficient
    products in all.
    """
    p = _integer("solve_functional_equation", "p", p)
    order = _integer("solve_functional_equation", "order", order)
    if p < 1 or order < 0:
        raise ValueError(f"need p >= 1 and order >= 0, got p={p}, order={order}")
    if dims is None:
        # Radix order + 1 packs every monomial stored, in the e_m and in
        # the d_i, because no exponent exceeds the order.  By induction a
        # term of g_m has total e-degree at most m: a term of [x^n] g^j is
        # a product of terms of coefficients g_m whose m sum to n, so its
        # degree is at most n, and e_{p+1-j} adds at most 1: g_{n+1} has
        # degree at most n + 1.  The loop stops at n = order - 1.  Each
        # e_m is multilinear in the d_i, so a product of at most n of them
        # has d-exponents at most n too, the decode's partial sums among
        # them.  At p = 1, d0 * d1^order in g[order] meets the bound, so
        # the radix is tight.
        radix = order + 1
        e = [{0: 1}] + [{unit: 1} for unit in _packed.units(p + 1, radix)]
        g = _series(e, {0: 1}, order, dict, _packed.add_product)
        return _packed.Orders(g, _decoder(p, radix))
    # Homogeneity: if g(x) solves the equation at d, then h(x) = q g(q^p x)
    # solves it at q d, since x prod_i (h + q d_i) = q^{p+1} x prod_i
    # (g(q^p x) + d_i) = q g(q^p x), the last step being the equation at
    # q^p x.  So G_n = g_n(q d) = q^{pn+1} g_n(d), and with q the lcm of
    # the denominators the loop sees only ints.
    q, ds = _integer_dims(p, dims)
    big = _solve(ds, 1, order, int)
    return [Fraction(coefficient, q ** (p * n + 1)) for n, coefficient in enumerate(big)]


def lagrange_coefficient(p: int, n: int) -> MultiPoly:
    """x^n coefficient of the symbolic functional-equation solution, via inversion.

    Computes (1/n) [lambda^(n-1)] prod_{i=0..p} (lambda + d_i)^n in the
    p+1 variables d_i, the ``MultiPoly`` that
    :func:`solve_functional_equation` returns at order n with ``dims``
    omitted.  It multiplies the factors truncated above lambda^(n-1),
    O(p n^2) products of ``MultiPoly`` coefficients; the coefficients of
    each factor, C(n, m) d_i^(n-m), are built as one-term polynomials,
    without a product or a power.  The division by n is exact or raises
    ``ArithmeticError``.
    """
    p, n = _integer("lagrange_coefficient", "p", p), _integer("lagrange_coefficient", "n", n)
    if p < 1 or n < 1:
        raise ValueError(f"need p >= 1 and n >= 1, got p={p}, n={n}")
    zero = MultiPoly(p + 1)
    # (lambda + d_i)^n truncated above lambda^(n-1): C(n, m) d_i^(n-m) at lambda^m
    factors = [[MultiPoly._from_terms(p + 1, {(0,) * i + (n - m,) + (0,) * (p - i): math.comb(n, m)})
                for m in range(n)] for i in range(p + 1)]
    acc = factors[0]
    for factor in factors[1:-1]:
        acc = truncated_mul(acc, factor, n - 1, zero)
    top = product_coefficient(acc, factors[-1], n - 1, zero)
    quotients = {exps: _exact_quotient(c, n) for exps, c in top.terms.items()}
    return MultiPoly._from_terms(p + 1, quotients)
