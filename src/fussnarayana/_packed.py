"""Polynomials on packed monomial keys (Kronecker substitution).

A monomial d_0^e_0 ... d_{n-1}^e_{n-1} whose exponents all lie below
``radix`` is stored as the one int ``sum(e_s * radix**s)``, slot s being
the digit of ``radix**s``.  Multiplying monomials is then adding ints,
with no tuple built per product.  Terms are a ``dict[int, int]`` from
packed key to coefficient.  The packing is exact only while no exponent
reaches the radix, so each caller derives its radix from a bound on a
single exponent of everything it stores, and :func:`unpack` turns the
result into a :class:`~fussnarayana.poly.MultiPoly` once at the end.

The series solver and the interval counter of ``partitions`` run on
this.  The closed form, the brute listing and Lagrange inversion stay on
``MultiPoly`` on purpose, so a packing bug shows up as a disagreement
between routes.
"""

from __future__ import annotations

from collections.abc import Sequence

from .poly import MultiPoly


def units(num_vars: int, radix: int) -> list[int]:
    """Packed key of each variable: d_s is ``radix**s``."""
    return [radix**s for s in range(num_vars)]


def unpack(num_vars: int, radix: int, terms: dict[int, int]) -> MultiPoly:
    """The polynomial whose packed terms are ``terms``; zero coefficients are dropped."""
    clean = {}
    for key, coeff in terms.items():
        exps = []
        for _ in range(num_vars):
            key, digit = divmod(key, radix)
            exps.append(digit)
        clean[tuple(exps)] = coeff
    return MultiPoly._from_terms(num_vars, clean)


def add_product(
    total: dict[int, int], a: dict[int, int], b: dict[int, int], shift: int = 0
) -> dict[int, int]:
    """Add ``a * b``, times the monomial with packed key ``shift``, into ``total``.

    Every pair product of terms goes straight into the one dict, so no
    polynomial is built for the product.  Returns ``total``.
    """
    get = total.get
    b_items = b.items()
    for key_a, c_a in a.items():
        key_a += shift
        for key_b, c_b in b_items:
            key = key_a + key_b
            total[key] = get(key, 0) + c_a * c_b
    return total


def product_coefficient(
    a: Sequence[dict[int, int]], b: Sequence[dict[int, int]], n: int, total: dict[int, int]
) -> dict[int, int]:
    """Add ``[x^n] (a * b)`` into ``total`` and return it.

    ``a`` and ``b`` are series with packed-term coefficients; as in
    :func:`fussnarayana.series.product_coefficient`, only index pairs
    inside both sequences contribute.  All pairs add into ``total``, so
    no polynomial is built per index pair.
    """
    for i in range(max(0, n - len(b) + 1), min(n, len(a) - 1) + 1):
        add_product(total, a[i], b[n - i])
    return total


def square_coefficient(a: Sequence[dict[int, int]], n: int, total: dict[int, int]) -> dict[int, int]:
    """Add ``[x^n] (a * a)`` into ``total`` and return it.

    As :func:`fussnarayana.series.square_coefficient`: each unordered pair
    a_i a_{n-i}, i < n - i, adds once into one dict, whose sum is doubled
    into ``total``, and the middle square of an even n adds once.
    """
    pairs: dict[int, int] = {}
    for i in range(max(0, n - len(a) + 1), (n + 1) // 2):
        add_product(pairs, a[i], a[n - i])
    get = total.get
    for key, c in pairs.items():
        total[key] = get(key, 0) + 2 * c
    if n % 2 == 0 and n // 2 < len(a):
        add_product(total, a[n // 2], a[n // 2])
    return total
