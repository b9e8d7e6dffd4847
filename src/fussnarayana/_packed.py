"""Polynomials on packed monomial keys (Kronecker substitution).

A monomial d_0^e_0 ... d_{n-1}^e_{n-1} whose exponents all lie below
``radix`` is stored as the one int ``sum(e_s * radix**s)``, slot s being
the digit of ``radix**s``.  Multiplying monomials is then adding ints,
with no tuple built per product.  Terms are a ``dict[int, int]`` from
packed key to coefficient.  The packing is exact only while no exponent
reaches the radix, so each caller derives its radix from a bound on a
single exponent of everything it stores, and :func:`unpack` turns the
result into a :class:`~fussnarayana.poly.MultiPoly` once at the end.

The series solver runs the one truncated-series kernel of
:mod:`fussnarayana.series` on these dicts, with :func:`add_product` as
the ring's multiply-accumulate; the interval counter of ``partitions``
calls :func:`add_product` directly.  The closed form, the brute listing
and Lagrange inversion stay on ``MultiPoly`` on purpose, so a packing
bug shows up as a disagreement between routes.
"""

from __future__ import annotations

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
    total: dict[int, int] | None, a: dict[int, int], b: dict[int, int], shift: int = 0
) -> dict[int, int]:
    """Add ``a * b``, times the monomial with packed key ``shift``, into ``total``.

    Every pair product of terms goes straight into the one dict, so no
    polynomial is built for the product.  Returns ``total``, a new dict
    if it is ``None``, the empty sum.
    """
    if total is None:
        total = {}
    get = total.get
    b_items = b.items()
    for key_a, c_a in a.items():
        key_a += shift
        for key_b, c_b in b_items:
            key = key_a + key_b
            total[key] = get(key, 0) + c_a * c_b
    return total
