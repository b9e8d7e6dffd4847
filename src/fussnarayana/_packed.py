"""Polynomials on packed monomial keys (Kronecker substitution).

A monomial d_0^e_0 ... d_{n-1}^e_{n-1} whose exponents all lie below
``radix`` is stored as the one int ``sum(e_s * radix**s)``, slot s being
the digit of ``radix**s``.  Multiplying monomials is then adding ints,
with no tuple built per product.  Terms are a ``dict[int, int]`` from
packed key to coefficient.  The packing is exact only while no exponent
reaches the radix, so each caller derives its radix from a bound on a
single exponent of everything it stores.  A route returns its orders
as :class:`Orders`, which keeps each order packed until it is read and
then turns it into a :class:`~fussnarayana.poly.MultiPoly` with
:func:`unpack`, so a caller that reads one order unpacks one.  A route
that stores its orders in other indeterminates passes a decode, run on
an order's first read before it is unpacked: the series solve stores
them in e_1..e_{p+1} and decodes them into d_0..d_p.

The series solver and the interval counter of ``partitions`` run the
one truncated-series kernel of :mod:`fussnarayana.series` on these
dicts, with :func:`add_product` as the ring's multiply-accumulate; the
counter's is shifted by the monomial of a block's profile slot.  The
counter's plain counts run on Python ints instead.  The closed form,
the brute listing and Lagrange inversion stay on ``MultiPoly`` on
purpose, so a packing bug shows up as a disagreement between routes.
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


class Orders:
    """Read-only sequence of a route's orders 0..k, each unpacked when first read.

    Holds the packed term dicts of one ``(num_vars, radix)`` packing, or
    of the route's own packing when it passes ``decode``, the map from
    one of its dicts to the packed dict in the ``num_vars`` variables.
    Indexing order j decodes it and unpacks it with :func:`unpack` the
    first time and keeps the ``MultiPoly`` in its place, so a second read
    returns the same object and runs neither.  Supports ``len``,
    iteration, negative indices and slices (a slice is a list), and
    equals a list of ``MultiPoly`` with the same entries, whichever side
    of ``==`` the list is on.
    """

    __slots__ = ("num_vars", "radix", "_orders", "_decode")

    def __init__(self, num_vars: int, radix: int, orders: list[dict[int, int]], decode=None):
        self.num_vars = num_vars
        self.radix = radix
        self._orders = orders
        self._decode = decode

    def __len__(self) -> int:
        return len(self._orders)

    def __getitem__(self, index):
        if type(index) is slice:
            return [self[j] for j in range(*index.indices(len(self._orders)))]
        order = self._orders[index]
        if type(order) is dict:
            if self._decode is not None:
                order = self._decode(order)
            order = self._orders[index] = unpack(self.num_vars, self.radix, order)
        return order

    def __iter__(self):
        return map(self.__getitem__, range(len(self._orders)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (list, Orders)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"Orders({list(self)!r})"
