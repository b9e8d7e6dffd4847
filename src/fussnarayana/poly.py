"""Sparse multivariate polynomials with integer coefficients.

A polynomial in ``n`` variables is stored as a mapping from exponent
vectors (length-``n`` tuples of nonnegative ints) to nonzero Python
``int`` coefficients: the polynomial ring over the integers.  Every
polynomial the package builds lies in it, since a coefficient of a
moment polynomial is a Fuss-Narayana number and a coefficient of a
profile histogram is a count.  The constructor reads coefficients, as
it reads exponents, with :func:`operator.index`, so a ``Fraction`` or a
float coefficient raises.  The zero polynomial keeps no terms.
Arithmetic never leaves the integers, and evaluation is exact: at int,
``Fraction`` and float points alike it returns a ``Fraction``.

Serialization uses a canonical term order, descending lexicographic on
the exponent vector, so equal polynomials always render identically.
"""

from __future__ import annotations

import operator
from collections.abc import Mapping, Sequence
from fractions import Fraction


class MultiPoly:
    """Immutable sparse polynomial over the integers.

    Instances should be treated as frozen: all operations return new
    polynomials.  Two polynomials compare equal iff they have the same
    number of variables and equal term maps.  The constructor checks
    and normalizes its input (exponents to int tuples, coefficients to
    int; anything ``operator.index`` rejects raises ``ValueError``).
    Results of the ring operations are built from terms this module
    already made clean, so they skip those checks.
    """

    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars: int, terms: Mapping[Sequence[int], int] | None = None):
        if num_vars < 0:
            raise ValueError("num_vars must be nonnegative")
        clean: dict[tuple[int, ...], int] = {}
        for exps, coeff in (terms or {}).items():
            try:
                key = tuple(map(operator.index, exps))
            except TypeError:
                raise ValueError(f"non-integral exponent in {exps!r}") from None
            if len(key) != num_vars:
                raise ValueError(f"exponent vector {key} does not have {num_vars} entries")
            if key and min(key) < 0:
                raise ValueError(f"negative exponent in {key}")
            try:
                coeff = operator.index(coeff)
            except TypeError:
                raise ValueError(f"non-integral coefficient {coeff!r} at {key}") from None
            if coeff:
                clean[key] = coeff
        self.num_vars = num_vars
        self.terms = clean

    @classmethod
    def _from_terms(cls, num_vars: int, terms: dict) -> "MultiPoly":
        """Wrap terms with clean keys and int values, taking ownership.

        The dict becomes the polynomial's own, so callers pass one they have
        just built and do not touch again; zero coefficients are dropped
        from it in place.
        """
        if 0 in terms.values():
            for exps in [e for e, c in terms.items() if not c]:
                del terms[exps]
        poly = object.__new__(cls)
        poly.num_vars = num_vars
        poly.terms = terms
        return poly

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, num_vars: int, value: int) -> "MultiPoly":
        return cls(num_vars, {(0,) * num_vars: value})

    @classmethod
    def variable(cls, num_vars: int, index: int) -> "MultiPoly":
        """The monomial x_index in a ring with num_vars variables."""
        if not 0 <= index < num_vars:
            raise ValueError(f"variable index {index} out of range for {num_vars} variables")
        exps = tuple(1 if i == index else 0 for i in range(num_vars))
        return cls._from_terms(num_vars, {exps: 1})

    # -- predicates and views ----------------------------------------------

    def __bool__(self) -> bool:
        """False exactly for the zero polynomial, as for numbers."""
        return bool(self.terms)

    def canonical_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms in descending lexicographic order of exponent vector.

        The exponent vectors are distinct keys, so sorting the (exponents,
        coefficient) pairs never compares two coefficients.
        """
        return sorted(self.terms.items(), reverse=True)

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other) -> "MultiPoly | None":
        if isinstance(other, MultiPoly):
            if other.num_vars != self.num_vars:
                raise ValueError(
                    f"operands have {self.num_vars} and {other.num_vars} variables"
                )
            return other
        if isinstance(other, int):
            return MultiPoly.constant(self.num_vars, other)
        return None

    def __add__(self, other) -> "MultiPoly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        acc = dict(self.terms)
        for exps, coeff in rhs.terms.items():
            acc[exps] = acc.get(exps, 0) + coeff
        return MultiPoly._from_terms(self.num_vars, acc)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._from_terms(self.num_vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __mul__(self, other) -> "MultiPoly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        acc: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in rhs.terms.items():
                key = tuple(map(operator.add, e1, e2))
                acc[key] = acc.get(key, 0) + c1 * c2
        return MultiPoly._from_terms(self.num_vars, acc)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "MultiPoly":
        """Repeated squaring, the same for every base.

        The exponent is read with ``operator.index``, so a float or a
        string raises ``ValueError``, as a negative exponent does.
        """
        try:
            exponent = operator.index(exponent)
        except TypeError:
            raise ValueError(f"non-integral exponent {exponent!r}") from None
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.constant(self.num_vars, 1)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.num_vars == other.num_vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.num_vars, frozenset(self.terms.items())))

    # -- substitution and evaluation -----------------------------------------

    def evaluate(self, values: Sequence) -> Fraction:
        """The exact value at a point, as a ``Fraction``.

        Each coordinate is read as ``Fraction(v)``, which is exact for
        ints, Fractions and finite floats, so at a float point the result
        is the polynomial's exact value there and ``float()`` of it is
        correctly rounded.  The sum runs over Python ints and one Fraction
        is built at the end.  With ``D_i`` the top exponent of variable i,
        coordinate ``num_i/den_i`` enters through the table
        ``num_i**j * den_i**(D_i - j)``.  Terms are grouped by their
        exponents in all but the last variable: each term adds one
        product, coefficient times last-variable table entry, to its
        group, and each group is then multiplied by its other table
        entries once.
        """
        if len(values) != self.num_vars:
            raise ValueError(f"expected {self.num_vars} values, got {len(values)}")
        if not self.terms:
            return Fraction(0)
        if not self.num_vars:
            return Fraction(self.terms[()])
        denominator = 1
        tables = []
        for v, top in zip(map(Fraction, values), map(max, zip(*self.terms))):
            num, den = v.numerator, v.denominator
            tables.append([num**j * den ** (top - j) for j in range(top + 1)])
            denominator *= den**top
        *head_tables, last = tables
        groups: dict[tuple[int, ...], int] = {}
        get = groups.get
        for exps, coeff in self.terms.items():
            head = exps[:-1]
            groups[head] = get(head, 0) + coeff * last[exps[-1]]
        total = 0
        for head, partial in groups.items():
            for table, e in zip(head_tables, head):
                partial *= table[e]
            total += partial
        return Fraction(total, denominator)

    def substitute(self, index: int, value: int) -> "MultiPoly":
        """Replace one variable by an integer; the result drops that slot.

        The value is read with ``operator.index``, so a ``Fraction`` or a
        float raises ``ValueError``.  Each power of the value that occurs
        is computed once.
        """
        if not 0 <= index < self.num_vars:
            raise ValueError(f"variable index {index} out of range")
        try:
            value = operator.index(value)
        except TypeError:
            raise ValueError(f"non-integral value {value!r}") from None
        powers = {e: value**e for e in {exps[index] for exps in self.terms}}
        acc: dict[tuple[int, ...], int] = {}
        for exps, coeff in self.terms.items():
            key = exps[:index] + exps[index + 1 :]
            acc[key] = acc.get(key, 0) + coeff * powers[exps[index]]
        return MultiPoly._from_terms(self.num_vars - 1, acc)

    def divide_by_variable(self, index: int) -> "MultiPoly":
        """Exact division by x_index; every term must contain that variable."""
        if not 0 <= index < self.num_vars:
            raise ValueError(f"variable index {index} out of range")
        acc = {}
        for exps, coeff in self.terms.items():
            if exps[index] < 1:
                raise ValueError(f"term {exps} has no factor of variable {index}")
            acc[exps[:index] + (exps[index] - 1,) + exps[index + 1 :]] = coeff
        return MultiPoly._from_terms(self.num_vars, acc)

    # -- rendering -----------------------------------------------------------

    def to_json_dict(self, var_names: Sequence[str]) -> dict:
        """Canonical JSON form: variable names plus descending-lex term list."""
        if len(var_names) != self.num_vars:
            raise ValueError("one name per variable is required")
        return {
            "vars": list(var_names),
            "terms": [
                {"exponents": list(exps), "coeff": str(coeff)}
                for exps, coeff in self.canonical_terms()
            ],
        }

    def to_string(self, var_names: Sequence[str] | None = None) -> str:
        if not self.terms:
            return "0"
        names = list(var_names) if var_names else [f"x{i}" for i in range(self.num_vars)]
        chunks = []
        for exps, coeff in self.canonical_terms():
            factors = []
            if coeff != 1 or not any(exps):
                factors.append(str(coeff))
            for name, e in zip(names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            chunks.append("*".join(factors))
        return " + ".join(chunks)

    def __repr__(self) -> str:
        return f"MultiPoly({self.num_vars}, {self.to_string()!r})"
