"""Marchenko-Pastur laws and their free multiplicative convolutions.

The law with shape parameter t > 0 has an atom of mass max(1-t, 0) at
the origin plus the density sqrt((b-x)(x-a)) / (2 pi x) on [a, b] with
a = (1-sqrt(t))^2 and b = (1+sqrt(t))^2.  Its S-transform is
1/(z + t), so the free multiplicative convolution of laws with shapes
t_1..t_p has S-transform prod_i 1/(z + t_i), and the moment generating
function psi(x) = sum_k m_k x^k satisfies

    psi = x * (psi + 1) * (psi + t_1) * ... * (psi + t_p).

Moments therefore come from the shared functional-equation solver with
the leading ratio pinned to 1.  Four independent routes are exposed:

* :func:`moments_by_series`, the series solver at the numeric dims;
* :func:`moments_by_lagrange`, univariate Lagrange inversion at the
  numeric dims, which the ``moments`` command uses: the dims are scaled
  to integers and A = prod_i (lambda + d_i) is expanded once per table,
  then Miller's power recurrence gives each order k in O(p k) integer
  products, so a table through order K costs O(p K^2);
* :func:`moments_by_closed_form`, the closed-form polynomials evaluated
  at the shapes;
* :func:`quadrature_moments`, numerical quadrature against the density
  itself (one factor only).

:func:`freeprob_suite`, ``verify --suite freeprob``, compares the routes
on ``FREEPROB_FIXTURES``.  :func:`s_transform_check` tests a moment table
it is given, there the series route's, against the product of
S-transforms.  Like the series solve, it runs on integers: with q the
lcm of the shapes' denominators, G_k = q^(pk+1) m_k is an integer for
the true moments, and the identity's residual R, scaled by q^(pK+1),
comes out in integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from scipy.integrate import quad

from .exact import fuss_narayana_poly
from .report import Report
from .series import _exact_quotient, _integer_dims, solve_functional_equation, truncated_mul


#: Relative error a quadrature moment's bound must certify.
REL_TOL = 1e-8


class QuadratureError(ArithmeticError):
    """Raised when numerical integration cannot certify the requested accuracy.

    An ``ArithmeticError``, so the command line reports it (exit code 2)
    without importing this module.
    """


def _as_shapes(shapes: Sequence, order: int) -> tuple[Fraction, ...]:
    """The shapes as positive Fractions, for a moment table through ``order`` >= 1."""
    out = tuple(Fraction(t) for t in shapes)
    if not out:
        raise ValueError("at least one shape parameter is required")
    if any(t <= 0 for t in out):
        raise ValueError(f"shape parameters must be positive, got {out}")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    return out


@dataclass(frozen=True)
class MpLaw:
    """One Marchenko-Pastur law, with exact shape parameter."""

    t: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "t", Fraction(self.t))
        if self.t <= 0:
            raise ValueError(f"shape parameter must be positive, got {self.t}")

    @property
    def atom_mass(self) -> Fraction:
        """Mass of the atom at the origin: max(1 - t, 0), exact."""
        return max(Fraction(1) - self.t, Fraction(0))

    @property
    def continuous_mass(self) -> Fraction:
        return Fraction(1) - self.atom_mass

    @property
    def support(self) -> tuple[float, float]:
        """Endpoints of the continuous part, (1 -+ sqrt(t))^2 as floats."""
        root = math.sqrt(self.t)
        return (1 - root) ** 2, (1 + root) ** 2

    def density(self, x: float) -> float:
        """Density of the continuous part at x (0 off support).

        The atom at the origin for t < 1 is not part of the density; see
        :attr:`atom_mass`.
        """
        a, b = self.support
        if x <= a or x >= b:
            return 0.0
        return math.sqrt((b - x) * (x - a)) / (2 * math.pi * x)

    def s_transform(self, z: Fraction) -> Fraction:
        """S-transform 1/(z + t), exact on rational arguments."""
        return 1 / (Fraction(z) + self.t)


@dataclass(frozen=True)
class MomentTable:
    """Moments m_1..m_K of a free multiplicative convolution, exact."""

    shapes: tuple[Fraction, ...]
    values: tuple[Fraction, ...]

    @property
    def max_order(self) -> int:
        return len(self.values)

    def moment(self, k: int) -> Fraction:
        """m_k for 0 <= k <= max_order (m_0 = 1)."""
        if k == 0:
            return Fraction(1)
        if not 1 <= k <= self.max_order:
            raise ValueError(f"moment order {k} outside computed range 1..{self.max_order}")
        return self.values[k - 1]


def moments_by_series(shapes: Sequence, order: int) -> MomentTable:
    """Moments from the psi functional equation, solved as a truncated series.

    Delegates to the generic solver with the leading ratio set to 1 and
    the remaining ratios set to the shape parameters; the x^k
    coefficient of the solution is exactly m_k.
    """
    ts = _as_shapes(shapes, order)
    g = solve_functional_equation(len(ts), order, dims=(Fraction(1),) + ts)
    return MomentTable(shapes=ts, values=tuple(g[1:]))


def moments_by_lagrange(shapes: Sequence, order: int) -> MomentTable:
    """Moments by univariate Lagrange inversion of the psi equation.

    m_k = (1/k) [lambda^(k-1)] prod_i (lambda + d_i)^k at d = (1, t_1,
    ..., t_p).  The table scales the dims to integers q d_i, expands
    A = prod_i (lambda + q d_i) once, runs Miller's power recurrence for
    each order and divides its integer by q^(pk+1), as the series solve
    does (:func:`~fussnarayana.series.solve_functional_equation`).
    """
    ts = _as_shapes(shapes, order)
    p = len(ts)
    q, ds = _integer_dims(p, (1,) + ts)
    # a[j] = [lambda^j] A
    a = [1]
    for d in ds:
        a = [d * kept + shifted for kept, shifted in zip(a + [0], [0] + a)]
    values = tuple(Fraction(_lagrange_integer(a, k), q ** (p * k + 1)) for k in range(1, order + 1))
    return MomentTable(shapes=ts, values=values)


def _lagrange_integer(a: Sequence[int], n: int) -> int:
    """``(1/n) [lambda^(n-1)] A^n`` from the coefficients ``a`` of A, by Miller's recurrence.

    a[0], the product of the scaled dims, is positive.  O(n deg A)
    integer products; every division is exact or raises
    ``ArithmeticError``.
    """
    # Miller's recurrence (Knuth, TAOCP vol. 2, 4.7) for b = A^n: reading
    # A b' = n A' b at lambda^(m-1) gives m a_0 b_m = sum_{j>=1}
    # ((n+1) j - m) a_j b_{m-j}, and b_m is an integer
    degree = len(a) - 1
    b = [a[0] ** n]
    for m in range(1, n):
        total = 0
        for j in range(1, min(m, degree) + 1):
            total += ((n + 1) * j - m) * a[j] * b[m - j]
        b.append(_exact_quotient(total, m * a[0]))
    return _exact_quotient(b[n - 1], n)


def moments_by_closed_form(shapes: Sequence, order: int) -> MomentTable:
    """Moments by direct evaluation of the closed-form moment polynomials."""
    ts = _as_shapes(shapes, order)
    values = tuple(fuss_narayana_poly(len(ts), k).evaluate(ts) for k in range(1, order + 1))
    return MomentTable(shapes=ts, values=values)


def s_transform_check(moments: MomentTable) -> Report:
    """Verify a moment table against the product of S-transforms.

    S(z) = prod_i 1/(z + t_i) says that psi has the compositional
    inverse z / D(z), D(z) = (z + 1) * prod_i (z + t_i), so psi(z/D) = z.
    With K = ``moments.max_order``, t_i the table's shapes and m_k its
    values, the check multiplies that identity through by D^K:

        R = D^K (psi(z/D) - z)
          = z D^(K-1) (m_1 - D) + sum_{k=2..K} m_k z^k D^(K-k),

    and tests R = 0 mod z^(K+1) coefficient by coefficient.
    D(0) = prod_i t_i is nonzero, so D^K is a unit among power series
    and this test holds exactly when psi(z/D) = z mod z^(K+1) does.

    The arithmetic is on integers.  With q the lcm of the shapes'
    denominators and a_i = q t_i, D~ = (z + 1) prod_i (q z + a_i) is
    q^p D, and G_k = q^(pk+1) m_k is an integer for the true moments
    (the homogeneity of :func:`~fussnarayana.series.solve_functional_equation`),
    so

        q^(pK+1) R = z D~^(K-1) (G_1 - q D~) + sum_{k=2..K} G_k z^k D~^(K-k),

    built by Horner's rule, R~ <- R~ * D~ + G_k z^k.  A moment whose
    G_k is not an integer is a wrong one; all G_k are then scaled by the
    lcm L of their denominators, so it is still checked exactly, and a
    reported coefficient is R~'s divided by L q^(pK+1), R's own.  Only
    exact moments can be checked: an entry that is neither an ``int`` nor
    a ``Fraction`` raises ``ValueError``.
    """
    order = moments.max_order
    if order < 2:
        raise ValueError(f"order must be >= 2 for a meaningful check, got {order}")
    ts = _as_shapes(moments.shapes, order)
    for k, m in enumerate(moments.values, 1):
        if not isinstance(m, (int, Fraction)):
            raise ValueError(f"moment m_{k} = {m!r} is neither an int nor a Fraction")
    p = len(ts)
    report = Report(name=f"s-transform p={p} order={order}")
    # a_i = q t_i; the leading dim 1 scales to q, which D~'s (z + 1) leaves out
    q, (_, *a) = _integer_dims(p, (1,) + ts)

    scaled = [m * q ** (p * k + 1) for k, m in enumerate(moments.values, 1)]
    lcm = math.lcm(*(g.denominator for g in scaled))
    big = [g.numerator * (lcm // g.denominator) for g in scaled]
    # D~ = (z + 1) * prod (q z + a_i), expanded in z to its degree p + 1
    denom = [1, 1]
    for c in a:
        denom = truncated_mul(denom, [c, q], len(denom), 0)
    # R~ = z L (G_1 - q D~), then one Horner step per further moment
    residual = truncated_mul([0, 1], [-lcm * q * c for c in denom], order, 0)
    residual[1] += big[0]
    for k in range(2, order + 1):
        residual = truncated_mul(residual, denom, order, 0)
        residual[k] += big[k - 1]
    scale = lcm * q ** (p * order + 1)
    for k in range(order + 1):
        report.tally(
            residual[k] == 0,
            lambda: f"coefficient {k}: R = D^K (psi(z/D) - z) has {Fraction(residual[k], scale)}, expected 0",
        )
    return report


def quadrature_moments(t, order: int) -> list[float]:
    """Moments m_1..m_order of one law by adaptive quadrature on its density.

    Uses the substitution x = (a + b)/2 + (b - a) sin(theta) / 2, under
    which sqrt((b - x)(x - a)) dx becomes (b - a)^2 cos^2(theta) / 4
    d(theta); the edge singularities disappear and the integrand is
    smooth, so the estimate comes with a tight error bound.  Raises
    :class:`QuadratureError` when the bound cannot certify ``REL_TOL``.
    """
    law = MpLaw(t)
    a, b = law.support
    t = float(law.t)
    if not 1 <= order <= 8:
        raise ValueError(f"order must lie in [1, 8], got {order}")
    center, half = (a + b) / 2, (b - a) / 2
    prefactor = (b - a) ** 2 / (8 * math.pi)

    out = []
    for k in range(1, order + 1):
        def integrand(theta: float, _k: int = k) -> float:
            x = center + half * math.sin(theta)
            return x ** (_k - 1) * math.cos(theta) ** 2

        value, bound = quad(integrand, -math.pi / 2, math.pi / 2,
                            epsabs=1e-14, epsrel=1e-12, limit=200)
        moment = prefactor * value
        if bound * prefactor > REL_TOL * abs(moment):
            raise QuadratureError(
                f"moment {k} at t={t}: error bound {bound * prefactor:.3e} "
                f"exceeds {REL_TOL:.1e} * {abs(moment):.6e}"
            )
        out.append(moment)
    return out


#: The shape tuples of :func:`freeprob_suite`.
FREEPROB_FIXTURES = (
    (Fraction(1),), (Fraction(2),), (Fraction(1, 2),),
    (Fraction(1), Fraction(1)), (Fraction(2), Fraction(3)),
    (Fraction(1, 2), Fraction(3), Fraction(5, 7)),
    (Fraction(1), Fraction(1), Fraction(1), Fraction(4, 3)),
)


def freeprob_suite(budget: int, k_max: int | None = None) -> list[Report]:
    """``verify --suite freeprob``: every route on the fixtures; no route reads ``budget``."""
    k_max = 6 if k_max is None else k_max
    if k_max < 2:
        raise ValueError(f"verify --suite freeprob needs --k-max >= 2, got {k_max}")
    report = Report(name=f"free convolution k<={k_max}")
    closed = {}
    for shapes in FREEPROB_FIXTURES:
        by_series = moments_by_series(shapes, k_max)
        by_closed = closed[shapes] = moments_by_closed_form(shapes, k_max)
        report.tally(by_series.values == by_closed.values,
                     f"shapes {shapes}: series and closed-form moments disagree")
        inner = s_transform_check(MomentTable(by_series.shapes, by_series.values[:6]))
        report.checks += inner.checks
        report.mismatches += [f"shapes {shapes}: {m}" for m in inner.mismatches]
    # the one-factor fixtures' tables, reused for the quadrature orders
    for t in (Fraction(1, 2), Fraction(1), Fraction(2)):
        numeric = quadrature_moments(t, min(k_max, 8))
        for k, estimate in enumerate(numeric, start=1):
            target = float(closed[(t,)].moment(k))
            report.tally(abs(estimate - target) <= 1e-8 * max(1.0, abs(target)),
                         f"t={t} k={k}: quadrature {estimate!r} vs exact {target!r}")
    return [report]
