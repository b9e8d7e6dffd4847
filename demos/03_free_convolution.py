#!/usr/bin/env python3
"""Moments of a free multiplicative convolution, checked against quadrature.

Builds the product of Marchenko-Pastur laws with shape parameters
(1, 1/2, 2), computes its moments exactly by two routes, checks the
series route's moments against the S-transform identity
S(z) = prod_i 1/(z + t_i), and then integrates the single-factor density
numerically to show the exact moments are the ones an integral would
give.
"""

from fractions import Fraction

from fussnarayana.freeprob import (
    MpLaw,
    moments_by_closed_form,
    moments_by_series,
    quadrature_moments,
    s_transform_check,
)

K_MAX = 6


def law_summary(t: Fraction) -> None:
    law = MpLaw(t)
    a, b = law.support
    print(
        f"shape t={t}: atom {law.atom_mass} at 0, "
        f"density on [{a:.4f}, {b:.4f}] with mass {law.continuous_mass}"
    )


def main() -> None:
    shapes = (Fraction(1), Fraction(1, 2), Fraction(2))
    for t in shapes:
        law_summary(t)
    print()

    by_series = moments_by_series(shapes, K_MAX)
    by_closed = moments_by_closed_form(shapes, K_MAX)
    print(f"moments of the free product of MP({shapes[0]}), MP({shapes[1]}), MP({shapes[2]}):")
    print(f"  {'k':>2}  {'series route':>16}  {'closed form':>16}")
    for k in range(1, K_MAX + 1):
        s, c = by_series.moment(k), by_closed.moment(k)
        assert s == c
        print(f"  {k:>2}  {str(s):>16}  {str(c):>16}")
    print()

    report = s_transform_check(by_series)
    print(f"S-transform identity check: {report.checks} coefficients compared, ok={report.ok}")
    print()

    t = Fraction(1, 2)
    exact = moments_by_closed_form((t,), K_MAX)
    numeric = quadrature_moments(t, K_MAX)
    print(f"single factor MP({t}): exact moments vs density integral")
    print(f"  {'k':>2}  {'exact':>12}  {'quadrature':>18}  {'abs diff':>10}")
    for k in range(1, K_MAX + 1):
        m = exact.moment(k)
        q = numeric[k - 1]
        print(f"  {k:>2}  {str(m):>12}  {q:>18.12f}  {abs(float(m) - q):>10.2e}")


if __name__ == "__main__":
    main()
