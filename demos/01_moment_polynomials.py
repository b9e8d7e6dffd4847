#!/usr/bin/env python3
"""Compute limiting moment polynomials three independent ways.

The closed form sums refined binomial counts over lattice compositions.
The combinatorial route counts noncrossing pair partitions adapted to a
repeated word by their leg profiles, with the first-block recurrence on
intervals of the periodic word.  The analytic route
solves the functional equation as a power series and reads off
coefficients.  The three
answers agree coefficient by coefficient, which is the point of running
all of them.
"""

from fussnarayana.exact import fuss_catalan, fuss_narayana_poly, limit_moment_poly
from fussnarayana.partitions import profile_histogram
from fussnarayana.series import solve_functional_equation

VAR_NAMES = ["d0", "d1", "d2", "d3"]


def show(p: int, k: int) -> None:
    closed = limit_moment_poly(p, k)
    counted = profile_histogram(p, k)
    series = solve_functional_equation(p, k)[k].divide_by_variable(0)
    assert closed == counted == series
    names = VAR_NAMES[: p + 1]
    print(f"p={p} k={k}")
    print(f"  P_{k} = {closed.to_string(names)}")
    reduced = fuss_narayana_poly(p, k)
    print(f"  at d0=1: {reduced.to_string(names[1:])}")
    at_ones = closed.evaluate([1] * (p + 1))
    print(f"  sum of coefficients = {at_ones} (Fuss-Catalan: {fuss_catalan(p, k)})")


def main() -> None:
    print("three routes to the same polynomial")
    print("=" * 60)
    for p in (1, 2):
        for k in (1, 2, 3):
            show(p, k)
    show(3, 2)
    print("all routes agreed on every case above")


if __name__ == "__main__":
    main()
