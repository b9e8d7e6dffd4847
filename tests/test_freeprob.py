"""Tests for Marchenko-Pastur laws and free multiplicative convolution moments."""

import math
import random
from fractions import Fraction

import pytest
from scipy.integrate import quad

from fussnarayana import cli, freeprob
from fussnarayana.exact import fuss_narayana_poly, limit_moment_poly
from fussnarayana.freeprob import (
    FREEPROB_FIXTURES,
    MomentTable,
    MpLaw,
    QuadratureError,
    moments_by_closed_form,
    moments_by_lagrange,
    moments_by_series,
    quadrature_moments,
    s_transform_check,
)
from fussnarayana.poly import MultiPoly
from fussnarayana.report import Report


def test_law_atom_and_support():
    thin = MpLaw(Fraction(1, 4))
    assert thin.atom_mass == Fraction(3, 4)
    assert thin.continuous_mass == Fraction(1, 4)
    a, b = thin.support
    assert a == pytest.approx(0.25)
    assert b == pytest.approx(2.25)
    fat = MpLaw(Fraction(3))
    assert fat.atom_mass == 0
    with pytest.raises(ValueError):
        MpLaw(Fraction(0))
    with pytest.raises(ValueError, match="shape parameter must be positive"):
        quadrature_moments(-1, 2)


def test_density_vanishes_off_support():
    law = MpLaw(Fraction(1, 2))
    a, b = law.support
    assert law.density(a - 0.01) == 0.0
    assert law.density(b + 0.01) == 0.0
    assert law.density((a + b) / 2) > 0.0


def test_density_drops_to_zero_at_the_right_edge():
    law = MpLaw(Fraction(1))
    assert law.support == (0.0, 4.0)
    assert law.density(4.0) == 0.0
    # square-root decay approaching the edge from inside
    assert 0.0 < law.density(4.0 - 1e-8) < 1e-3


@pytest.mark.parametrize("t", [Fraction(1, 2), Fraction(1), Fraction(2)])
def test_density_integrates_to_continuous_mass(t):
    law = MpLaw(t)
    a, b = law.support
    mass, err = quad(law.density, a, b, limit=300)
    assert err < 1e-8
    assert mass == pytest.approx(float(law.continuous_mass), abs=1e-7)


def test_s_transform_values():
    law = MpLaw(Fraction(2))
    assert law.s_transform(Fraction(0)) == Fraction(1, 2)
    assert law.s_transform(Fraction(1, 3)) == Fraction(3, 7)


def test_moment_golden_values():
    # one factor, shape 2: Narayana polynomials at t = 2
    table = moments_by_series((Fraction(2),), 3)
    assert table.values == (Fraction(2), Fraction(6), Fraction(22))
    # two factors, shapes (2, 3), order 2: F_2(2, 3) = 36 + 12 + 18
    pair = moments_by_closed_form((Fraction(2), Fraction(3)), 2)
    assert pair.moment(1) == 6
    assert pair.moment(2) == 66
    assert pair.moment(0) == 1
    with pytest.raises(ValueError):
        pair.moment(3)


def test_moment_table_input_validation():
    for route in (moments_by_series, moments_by_lagrange, moments_by_closed_form):
        for shapes, order in [((), 3), ((Fraction(2), Fraction(0)), 3), ((Fraction(-1),), 3),
                              ((Fraction(1),), 0)]:
            with pytest.raises(ValueError):
                route(shapes, order)


def test_series_and_closed_form_agree_on_a_grid():
    shapes_pool = [
        (Fraction(1),),
        (Fraction(2), Fraction(3)),
        (Fraction(1, 2), Fraction(5, 3)),
        (Fraction(1), Fraction(1), Fraction(1)),
        (Fraction(2), Fraction(1, 7), Fraction(3), Fraction(4, 5)),
    ]
    for shapes in shapes_pool:
        order = 8 if len(shapes) <= 2 else 5
        by_series = moments_by_series(shapes, order).values
        assert by_series == moments_by_closed_form(shapes, order).values, shapes
        assert by_series == moments_by_lagrange(shapes, order).values, shapes


@pytest.mark.parametrize(
    "shapes, order",
    [
        ((Fraction(8, 7), Fraction(13, 7)), 30),
        ((Fraction(9, 7), Fraction(12, 7), Fraction(10, 7)), 30),
        ((Fraction(11, 7), Fraction(8, 7), Fraction(13, 7), Fraction(9, 7)), 14),
    ],
)
def test_series_and_closed_form_agree_at_benchmark_orders(shapes, order):
    # the moments benchmark's factor counts and orders, shapes a/7 with a in 8..13
    by_series = moments_by_series(shapes, order).values
    assert moments_by_closed_form(shapes, order).values == by_series
    assert moments_by_lagrange(shapes, order).values == by_series


@pytest.mark.parametrize(
    "shapes, order",
    [
        ((Fraction(1, 4), Fraction(9, 7)), 20),
        ((Fraction(3, 2), Fraction(5, 3), Fraction(7, 5)), 12),
        ((Fraction(2, 9), Fraction(11, 6), Fraction(4), Fraction(13, 10)), 8),
    ],
)
def test_series_and_closed_form_agree_with_unequal_denominators(shapes, order):
    # the series and Lagrange routes work on the integer dims q * (1, t_1, ..., t_p)
    by_series = moments_by_series(shapes, order).values
    assert by_series == moments_by_closed_form(shapes, order).values
    assert by_series == moments_by_lagrange(shapes, order).values


@pytest.mark.parametrize(
    "shapes, order",
    [
        ((Fraction(9, 7), Fraction(12, 7), Fraction(10, 7)), 60),
        ((Fraction(11, 7), Fraction(8, 7), Fraction(13, 7), Fraction(9, 7)), 40),
        ((Fraction(9, 7), Fraction(12, 7), Fraction(10, 7)), 200),
        ((Fraction(11, 7), Fraction(8, 7), Fraction(13, 7), Fraction(9, 7)), 100),
    ],
)
def test_closed_form_lagrange_and_series_agree_at_high_orders(shapes, order):
    # the closed form sums each order at the point, without building P_k; the
    # last two inputs run the power recurrence on thousand-digit ints
    by_series = moments_by_series(shapes, order).values
    assert moments_by_lagrange(shapes, order).values == by_series
    assert moments_by_closed_form(shapes, order).values == by_series


@pytest.mark.parametrize("p, k", [(1, 9), (2, 7), (3, 5), (4, 4)])
def test_fuss_narayana_poly_sets_the_leading_ratio_to_one(p, k):
    # reference substitution of d0 = 1, term by term, without MultiPoly.substitute
    expected = {}
    for exps, coeff in limit_moment_poly(p, k).terms.items():
        expected[exps[1:]] = expected.get(exps[1:], 0) + coeff * Fraction(1) ** exps[0]
    poly = fuss_narayana_poly(p, k)
    assert poly.num_vars == p
    assert poly.terms == expected


def test_three_factor_second_moment_polynomial():
    # hand-entered worked example: m2 for three factors equals
    # t1^2 t2^2 t3^2 + t1 t2^2 t3^2 + t1^2 t2 t3^2 + t1^2 t2^2 t3,
    # checked as a polynomial identity at random rational points
    t1, t2, t3 = (MultiPoly.variable(3, i) for i in range(3))
    expected = (
        t1**2 * t2**2 * t3**2
        + t1 * t2**2 * t3**2
        + t1**2 * t2 * t3**2
        + t1**2 * t2**2 * t3
    )
    assert fuss_narayana_poly(3, 2) == expected
    rng = random.Random(20260822)
    for _ in range(5):
        point = tuple(Fraction(rng.randint(1, 40), rng.randint(1, 40)) for _ in range(3))
        table = moments_by_series(point, 2)
        assert table.moment(2) == expected.evaluate(point)


def test_unit_shapes_reduce_to_known_values():
    # all shapes 1: moments of the p-fold convolution are Fuss-Catalan numbers
    table = moments_by_series((Fraction(1), Fraction(1), Fraction(1)), 2)
    assert table.moment(1) == 1
    assert table.moment(2) == 4


@pytest.mark.parametrize(
    "shapes",
    [
        (Fraction(1),),
        (Fraction(2),),
        (Fraction(2), Fraction(3)),
        (Fraction(1, 2), Fraction(1), Fraction(7, 4)),
    ],
)
def test_s_transform_inversion(shapes):
    report = s_transform_check(moments_by_series(shapes, 6))
    assert report.ok, report.mismatches
    assert report.checks == 7


@pytest.mark.parametrize("order", [2, 12, 30])
@pytest.mark.parametrize("shapes", FREEPROB_FIXTURES)
def test_s_transform_check_catches_each_raised_moment(shapes, order):
    table = moments_by_series(shapes, order)
    report = s_transform_check(table)
    assert report.ok, report.mismatches
    assert report.checks == order + 1
    for j in range(1, order + 1):
        values = list(table.values)
        values[j - 1] += 1
        faulty = s_transform_check(MomentTable(shapes=table.shapes, values=tuple(values)))
        assert faulty.checks == order + 1
        # m_j enters R first at z^j, times D(0)^(K-j) with D(0) = prod_i t_i
        lowest = math.prod(table.shapes) ** (order - j)
        assert faulty.mismatches[:1] == [
            f"coefficient {j}: R = D^K (psi(z/D) - z) has {lowest}, expected 0"
        ], (shapes, order, j)


def _fraction_s_transform_report(table, order):
    """The S-transform check on ``Fraction`` coefficients: Horner's rule on R = D^K (psi(z/D) - z)."""

    def mul(a, b):
        return [sum((a[i] * b[n - i] for i in range(n + 1) if i < len(a) and n - i < len(b)),
                    Fraction(0)) for n in range(order + 1)]

    denom = [Fraction(1)]
    for c in (Fraction(1),) + table.shapes:
        denom = mul(denom, [c, Fraction(1)])[:len(denom) + 1]
    residual = mul([0, 1], [-c for c in denom])
    residual[1] += table.values[0]
    for k in range(2, order + 1):
        residual = mul(residual, denom)
        residual[k] += table.values[k - 1]
    report = Report(name=f"s-transform p={len(table.shapes)} order={order}")
    for k in range(order + 1):
        report.tally(residual[k] == 0,
                     f"coefficient {k}: R = D^K (psi(z/D) - z) has {residual[k]}, expected 0")
    return report


@pytest.mark.parametrize("order", range(2, 13))
@pytest.mark.parametrize("shapes", FREEPROB_FIXTURES)
def test_integer_s_transform_check_matches_a_fraction_horner_reference(shapes, order):
    table = moments_by_series(shapes, order)
    assert s_transform_check(table) == _fraction_s_transform_report(table, order)
    # moments moved by seeded rationals, some of whose denominators no power of q absorbs
    rng = random.Random(f"{shapes} {order}")
    values = tuple(m + Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3, 7, 11, 13)))
                   if rng.random() < 0.5 else m for m in table.values)
    planted = MomentTable(shapes=table.shapes, values=values)
    assert s_transform_check(planted) == _fraction_s_transform_report(planted, order)


@pytest.mark.parametrize("order", [2, 12])
@pytest.mark.parametrize("shapes", FREEPROB_FIXTURES)
def test_s_transform_check_reports_a_moment_off_by_a_fraction_exactly(shapes, order):
    table = moments_by_series(shapes, order)
    for j in range(1, order + 1):
        values = list(table.values)
        values[j - 1] += Fraction(1, 11)
        planted = MomentTable(shapes=table.shapes, values=tuple(values))
        faulty = s_transform_check(planted)
        # 11 divides no q^(pj+1): the residual keeps its denominator 11
        lowest = Fraction(1, 11) * math.prod(table.shapes) ** (order - j)
        assert faulty.mismatches[:1] == [
            f"coefficient {j}: R = D^K (psi(z/D) - z) has {lowest}, expected 0"
        ], (shapes, order, j)
        assert faulty == _fraction_s_transform_report(planted, order)


def test_s_transform_check_needs_two_orders():
    with pytest.raises(ValueError, match="order must be >= 2"):
        s_transform_check(moments_by_series((Fraction(1),), 1))


@pytest.mark.parametrize("shapes", [(), (Fraction(2), Fraction(0)), (Fraction(-1),),
                                    (Fraction(1, 2), Fraction(-3, 7))])
def test_s_transform_check_validates_the_table_shapes(shapes):
    # the moments of shapes (1, 1/2), which are fine; only the shapes are bad
    values = moments_by_series((Fraction(1), Fraction(1, 2)), 4).values
    with pytest.raises(ValueError):
        s_transform_check(MomentTable(shapes=shapes, values=values))


@pytest.mark.parametrize("values,entry", [((Fraction(1), 2.0), "m_2 = 2.0"),
                                          ((1, "2", Fraction(5)), "m_2 = '2'")])
def test_s_transform_check_rejects_an_entry_that_is_not_exact(values, entry):
    # a float or a str has no exact value to test the identity with
    with pytest.raises(ValueError, match=f"^moment {entry} is neither an int nor a Fraction$"):
        s_transform_check(MomentTable(shapes=(Fraction(1),), values=values))


def test_freeprob_sweep_solves_each_fixture_once(monkeypatch, capsys):
    # the S-transform check reads the first orders of the sweep's own series table
    calls = []
    solve = freeprob.solve_functional_equation

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(freeprob, "solve_functional_equation", counted)
    assert cli.main(["verify", "--suite", "freeprob", "--k-max", "12"]) == 0
    assert '"ok": true' in capsys.readouterr().out
    assert len(calls) == len(FREEPROB_FIXTURES) == 7


def test_freeprob_sweep_compares_the_point_values_with_the_polynomial(monkeypatch, capsys):
    # a wrong polynomial at k = 3 leaves the series and the point values equal,
    # so only the third table of each fixture's tally can see it
    honest = freeprob.fuss_narayana_poly

    def raised(p, k):
        poly = honest(p, k)
        return poly + MultiPoly.constant(p, 1) if k == 3 else poly

    monkeypatch.setattr(freeprob, "fuss_narayana_poly", raised)
    assert cli.main(["verify", "--suite", "freeprob", "--k-max", "4"]) == 1
    out = capsys.readouterr().out
    for shapes in FREEPROB_FIXTURES:
        assert f"shapes {shapes}: series, closed form at the point and closed-form polynomial" in out


@pytest.mark.parametrize("t", [Fraction(1, 2), Fraction(1), Fraction(2)])
def test_quadrature_matches_exact_moments(t):
    estimates = quadrature_moments(t, 8)
    exact = moments_by_closed_form((t,), 8)
    for k, estimate in enumerate(estimates, start=1):
        target = float(exact.moment(k))
        assert abs(estimate - target) <= 1e-8 * max(1.0, abs(target)), (t, k)


def test_quadrature_catalan_numbers():
    values = quadrature_moments(1, 4)
    for estimate, target in zip(values, (1, 2, 5, 14)):
        assert estimate == pytest.approx(target, rel=1e-10)


def test_quadrature_argument_validation():
    with pytest.raises(ValueError):
        quadrature_moments(1, 9)
    with pytest.raises(ValueError):
        quadrature_moments(1, 0)
    with pytest.raises(ValueError):
        quadrature_moments(0, 3)


def test_quadrature_error_reports_uncertifiable_tolerance(monkeypatch):
    monkeypatch.setattr(freeprob, "REL_TOL", 0.0)
    with pytest.raises(QuadratureError):
        quadrature_moments(Fraction(3, 2), 4)
