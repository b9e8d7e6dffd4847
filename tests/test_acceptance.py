"""Acceptance gate: one test per release criterion, one printed line each.

Every criterion states its own scope and tolerance; nothing here is
sampled down or deferred.  Run this file with ``pytest -s`` to see the
PASS/FAIL lines stream; under default capture they appear in the
captured-output section of any failure.

The Monte Carlo criterion uses the complex Gaussian ensemble with seed
7 (the documented configuration): complex entries approach the limit at
O(1/n^2), which makes a 3-standard-error gate meaningful at n = 300,
whereas real entries carry an O(1/n) offset of roughly 3-4 standard
errors at that size for k = 3.
"""

import io
import json
import time
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction
import random

from fussnarayana.exact import (
    fuss_catalan,
    fuss_narayana_number,
    fuss_narayana_poly,
    limit_moment_poly,
    vandermonde_decomposition,
)
from fussnarayana.freeprob import (
    moments_by_closed_form,
    moments_by_series,
    quadrature_moments,
)
from fussnarayana.partitions import (
    WordSpec,
    build_word,
    enumerate_adapted,
    leg_profile,
    listed_histograms,
    noncrossing_matchings,
    profile_histogram,
    rotate_cover,
    rotate_cover_inverse,
    verify_product_decomposition,
    verify_shift_identity,
)
from fussnarayana.cli import main as cli_main
from fussnarayana.poly import MultiPoly
from fussnarayana.rmt import DimensionProfile, McConfig, run_experiment
from fussnarayana.series import lagrange_coefficient, solve_functional_equation


@contextmanager
def criterion(number: int, label: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - started
        print(f"[criterion {number:02d}] FAIL  {label}  ({elapsed:.2f}s)")
        raise
    else:
        elapsed = time.perf_counter() - started
        print(f"[criterion {number:02d}] PASS  {label}  ({elapsed:.2f}s)")


def canonical_json(poly: MultiPoly, names) -> str:
    return json.dumps(poly.to_json_dict(names), sort_keys=True)


def test_criterion_01_golden_polynomials():
    with criterion(1, "golden moment polynomials, byte-exact serialization"):
        d0, d1, d2 = (MultiPoly.variable(3, i) for i in range(3))
        expected_p2 = d1**2 * d2**2 + d0 * d1 * d2**2 + d0 * d1**2 * d2
        expected_p3 = (
            d1**3 * d2**3
            + 3 * d0 * d1**2 * d2**3
            + 3 * d0 * d1**3 * d2**2
            + d0**2 * d1 * d2**3
            + 3 * d0**2 * d1**2 * d2**2
            + d0**2 * d1**3 * d2
        )
        names = ["d0", "d1", "d2"]
        assert canonical_json(limit_moment_poly(2, 2), names) == canonical_json(expected_p2, names)
        assert canonical_json(limit_moment_poly(2, 3), names) == canonical_json(expected_p3, names)

        t1, t2 = (MultiPoly.variable(2, i) for i in range(2))
        expected_f2 = t1**2 * t2**2 + t1 * t2**2 + t1**2 * t2
        expected_f3 = (
            t1**3 * t2**3
            + t1 * t2**3
            + t1**3 * t2
            + 3 * t1**2 * t2**2
            + 3 * t1**2 * t2**3
            + 3 * t1**3 * t2**2
        )
        tnames = ["t1", "t2"]
        assert canonical_json(fuss_narayana_poly(2, 2), tnames) == canonical_json(expected_f2, tnames)
        assert canonical_json(fuss_narayana_poly(2, 3), tnames) == canonical_json(expected_f3, tnames)


def sweep_pairs(max_p: int, length_cap: int):
    for p in range(1, max_p + 1):
        for k in range(1, length_cap // (2 * p) + 1):
            yield p, k


def test_criterion_02_partition_counts():
    with criterion(2, "adapted matching counts equal Fuss-Catalan numbers"):
        assert sum(1 for _ in enumerate_adapted(WordSpec(2, 0, 2))) == 3
        assert sum(1 for _ in enumerate_adapted(WordSpec(2, 0, 3))) == 12
        for p, k in sweep_pairs(3, 16):
            count = sum(1 for _ in enumerate_adapted(WordSpec(p, 0, k)))
            assert count == fuss_catalan(p, k), (p, k, count)


def test_criterion_03_three_way_oracle_agreement():
    with criterion(3, "closed form = enumeration = series coefficient"):
        for p, k in sweep_pairs(3, 16):
            closed = limit_moment_poly(p, k)
            counted = profile_histogram(p, k)[k]
            solved = solve_functional_equation(p, k)[k].divide_by_variable(0)
            assert closed == counted, (p, k, "enumeration")
            assert closed == solved, (p, k, "series")


def test_criterion_04_lemma_suite():
    with criterion(4, "shift-identity and product-decomposition sweeps are clean"):
        for p, k_max in [(1, 4), (2, 2), (3, 2)]:
            hists = listed_histograms(p, k_max)
            shift_report = verify_shift_identity(hists)
            product_report = verify_product_decomposition(hists)
            assert shift_report.ok, shift_report.mismatches[:5]
            assert product_report.ok, product_report.mismatches[:5]
            assert shift_report.checks and product_report.checks


def test_criterion_05_vandermonde_decomposition():
    with criterion(5, "refined counts sum to Fuss-Catalan, p <= 4, k <= 6"):
        for p in range(1, 5):
            for k in range(1, 7):
                refined, total = vandermonde_decomposition(p, k)
                assert refined == total, (p, k, refined, total)


def test_criterion_06_free_probability_identity():
    with criterion(6, "series moments equal closed-form moments, p <= 4, K <= 8"):
        fixtures = [
            (Fraction(2),),
            (Fraction(1, 2),),
            (Fraction(2), Fraction(3)),
            (Fraction(5, 7), Fraction(9, 4)),
            (Fraction(1), Fraction(1), Fraction(1)),
            (Fraction(1, 3), Fraction(4), Fraction(11, 6)),
            (Fraction(2), Fraction(1, 5), Fraction(3), Fraction(7, 2)),
        ]
        for shapes in fixtures:
            assert (
                moments_by_series(shapes, 8).values
                == moments_by_closed_form(shapes, 8).values
            ), shapes

        # worked three-factor second moment, as a sampled polynomial identity
        t1, t2, t3 = (MultiPoly.variable(3, i) for i in range(3))
        worked_m2 = (
            t1**2 * t2**2 * t3**2
            + t1 * t2**2 * t3**2
            + t1**2 * t2 * t3**2
            + t1**2 * t2**2 * t3
        )
        rng = random.Random(735)
        for _ in range(5):
            point = tuple(
                Fraction(rng.randint(1, 60), rng.randint(1, 60)) for _ in range(3)
            )
            assert moments_by_series(point, 2).moment(2) == worked_m2.evaluate(point)


def test_criterion_07_quadrature_cross_check():
    with criterion(7, "density quadrature matches exact moments to 1e-8 relative"):
        for t in (Fraction(1, 2), Fraction(1), Fraction(2)):
            exact = moments_by_closed_form((t,), 6)
            for k, estimate in enumerate(quadrature_moments(t, 6), start=1):
                target = float(exact.moment(k))
                assert abs(estimate - target) <= 1e-8 * max(1.0, abs(target)), (t, k)


def test_criterion_08_monte_carlo_gate():
    with criterion(8, "Monte Carlo means within 3 SE at documented seed, deviation shrinks in n"):
        targets = (1.0, 1.5, 0.5)
        # drive the documented command line end to end
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = cli_main(
                ["mc", "-d", "1,1.5,0.5", "-n", "300", "-K", "3",
                 "--trials", "200", "--seed", "7"]
            )
        assert code == 0
        doc = json.loads(buffer.getvalue())
        assert len(doc["moments"]) == 3
        for row in doc["moments"]:
            assert abs(row["z"]) <= 3.0, (row["k"], row["z"])

        deviations = {}
        for n in (50, 400):
            small = McConfig(
                profile=DimensionProfile.from_targets(targets, n),
                k_max=2, trials=200, seed=7, ensemble="complex",
            )
            stat = run_experiment(small).moments[1]
            deviations[n] = abs(stat.mean - stat.target)
        assert deviations[400] < deviations[50], deviations


def test_criterion_09_rotation_bijection():
    with criterion(9, "cover rotation round-trips and obeys the profile-shift law"):
        for size in range(2, 13, 2):
            for pi in noncrossing_matchings(size):
                assert rotate_cover_inverse(rotate_cover(pi)) == pi
                assert rotate_cover(rotate_cover_inverse(pi)) == pi
        for p, k in sweep_pairs(6, 12):
            base_spec = WordSpec(p, 0, k)
            base_set = set(enumerate_adapted(base_spec))
            word0 = build_word(base_spec)
            for shift in range(1, p + 1):
                spec = WordSpec(p, shift, k)
                word = build_word(spec)
                images = set()
                for pi in enumerate_adapted(spec):
                    image = pi
                    for _ in range(shift):
                        image = rotate_cover(image)
                    before = leg_profile(pi, word)
                    after = leg_profile(image, word0)
                    expected = list(before)
                    expected[0] -= 1
                    expected[shift] += 1
                    assert after == tuple(expected), (p, k, shift, before, after)
                    images.add(image)
                assert images == base_set, (p, k, shift)


def test_criterion_10_integrality_tripwire():
    with criterion(10, "every refined count and inversion coefficient is an integer"):
        for p in range(1, 5):
            for k in range(1, 9):
                for exps, coeff in limit_moment_poly(p, k).terms.items():
                    assert coeff.denominator == 1, (p, k, exps)
                    direct = fuss_narayana_number(k, (exps[0] + 1,) + exps[1:])
                    assert direct == coeff
        pairs = [(p, n) for p, n in sweep_pairs(3, 16)] + [(4, 1), (4, 2)]
        for p, n in pairs:
            poly = lagrange_coefficient(p, n)
            assert all(c.denominator == 1 for c in poly.terms.values()), (p, n)
