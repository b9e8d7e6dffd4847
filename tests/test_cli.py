"""End-to-end tests of the command line surface."""

import argparse
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fussnarayana import cli, exact, freeprob, partitions, rmt, series
from fussnarayana.poly import MultiPoly
from fussnarayana.report import Report


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- poly ----------------------------------------------------------------------

def test_poly_closed_golden(capsys):
    code, out, _ = run_cli(capsys, "poly", "-p", "2", "-k", "2", "--closed")
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "vars": ["d0", "d1", "d2"],
        "terms": [
            {"exponents": [1, 2, 1], "coeff": "1"},
            {"exponents": [1, 1, 2], "coeff": "1"},
            {"exponents": [0, 2, 2], "coeff": "1"},
        ],
    }


def test_poly_all_methods_agree(capsys):
    code, out, _ = run_cli(capsys, "poly", "-p", "2", "-k", "3", "--all-methods")
    assert code == 0
    doc = json.loads(out)
    assert doc["agree"] is True
    assert doc["closed"] == doc["enumerate"] == doc["series"]


@pytest.mark.parametrize("variables", ["d", "t"])
def test_poly_all_methods_entries_are_each_methods_own_output(capsys, monkeypatch, variables):
    monkeypatch.setenv("FN_BUDGET", "18")  # p = 3, k = 3 counts a word of length 18
    for p in (1, 2, 3):
        for k in range(4):
            argv = ("poly", "-p", str(p), "-k", str(k), "--vars", variables)
            code, out, _ = run_cli(capsys, *argv, "--all-methods")
            assert code == 0
            doc = json.loads(out)
            assert doc.pop("agree") is True, (p, k)
            assert list(doc) == ["closed", "enumerate", "series"]
            for method, entry in doc.items():
                code, out, _ = run_cli(capsys, *argv, f"--{method}")
                assert code == 0 and json.loads(out) == entry, (p, k, method)


def test_poly_order_zero_is_constant_one(capsys):
    code, out, _ = run_cli(capsys, "poly", "-p", "1", "-k", "0", "--closed")
    assert code == 0
    doc = json.loads(out)
    assert doc["terms"] == [{"exponents": [0, 0], "coeff": "1"}]


def test_poly_t_variables(capsys):
    code, out, _ = run_cli(capsys, "poly", "-p", "2", "-k", "2", "--series", "--vars", "t")
    assert code == 0
    doc = json.loads(out)
    assert doc["vars"] == ["t1", "t2"]
    assert {tuple(term["exponents"]) for term in doc["terms"]} == {(2, 2), (1, 2), (2, 1)}


def test_poly_output_is_stable(capsys):
    first = run_cli(capsys, "poly", "-p", "2", "-k", "3", "--closed")
    second = run_cli(capsys, "poly", "-p", "2", "-k", "3", "--closed")
    assert first == second


# -- enumerate -------------------------------------------------------------------

def test_enumerate_count(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "-p", "2", "-k", "3", "--count")
    assert code == 0 and out.strip() == "12"


def test_enumerate_default_mode_is_count(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "-p", "2", "-k", "2")
    assert code == 0 and out.strip() == "3"


def test_enumerate_single_pair(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "-p", "1", "-k", "1", "--list")
    assert code == 0 and out.strip() == "(1,2)"


def test_enumerate_list_golden(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "-p", "2", "-k", "2", "--list")
    assert code == 0
    assert out.splitlines() == [
        "(1,4)(2,3)(5,8)(6,7)",
        "(1,8)(2,3)(4,5)(6,7)",
        "(1,8)(2,7)(3,6)(4,5)",
    ]


def test_enumerate_profiles(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "-p", "2", "-k", "2", "--profiles")
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "profiles": [
            {"profile": [0, 2, 2], "count": 1},
            {"profile": [1, 1, 2], "count": 1},
            {"profile": [1, 2, 1], "count": 1},
        ]
    }


def test_enumerate_budget_exceeded(capsys, monkeypatch):
    monkeypatch.delenv("FN_BUDGET", raising=False)
    code, out, err = run_cli(capsys, "enumerate", "-p", "3", "-k", "3", "--count")
    assert code == 2
    assert out == ""
    assert "budget" in err


@pytest.mark.parametrize("argv", [("enumerate", "-p", "1", "-k", "9", "--list"),
                                  ("verify", "--suite", "lemmas", "-p", "2", "--k-max", "5")])
def test_budget_error_names_its_override(capsys, monkeypatch, argv):
    monkeypatch.delenv("FN_BUDGET", raising=False)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: word length 2*p*k = ") and "FN_BUDGET" in err


def test_enumerate_count_lists_no_matching(capsys, monkeypatch):
    # Catalan(30) matchings, counted by the interval recurrence alone
    def unavailable(*args, **kwargs):
        raise AssertionError("enumerate --count listed matchings")

    monkeypatch.setattr(partitions, "enumerate_adapted", unavailable)
    monkeypatch.setenv("FN_BUDGET", "60")
    code, out, _ = run_cli(capsys, "enumerate", "-p", "1", "-k", "30", "--count")
    assert code == 0 and out == "3814986502092304\n"


def test_env_budget_override(capsys, monkeypatch):
    monkeypatch.setenv("FN_BUDGET", "18")
    code, out, _ = run_cli(capsys, "enumerate", "-p", "3", "-k", "3", "--count")
    assert code == 0 and out.strip() == "22"
    monkeypatch.setenv("FN_BUDGET", "4")  # read again by this call in the same process
    code, _, err = run_cli(capsys, "enumerate", "-p", "3", "-k", "1", "--count")
    assert code == 2 and err.endswith("; the environment variable FN_BUDGET sets it\n")
    monkeypatch.setenv("FN_BUDGET", "nonsense")
    code, _, err = run_cli(capsys, "enumerate", "-p", "1", "-k", "1", "--count")
    assert code == 2


# -- verify ------------------------------------------------------------------------

def test_verify_lemmas(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "lemmas", "-p", "2", "--k-max", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert len(doc["reports"]) == 2
    assert all(r["mismatches"] == [] for r in doc["reports"])


def test_verify_oracle_with_budget(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "oracle", "--pk-budget", "16")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True


def test_verify_oracle_reaches_past_enumeration(capsys):
    # p = 1, k = 15 alone has Catalan(15) ~ 9.7e6 matchings; the
    # interval recurrence counts them without listing one
    code, out, _ = run_cli(capsys, "verify", "--suite", "oracle", "--pk-budget", "30")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert [r["name"] for r in doc["reports"]] == [
        "three-route agreement p=1 k<=15",
        "three-route agreement p=2 k<=7",
        "three-route agreement p=3 k<=5",
    ]


@pytest.mark.parametrize("p,k", [(1, 5), (2, 3), (3, 2)])
def test_verify_oracle_catches_a_planted_count(capsys, monkeypatch, p, k):
    honest = partitions.profile_histogram

    def planted(p_, k_, shift=0, budget=partitions.DEFAULT_BUDGET):
        hists = honest(p_, k_, shift, budget)
        if p_ == p:
            first = next(iter(hists[k].terms))
            hists[k].terms[first] += 1
        return hists

    monkeypatch.setattr(partitions, "profile_histogram", planted)
    code, out, _ = run_cli(capsys, "verify", "--suite", "oracle", "--pk-budget", "16")
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False
    mismatches = [m for r in doc["reports"] for m in r["mismatches"]]
    assert f"k={k}: closed form and enumeration disagree" in mismatches
    assert all(m.startswith(f"k={k}: ") for m in mismatches)


def oracle_mismatches(capsys, pk_budget):
    """Each oracle report's name and mismatches, once the sweep has failed."""
    code, out, _ = run_cli(capsys, "verify", "--suite", "oracle", "--pk-budget", pk_budget)
    doc = json.loads(out)
    assert code == 1 and doc["ok"] is False
    return {r["name"]: r["mismatches"] for r in doc["reports"]}


def test_verify_oracle_catches_a_square_without_its_middle_term(capsys, monkeypatch):
    # only a_{n/2} pairs with itself, so blanking it (the kernel skips a falsy
    # coefficient) drops the middle square alone; that first bites at n = 2,
    # where g_3 needs g_1^2
    honest = series.square_coefficient

    def no_middle(a, n, *ring):
        return honest([None if 2 * i == n else c for i, c in enumerate(a)], n, *ring)

    monkeypatch.setattr(series, "square_coefficient", no_middle)
    mismatches = oracle_mismatches(capsys, "12")
    solver = "closed form and series solver disagree"
    assert mismatches == {
        "three-route agreement p=1 k<=6": [f"k={k}: {solver}" for k in range(3, 7)],
        "three-route agreement p=2 k<=3": [f"k=3: {solver}"],
        "three-route agreement p=3 k<=2": [],
    }


def test_verify_oracle_catches_a_kernel_fault_the_counter_and_solver_share(capsys, monkeypatch):
    # the counter and the series solve both run on product_coefficient; with
    # its last index pair dropped both go wrong together, and only the closed
    # form, which shares no code with them, can tell
    honest = series.product_coefficient

    def no_last_pair(a, b, n, zero, *ring):
        return honest(a[:min(n, len(a) - 1)], b, n, zero, *ring)

    monkeypatch.setattr(series, "product_coefficient", no_last_pair)
    assert partitions.count_adapted(1, 3) != exact.fuss_catalan(1, 3)
    mismatches = oracle_mismatches(capsys, "16")
    assert list(mismatches) == [f"three-route agreement p={p} k<={16 // (2 * p)}" for p in (1, 2, 3)]
    for found in mismatches.values():
        assert "k=1: closed form and enumeration disagree" in found
        assert "k=1: closed form and series solver disagree" in found


def test_verify_oracle_catches_elementary_polynomials_of_too_few_dims(capsys, monkeypatch):
    honest = series._elementary
    monkeypatch.setattr(series, "_elementary", lambda ds, *ring: honest(ds[1:], *ring))
    mismatches = oracle_mismatches(capsys, "12")
    solver = "closed form and series solver disagree"
    assert mismatches == {
        f"three-route agreement p={p} k<={k_max}": [f"k={k}: {solver}" for k in range(1, k_max + 1)]
        for p, k_max in [(1, 6), (2, 3), (3, 2)]
    }


@pytest.mark.parametrize("fault", ["e_p without a term", "e_(p+1) without its shift"])
def test_verify_oracle_catches_a_decode_fault(capsys, monkeypatch, fault):
    # the symbolic solve runs on e_1..e_(p+1), and reading an order substitutes
    # the elementary polynomials of the d_i; a wrong substitute must show at every p
    honest = series._elementary

    def planted(ds, *ring):
        e = honest(ds, *ring)
        if fault == "e_p without a term":
            e[-2] = dict(list(e[-2].items())[1:])
        else:
            e[-1] = {0: 1}
        return e

    monkeypatch.setattr(series, "_elementary", planted)
    mismatches = oracle_mismatches(capsys, "16")
    first = 2 if fault == "e_p without a term" else 1  # g_1 = e_(p+1) holds no e_p
    solver = "closed form and series solver disagree"
    assert mismatches == {
        f"three-route agreement p={p} k<={k_max}": [f"k={k}: {solver}" for k in range(first, k_max + 1)]
        for p, k_max in [(1, 8), (2, 4), (3, 2)]
    }


def test_verify_oracle_solves_each_series_once(capsys, monkeypatch):
    calls = []
    honest = series.solve_functional_equation

    def counted(p, order, *args, **kwargs):
        calls.append((p, order))
        return honest(p, order, *args, **kwargs)

    monkeypatch.setattr(series, "solve_functional_equation", counted)
    code, out, _ = run_cli(capsys, "verify", "--suite", "oracle", "--pk-budget", "60")
    assert code == 0 and json.loads(out)["ok"] is True
    assert calls == [(1, 30), (2, 15), (3, 10)]


def test_verify_oracle_counts_each_p_once(capsys, monkeypatch):
    calls = []
    honest = partitions.profile_histogram

    def counted(p, k, *args, **kwargs):
        calls.append((p, k))
        return honest(p, k, *args, **kwargs)

    monkeypatch.setattr(partitions, "profile_histogram", counted)
    code, out, _ = run_cli(capsys, "verify", "--suite", "oracle", "--pk-budget", "60")
    assert code == 0 and json.loads(out)["ok"] is True
    assert calls == [(1, 30), (2, 15), (3, 10)]


P25, P24 = exact.limit_moment_poly(2, 5), exact.limit_moment_poly(2, 4)


@pytest.mark.parametrize("command,expected", [
    ("poly -p 3 -k 8 --series", [exact.limit_moment_poly(3, 8) * MultiPoly.variable(4, 0)]),
    ("poly -p 2 -k 5 --enumerate", [P25]),
    ("enumerate -p 2 -k 5 --count", []),
    ("enumerate -p 2 -k 5 --profiles", [P25]),
    ("poly -p 2 -k 4 --all-methods", [P24, P24 * MultiPoly.variable(3, 0)]),
])
def test_a_command_unpacks_only_the_order_it_prints(capsys, monkeypatch, unpacked, command, expected):
    # the series solve and the counter return orders 0..k packed; a command
    # reads order k alone, the series route's as g_k = d0 P_k, and a count
    # runs the counter in the int ring, which builds no histogram
    monkeypatch.setenv("FN_BUDGET", "20")
    code, _, _ = run_cli(capsys, *command.split())
    assert code == 0
    assert unpacked == expected


def test_diagram_index_check_unpacks_no_order(capsys, unpacked, tmp_path):
    # the index is checked against the int-ring count, so no histogram is built
    code, _, _ = run_cli(capsys, "diagram", "-p", "2", "-k", "3", "--index", "11",
                         "--svg", str(tmp_path / "last.svg"))
    assert code == 0
    assert unpacked == []


def test_verify_oracle_reads_every_order(capsys, unpacked):
    # the count of every order 0..3 and the series coefficient g_k = d0 P_k
    # of every order it compares, 1..3, each once
    code, out, _ = run_cli(capsys, "verify", "--suite", "oracle", "-p", "2", "--pk-budget", "12")
    assert code == 0 and json.loads(out)["ok"] is True
    counts = [exact.limit_moment_poly(2, k) for k in range(4)]
    expected = counts + [poly * MultiPoly.variable(3, 0) for poly in counts[1:]]
    assert len(unpacked) == len(expected) and all(poly in unpacked for poly in expected)


def report_names(out):
    return [r["name"] for r in json.loads(out)["reports"]]


def test_verify_oracle_single_p_sweeps_to_the_cap(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "oracle", "-p", "2")
    assert code == 0
    # the default cap is max(FN_BUDGET, 40), so p = 2 sweeps to 2pk = 40
    assert report_names(out) == ["three-route agreement p=2 k<=10"]
    code, out, _ = run_cli(capsys, "verify", "--suite", "oracle", "-p", "2", "--pk-budget", "12")
    assert code == 0
    assert report_names(out) == ["three-route agreement p=2 k<=3"]


def test_verify_oracle_k_max_alone_applies_to_every_p(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "oracle", "--k-max", "2")
    assert code == 0
    assert report_names(out) == [f"three-route agreement p={p} k<=2" for p in (1, 2, 3)]


def test_verify_lemmas_k_max_alone_applies_to_every_p(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "lemmas", "--k-max", "1")
    assert code == 0
    assert report_names(out) == [
        f"{sweep} p={p} k<=1" for p in (1, 2, 3)
        for sweep in ("shift-identity", "product-decomposition")
    ]


@pytest.mark.parametrize("suite,flag", [("lemmas", "-p"), ("oracle", "-p"),
                                        ("freeprob", "--k-max"), ("lemmas", "--k-max")])
def test_verify_rejects_nonpositive_selections(capsys, suite, flag):
    code, out, err = run_cli(capsys, "verify", "--suite", suite, flag, "0")
    assert code == 2 and out == ""
    assert f"needs {flag} >= 1, got 0" in err


def test_verify_freeprob_rejects_k_max_below_two(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "freeprob", "--k-max", "1")
    assert code == 2 and out == ""
    assert "verify --suite freeprob needs --k-max >= 2, got 1" in err


@pytest.mark.parametrize("suite,flag", [("freeprob", "-p"), ("freeprob", "--pk-budget"),
                                        ("lemmas", "--pk-budget")])
def test_verify_rejects_flags_the_suite_does_not_read(capsys, suite, flag):
    code, out, err = run_cli(capsys, "verify", "--suite", suite, flag, "2")
    assert code == 2 and out == ""
    assert f"verify --suite {suite} does not read {flag}" in err


@pytest.mark.parametrize("argv", [("--pk-budget", "1"), ("-p", "2", "--pk-budget", "3")])
def test_verify_oracle_rejects_a_sweep_with_no_order(capsys, argv):
    code, out, err = run_cli(capsys, "verify", "--suite", "oracle", *argv)
    assert code == 2 and out == ""
    assert "no order k >= 1 has 2*p*k <=" in err


def test_verify_freeprob(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "freeprob", "--k-max", "5")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_failure_exits_one(capsys, monkeypatch):
    broken = Report(name="forced", checks=1, mismatches=["forced mismatch"])
    monkeypatch.setattr(
        "fussnarayana.partitions.verify_shift_identity", lambda *a, **kw: broken
    )
    code, out, _ = run_cli(capsys, "verify", "--suite", "lemmas", "-p", "1", "--k-max", "1")
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False
    assert doc["reports"][0]["mismatches"] == ["forced mismatch"]


def test_verify_lemmas_list_their_own_order_tuples(capsys, monkeypatch):
    argv = ("verify", "--suite", "lemmas", "-p", "2", "--k-max", "4")
    code, honest, _ = run_cli(capsys, *argv)
    assert code == 0
    compositions = exact._compositions

    def dropping_the_last(*args):
        return list(compositions(*args))[:-1]

    monkeypatch.setattr(exact, "_compositions", dropping_the_last)
    assert exact.vandermonde_decomposition(2, 4)[0] != exact.fuss_catalan(2, 4)
    assert run_cli(capsys, *argv)[:2] == (0, honest)


# -- moments -------------------------------------------------------------------------

def test_moments_exact_integer_shapes(capsys):
    code, out, _ = run_cli(capsys, "moments", "-t", "1,1,1", "-K", "2")
    assert code == 0
    assert out.splitlines() == ["k,moment", "1,1", "2,4"]


def test_moments_narayana_at_two(capsys):
    code, out, _ = run_cli(capsys, "moments", "-t", "2", "-K", "3", "--exact")
    assert code == 0
    assert out.splitlines() == ["k,moment", "1,2", "2,6", "3,22"]


def test_moments_catalan(capsys):
    code, out, _ = run_cli(capsys, "moments", "-t", "1", "-K", "4")
    assert code == 0
    assert out.splitlines() == ["k,moment", "1,1", "2,2", "3,5", "4,14"]


def test_moments_rational_shapes(capsys):
    code, out, _ = run_cli(capsys, "moments", "-t", "1/2", "-K", "2")
    assert code == 0
    assert out.splitlines() == ["k,moment", "1,1/2", "2,3/4"]


def test_moments_quadrature_columns(capsys):
    code, out, _ = run_cli(capsys, "moments", "-t", "2", "-K", "3", "--quadrature")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,moment,estimate,abs_diff"
    row = lines[2].split(",")
    assert row[0] == "2" and row[1] == "6"
    assert float(row[2]) == pytest.approx(6.0, rel=1e-9)


def test_moments_do_not_evaluate_the_closed_form(capsys, monkeypatch):
    def closed_form_called(*_args):
        raise AssertionError("moments evaluated the closed form")

    monkeypatch.setattr(freeprob, "moments_by_closed_form", closed_form_called)
    code, out, _ = run_cli(capsys, "moments", "-t", "1,1/2,2", "-K", "3")
    assert code == 0
    assert out.splitlines() == ["k,moment", "1,1", "2,9/2", "3,109/4"]
    code, out, _ = run_cli(capsys, "moments", "-t", "1/2", "-K", "3", "--quadrature")
    assert code == 0
    assert [line.split(",")[:2] for line in out.splitlines()[1:]] == [
        ["1", "1/2"], ["2", "3/4"], ["3", "11/8"]]


def test_a_quadrature_error_exits_two(capsys, monkeypatch):
    def uncertified(t, order):
        raise freeprob.QuadratureError(f"moment 1 at t={t}: error bound too large")

    monkeypatch.setattr(freeprob, "quadrature_moments", uncertified)
    code, out, err = run_cli(capsys, "moments", "-t", "1/2", "-K", "4", "--quadrature")
    assert code == 2 and out == ""
    assert err.startswith("error: moment 1 at t=1/2")


def test_moments_quadrature_needs_single_shape(capsys):
    code, _, err = run_cli(capsys, "moments", "-t", "1,2", "-K", "2", "--quadrature")
    assert code == 2 and "single shape" in err


def test_moments_rejects_bad_shapes(capsys):
    code, _, err = run_cli(capsys, "moments", "-t", "0", "-K", "2")
    assert code == 2
    code, _, _ = run_cli(capsys, "moments", "-t", "x,y", "-K", "2")
    assert code == 2


# -- mc ---------------------------------------------------------------------------

def test_mc_json_contract(capsys):
    args = ("mc", "-d", "1,1", "-n", "20", "-K", "2", "--trials", "8", "--seed", "3")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["ensemble"] == "complex"
    assert doc["config"]["seed"] == 3
    assert len(doc["moments"]) == 2
    code2, out2, _ = run_cli(capsys, *args)
    assert out == out2  # byte-identical reruns


def test_mc_square_case_recovers_catalan_means(capsys):
    # single square block: limit moments are the Catalan numbers 1, 2
    code, out, _ = run_cli(
        capsys, "mc", "-d", "1,1", "-n", "200", "-K", "2",
        "--trials", "200", "--seed", "1",
    )
    assert code == 0
    doc = json.loads(out)
    targets = [m["target"] for m in doc["moments"]]
    assert targets == [1, 2]
    for row in doc["moments"]:
        assert abs(row["mean"] - row["target"]) <= 3 * row["se"]


def test_mc_rejects_a_negative_seed(capsys):
    code, out, err = run_cli(capsys, "mc", "-d", "1,1", "-n", "10", "-K", "1", "--seed", "-1")
    assert code == 2 and out == "" and "seed" in err


def test_mc_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "mc", "-d", "1,1", "-n", "15", "-K", "1",
        "--trials", "4", "--seed", "0", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,mean,se,target,z"
    assert len(lines) == 2


def test_mc_real_ensemble_runs(capsys):
    code, out, _ = run_cli(
        capsys, "mc", "-d", "1,1", "-n", "15", "-K", "1",
        "--trials", "4", "--seed", "0", "--ensemble", "real",
    )
    assert code == 0
    assert json.loads(out)["config"]["ensemble"] == "real"


def test_mc_ensemble_choices_are_the_ensembles_rmt_draws():
    (commands,) = [action for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    (ensemble,) = [action for action in commands.choices["mc"]._actions
                   if action.dest == "ensemble"]
    assert ensemble.choices == rmt._ENSEMBLES


def test_mc_invalid_dims(capsys):
    code, _, err = run_cli(capsys, "mc", "-d", "1", "-n", "20", "-K", "2", "--trials", "4")
    assert code == 2 and "two ratios" in err


@pytest.mark.parametrize("ratio", ["nan", "inf"])
def test_mc_rejects_non_finite_ratios(capsys, ratio):
    code, out, err = run_cli(capsys, "mc", "-d", f"1,{ratio}", "-n", "20", "-K", "2")
    assert code == 2 and out == ""
    assert f"ratios must be finite, got (1.0, {ratio})" in err


def test_mc_rejects_a_trial_over_the_memory_cap(capsys):
    code, out, err = run_cli(capsys, "mc", "-d", "1,1", "-n", "20000", "-K", "2", "--trials", "4")
    assert code == 2 and out == ""
    assert "estimated 32000065536 bytes per trial, over the cap of 1073741824 bytes" in err


# -- diagram ---------------------------------------------------------------------

def test_diagram_writes_svg(capsys, tmp_path):
    target = tmp_path / "nested.svg"
    code, out, err = run_cli(
        capsys, "diagram", "-p", "2", "-k", "2", "--index", "2", "--svg", str(target)
    )
    assert code == 0
    assert out == ""
    assert str(target) in err
    body = target.read_text()
    root = ET.fromstring(body.split("\n", 1)[1])
    # index 2 is the fully nested matching: four arches at distinct heights
    svg_ns = "{http://www.w3.org/2000/svg}"
    heights = {
        node.get("y1")
        for node in root.findall(f".//{svg_ns}line")
        if node.get("y1") == node.get("y2")
    }
    assert len(heights) == 5


def test_diagram_single_arch(capsys, tmp_path):
    target = tmp_path / "single.svg"
    code, _, _ = run_cli(
        capsys, "diagram", "-p", "1", "-k", "1", "--index", "0", "--svg", str(target)
    )
    assert code == 0
    ET.fromstring(target.read_text().split("\n", 1)[1])


def test_diagram_index_out_of_range(capsys, tmp_path):
    target = tmp_path / "nope.svg"
    code, _, err = run_cli(
        capsys, "diagram", "-p", "2", "-k", "2", "--index", "5", "--svg", str(target)
    )
    assert code == 2
    assert "outside" in err
    assert not target.exists()


def test_diagram_lists_only_up_to_its_index(capsys, monkeypatch, tmp_path):
    # drawing matching 2 of the 12 takes the first three; an index past the
    # end is rejected by the counter before any matching is listed
    drawn = []
    listing = partitions.enumerate_adapted

    def counted(*args, **kwargs):
        for pi in listing(*args, **kwargs):
            drawn.append(pi)
            yield pi

    monkeypatch.setattr(partitions, "enumerate_adapted", counted)
    target = tmp_path / "third.svg"
    code, _, _ = run_cli(capsys, "diagram", "-p", "2", "-k", "3", "--index", "2",
                         "--svg", str(target))
    assert code == 0 and target.exists()
    assert len(drawn) == 3
    drawn.clear()
    code, _, err = run_cli(capsys, "diagram", "-p", "2", "-k", "3", "--index", "999",
                           "--svg", str(target))
    assert code == 2
    assert "--index 999 outside 0..11 for p=2, k=3, shift=0" in err
    assert drawn == []


@pytest.mark.parametrize("index", ["-1", "100000000000000000000"])
def test_diagram_rejects_an_index_at_k_30_without_listing(capsys, monkeypatch, tmp_path, index):
    # Catalan(30) matchings would take years to list; the counter takes milliseconds
    monkeypatch.setenv("FN_BUDGET", "60")
    monkeypatch.setattr(partitions, "enumerate_adapted", None)
    target = tmp_path / "x.svg"
    code, out, err = run_cli(capsys, "diagram", "-p", "1", "-k", "30", "--index", index,
                             "--svg", str(target))
    assert (code, out) == (2, "")
    assert err == f"error: --index {index} outside 0..3814986502092303 for p=1, k=30, shift=0\n"
    assert not target.exists()


def test_diagram_unwritable_target_is_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "x.svg"
    code, out, err = run_cli(
        capsys, "diagram", "-p", "2", "-k", "2", "--index", "0", "--svg", str(target)
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


# -- exit discipline ----------------------------------------------------------------

def test_unknown_subcommand_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2


def test_missing_required_flag_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "poly", "-p", "2")
    assert code == 2


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "subcommand" in out or "poly" in out


# -- JSON output -------------------------------------------------------------------

json_strings = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f'),
                                 st.characters()), max_size=6)
json_docs = st.recursive(
    st.one_of(st.booleans(), st.integers(-2**70, 2**70), json_strings),
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.dictionaries(json_strings, children, max_size=4)),
    max_leaves=24,
)


@given(json_docs)
@settings(max_examples=300)
def test_json_text_is_json_dumps_with_indent_two(doc):
    assert cli._json_text(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("doc", [1.5, None, (1, 2), {"a": [0.5]}, [{"b": None}], {1: "one"}],
                         ids=["float", "none", "tuple", "nested-float", "nested-none", "int-key"])
def test_json_text_rejects_other_types(doc):
    with pytest.raises(TypeError):
        cli._json_text(doc)


@pytest.mark.parametrize("argv", [
    ("poly", "-p", "2", "-k", "3"),
    ("poly", "-p", "2", "-k", "3", "--series"),
    ("poly", "-p", "3", "-k", "2", "--vars", "t"),
    ("poly", "-p", "2", "-k", "3", "--all-methods"),
    ("poly", "-p", "1", "-k", "0"),
    ("enumerate", "-p", "2", "-k", "3", "--profiles"),
    ("verify", "--suite", "lemmas", "-p", "1", "--k-max", "3"),
    ("verify", "--suite", "oracle", "--pk-budget", "12"),
    ("verify", "--suite", "freeprob", "--k-max", "3"),
], ids=lambda argv: " ".join(argv))
def test_json_commands_print_json_dumps_bytes(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_a_failed_verify_prints_json_dumps_bytes(capsys, monkeypatch):
    broken = Report(name="forced \"p=1\"", checks=3,
                    mismatches=['k=1: H0 has 2 at (1, 0), "d" \\ δ', "tab\there"])
    monkeypatch.setattr(partitions, "verify_product_decomposition", lambda *a, **kw: broken)
    code, out, _ = run_cli(capsys, "verify", "--suite", "lemmas", "-p", "1", "--k-max", "2")
    assert code == 1
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    assert json.loads(out)["reports"][1]["mismatches"] == broken.mismatches


# stdout digests the benchmark pins, recorded at its budget (FN_BUDGET=20)
GOLDEN = json.loads((Path(__file__).resolve().parent.parent / "bench" / "golden.json")
                    .read_text())["stdout_sha256"]


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_stdout_matches_the_benchmark_golden_digest(capsys, monkeypatch, command):
    monkeypatch.setenv("FN_BUDGET", "20")
    code, out, _ = run_cli(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]


# -- one parser per process ------------------------------------------------------

def count_parsers(monkeypatch):
    """A list that grows by one for every ``ArgumentParser`` constructed from now on."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    return built


def test_main_builds_the_parser_on_its_first_call_only(capsys, monkeypatch):
    # a subcommand's first call builds the root parser and that subcommand's;
    # --help needs the root parser with all six
    cli.build_parser.cache_clear()
    built = count_parsers(monkeypatch)
    per_call = []
    for argv in (("poly", "-p", "1", "-k", "2"), ("poly", "-p", "2", "-k", "3"),
                 ("enumerate", "-p", "2", "-k", "3"), ("--help",),
                 ("moments", "-t", "1/2", "-K", "3"), ("enumerate", "-p", "2", "-k", "3"),
                 ("--help",), ("poly", "-p", "1", "-k", "2")):
        before = len(built)
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        per_call.append(len(built) - before)
    assert per_call == [2, 0, 2, 7, 2, 0, 0, 0]


# usage errors the root parser reports, help, and a subcommand's own errors
PARSER_CASES = sorted({"", "-h", "bogus", "verify", "poly -p x -k 1", "poly -p 1 -k 2 extra",
                       "poly -p 1 -k 2", *(f"{command} -h" for command in cli.COMMANDS)})


@pytest.mark.parametrize("command", PARSER_CASES)
def test_a_one_command_parser_prints_what_the_full_parser_prints(capsys, monkeypatch, command):
    argv = command.split()
    printed = run_cli(capsys, *argv)
    full = cli.build_parser(None)
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full)
    assert run_cli(capsys, *argv) == printed


def test_importing_cli_builds_no_parser(monkeypatch):
    built = count_parsers(monkeypatch)
    spec = importlib.util.find_spec("fussnarayana.cli")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert built == []


POLY = ("poly", "-p", "2", "-k", "3")
MOMENTS = ("moments", "-t", "1/2", "-K", "4")
MC = ("mc", "-d", "1,1", "-n", "20", "-K", "2", "--trials", "8", "--seed", "3")


@pytest.mark.parametrize("first,second,reference", [
    (POLY + ("--series",), POLY, POLY + ("--closed",)),
    (POLY + ("--vars", "t", "--all-methods"), POLY, POLY + ("--closed",)),
    (MOMENTS + ("--quadrature",), MOMENTS, MOMENTS + ("--exact",)),
    (MC + ("--format", "csv"), MC, MC + ("--format", "json")),
], ids=["poly-series", "poly-all-methods", "moments-quadrature", "mc-csv"])
def test_a_call_inherits_no_option_of_the_call_before(capsys, first, second, reference):
    cli.build_parser.cache_clear()
    code, expected, _ = run_cli(capsys, *reference)
    assert code == 0
    cli.build_parser.cache_clear()
    assert run_cli(capsys, *first)[0] == 0
    assert run_cli(capsys, *second)[:2] == (0, expected)


def test_a_usage_error_or_help_leaves_later_calls_correct(capsys):
    count = ("enumerate", "-p", "2", "-k", "3")
    assert run_cli(capsys, *count)[:2] == (0, "12\n")
    helps = []
    for _ in range(2):
        code, root_help, _ = run_cli(capsys, "--help")
        assert code == 0
        code, poly_help, _ = run_cli(capsys, "poly", "--help")
        assert code == 0
        helps.append((root_help, poly_help))
        code, out, err = run_cli(capsys, "poly", "-p", "2")
        assert code == 2 and out == "" and "-k" in err
        assert run_cli(capsys, *count)[:2] == (0, "12\n")
    assert helps[0] == helps[1]
    assert "poly" in helps[0][0] and "--all-methods" in helps[0][1]


# -- imports per command ---------------------------------------------------------

# modules that no combinatorics command needs: the numeric stack, and
# ``dataclasses`` with the ``inspect`` it imports
WATCHED = ("numpy", "scipy", "dataclasses", "inspect")

LOADED = f"""import contextlib, io, json, sys
from fussnarayana.cli import main
WATCHED = {WATCHED!r}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0, argv
print(json.dumps([name for name in WATCHED if name in sys.modules]))
"""


@pytest.mark.parametrize("commands,loaded", [
    (["poly -p 2 -k 3 --all-methods", "enumerate -p 2 -k 3 --profiles",
      "verify --suite oracle --pk-budget 12", "verify --suite lemmas -p 1 --k-max 3",
      "diagram -p 2 -k 2 --index 2 --svg arches.svg"], []),
    (["mc -d 1,1 -n 20 -K 2 --trials 8 --seed 3"], ["numpy", "dataclasses", "inspect"]),
], ids=["combinatorics", "mc"])
def test_each_command_loads_only_the_layers_it_runs(tmp_path, commands, loaded):
    # a fresh interpreter, since this one has imported every layer
    src = Path(cli.__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    argvs = json.dumps([command.split() for command in commands])
    run = subprocess.run([sys.executable, "-c", LOADED, argvs], cwd=tmp_path,
                         env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == loaded


def test_importing_cli_without_site_loads_no_heavy_module(tmp_path):
    # under -S no site hook has imported typing first, so the package's own imports show
    src = Path(cli.__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    heavy = ("dataclasses", "inspect", "typing", "numpy", "scipy")
    code = f"import sys, fussnarayana.cli; print(*[m for m in {heavy!r} if m in sys.modules])"
    run = subprocess.run([sys.executable, "-S", "-c", code], cwd=tmp_path,
                         env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == []
