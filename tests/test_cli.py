"""End-to-end tests of the command line surface."""

import json
import xml.etree.ElementTree as ET

import pytest

from fussnarayana import cli, freeprob, partitions
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
    monkeypatch.setenv("FN_BUDGET", "4")
    code, _, err = run_cli(capsys, "enumerate", "-p", "3", "-k", "1", "--count")
    assert code == 2 and "budget" in err
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


def test_verify_oracle_solves_each_series_once(capsys, monkeypatch):
    calls = []
    honest = cli.solve_functional_equation

    def counted(p, order, *args, **kwargs):
        calls.append((p, order))
        return honest(p, order, *args, **kwargs)

    monkeypatch.setattr(cli, "solve_functional_equation", counted)
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
    # end counts the rest, and only to word the error
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
    assert len(drawn) == 12


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
