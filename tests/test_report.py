"""Tests for the verification report record."""

import pytest

from fussnarayana.report import Report


def test_lazy_message_is_rendered_only_on_failure():
    rendered = []

    def message():
        rendered.append(True)
        return "coefficient 3 differs"

    report = Report(name="lazy")
    report.tally(True, message)
    assert report.ok and report.checks == 1 and not rendered
    report.tally(False, message)
    report.tally(False, "plain text")
    assert report.checks == 3
    assert report.mismatches == ["coefficient 3 differs", "plain text"]
    assert report.to_dict()["mismatches"] == ["coefficient 3 differs", "plain text"]


def test_keyword_construction_and_repr():
    report = Report(name="forced", checks=1, mismatches=["forced mismatch"])
    assert (report.name, report.checks, report.mismatches) == ("forced", 1, ["forced mismatch"])
    assert not report.ok
    assert repr(report) == "Report(name='forced', checks=1, mismatches=['forced mismatch'])"
    assert repr(Report("empty")) == "Report(name='empty', checks=0, mismatches=[])"
    assert Report("positional", 2, ["x"]) == Report(name="positional", checks=2, mismatches=["x"])


def test_reports_compare_by_fields_and_are_unhashable():
    assert Report("a") == Report("a", 0, [])
    assert Report("a") != Report("a", 1)
    assert Report("a") != Report("a", 0, ["x"])
    assert Report("a") != Report("b")
    assert Report("a") != ("a", 0, [])
    with pytest.raises(TypeError):
        hash(Report("a"))


def test_reports_never_share_a_mismatch_list():
    first, second = Report("first"), Report("second")
    first.tally(False, "only in first")
    assert second.mismatches == [] and second.ok
    assert first.mismatches is not second.mismatches
