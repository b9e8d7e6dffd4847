"""Tests for the verification report record."""

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
