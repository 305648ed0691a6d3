"""Unit tests for severity reporting."""

from repro.kernel import Report, Reporter, Severity


class TestReporting:
    def test_reports_are_collected(self, capsys):
        rep = Reporter()
        rep.warning("bus", "slow")
        rep.error("core", "bad")
        assert [(r.severity, r.message_type) for r in rep.reports] == [
            (Severity.WARNING, "bus"), (Severity.ERROR, "core")]

    def test_echo_respects_threshold(self, capsys):
        rep = Reporter()
        rep.report(Severity.INFO, "a", "quiet")
        rep.warning("b", "loud")
        output = capsys.readouterr().err
        assert "quiet" not in output
        assert "loud" in output
        assert len(rep.reports) == 2

    def test_format_includes_context(self):
        report = Report(Severity.WARNING, "bus", "stall", "10 ns", "top.plb")
        text = report.format()
        assert "WARNING" in text
        assert "bus" in text
        assert "10 ns" in text
        assert "top.plb" in text


class TestSeverityOrdering:
    def test_severities_totally_ordered(self):
        assert Severity.INFO < Severity.WARNING < Severity.ERROR
        assert Severity.ERROR < Severity.FATAL
