"""Severity-classified message reporting, modeled on ``sc_report``.

Models and kernel internals report through a :class:`Reporter` rather than
printing directly.  That keeps simulation output machine-checkable in
tests: a test can assert that a warning was or was not issued.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass
from typing import List, Optional


class Severity(enum.IntEnum):
    """Message severity, ordered so comparisons are meaningful."""

    INFO = 0
    WARNING = 1
    ERROR = 2
    FATAL = 3


@dataclass(frozen=True)
class Report:
    """A single reported message."""

    severity: Severity
    message_type: str
    message: str
    time_str: str
    object_name: Optional[str] = None

    def format(self) -> str:
        """One-line rendering with severity, type, time, origin."""
        where = f" [{self.object_name}]" if self.object_name else ""
        return (
            f"{self.severity.name} ({self.message_type}) "
            f"@ {self.time_str}{where}: {self.message}"
        )


class Reporter:
    """Collects reports and echoes warnings and errors to ``sys.stderr``."""

    def __init__(self):
        self.reports: List[Report] = []

    def report(
        self,
        severity: Severity,
        message_type: str,
        message: str,
        time_str: str = "?",
        object_name: Optional[str] = None,
    ) -> Report:
        """Issue a report; returns the stored :class:`Report`."""
        rpt = Report(severity, message_type, message, time_str, object_name)
        self.reports.append(rpt)
        if severity >= Severity.WARNING:
            print(rpt.format(), file=sys.stderr)
        return rpt

    def warning(self, message_type: str, message: str, **kw) -> Report:
        """Issue a WARNING report."""
        return self.report(Severity.WARNING, message_type, message, **kw)

    def error(self, message_type: str, message: str, **kw) -> Report:
        """Issue an ERROR report."""
        return self.report(Severity.ERROR, message_type, message, **kw)
