"""Small result record shared by the verification suites."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Report:
    """Outcome of one verification sweep.

    ``checks`` counts individual comparisons performed; ``mismatches``
    holds one human-readable line per failed comparison.  A sweep passes
    iff no mismatches were recorded.
    """

    name: str
    checks: int = 0
    mismatches: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def tally(self, condition: bool, message: str | Callable[[], str]) -> None:
        """Count one comparison; record the message (called first if callable) when it failed."""
        self.checks += 1
        if not condition:
            self.mismatches.append(message() if callable(message) else message)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "checks": self.checks,
            "mismatches": list(self.mismatches),
        }
