"""Small result record shared by the verification suites."""

from __future__ import annotations

from collections.abc import Callable


# A plain class, not a dataclass: importing ``dataclasses`` costs every command ~10 ms.
class Report:
    """Outcome of one verification sweep.

    ``checks`` counts individual comparisons performed; ``mismatches``
    holds one human-readable line per failed comparison.  A sweep passes
    iff no mismatches were recorded.  Reports compare equal field by
    field and, being mutable, are unhashable.
    """

    def __init__(self, name: str, checks: int = 0, mismatches: list[str] | None = None) -> None:
        self.name = name
        self.checks = checks
        self.mismatches = [] if mismatches is None else mismatches

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.checks, self.mismatches) == (other.name, other.checks, other.mismatches)

    def __repr__(self) -> str:
        return f"Report(name={self.name!r}, checks={self.checks!r}, mismatches={self.mismatches!r})"

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
