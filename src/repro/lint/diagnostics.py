"""Diagnostic objects for the static schedule analyzer.

A :class:`Diagnostic` is one finding of one rule at one *locus* — a
round index plus, when known, the sender / message / destination of the
offending transmission.  :class:`LintReport` is the immutable result of
one :func:`repro.lint.lint_schedule` run: the diagnostics in emission
order (rounds are analyzed chronologically, so emission order is round
order) plus render helpers for humans (:meth:`LintReport.format`) and
for CI (:meth:`LintReport.to_dict` / :meth:`LintReport.to_json`).

Severity semantics mirror compiler practice: ``error`` means the
schedule violates the communication model (or a paper invariant it
claims to satisfy) and must not be served; ``warning`` means the
schedule is legal but wasteful (redundant deliveries, idle capacity,
fan-out waste, rounds beyond the certificate).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Tuple

__all__ = ["Severity", "Diagnostic", "LintReport"]


class Severity(str, Enum):
    """Severity of a diagnostic (string-valued for JSON friendliness)."""

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a rule id, a severity, a message and a locus.

    Attributes
    ----------
    rule:
        The rule id (``tier/name``, e.g. ``"model/send-without-hold"``).
    severity:
        :attr:`Severity.ERROR` or :attr:`Severity.WARNING`.
    message:
        Human-readable description of the finding.
    round:
        Round index (send time) the finding anchors to, when applicable.
    sender:
        Sending processor of the offending transmission, when applicable.
    message_id:
        Message id of the offending transmission, when applicable.
    destination:
        Offending destination processor, when applicable.
    """

    rule: str
    severity: Severity
    message: str
    round: Optional[int] = None
    sender: Optional[int] = None
    message_id: Optional[int] = None
    destination: Optional[int] = None

    @property
    def is_error(self) -> bool:
        """Whether this diagnostic has error severity."""
        return self.severity is Severity.ERROR

    def locus(self) -> str:
        """Compact ``round t, sender s`` locus string (may be empty)."""
        parts: List[str] = []
        if self.round is not None:
            parts.append(f"round {self.round}")
        if self.sender is not None:
            parts.append(f"sender {self.sender}")
        if self.message_id is not None:
            parts.append(f"message {self.message_id}")
        if self.destination is not None:
            parts.append(f"dest {self.destination}")
        return ", ".join(parts)

    def format(self) -> str:
        """One-line render: ``error model/x (round 3, sender 5): ...``."""
        locus = self.locus()
        where = f" ({locus})" if locus else ""
        return f"{self.severity.value:<7} {self.rule}{where}: {self.message}"

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready mapping (severity flattened to its string value)."""
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "message": self.message,
            "round": self.round,
            "sender": self.sender,
            "message_id": self.message_id,
            "destination": self.destination,
        }


@dataclass(frozen=True)
class LintReport:
    """The immutable result of one static analysis run.

    Attributes
    ----------
    diagnostics:
        All findings in emission (round) order.
    rules_run:
        Ids of the rules that were active for this run — a clean report
        certifies exactly these rules, no more.
    name:
        The analyzed schedule's name (may be empty).
    """

    diagnostics: Tuple[Diagnostic, ...]
    rules_run: Tuple[str, ...]
    name: str = ""

    @property
    def errors(self) -> Tuple[Diagnostic, ...]:
        """Error-severity findings only."""
        return tuple(d for d in self.diagnostics if d.is_error)

    @property
    def warnings(self) -> Tuple[Diagnostic, ...]:
        """Warning-severity findings only."""
        return tuple(d for d in self.diagnostics if not d.is_error)

    @property
    def ok(self) -> bool:
        """Whether the schedule passed (no error-severity findings)."""
        return not self.errors

    def by_rule(self, rule: str) -> Tuple[Diagnostic, ...]:
        """All findings of one rule id."""
        return tuple(d for d in self.diagnostics if d.rule == rule)

    def format(self, *, show_warnings: bool = True) -> str:
        """Multi-line human-readable report (used by ``repro.cli lint``)."""
        shown = self.diagnostics if show_warnings else self.errors
        label = f" {self.name}" if self.name else ""
        header = (
            f"lint{label}: {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s), "
            f"{len(self.rules_run)} rule(s) run"
        )
        lines = [header]
        lines.extend(f"  {d.format()}" for d in shown)
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready mapping of the whole report."""
        return {
            "name": self.name,
            "ok": self.ok,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "rules_run": list(self.rules_run),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }

    def to_json(self, *, indent: Optional[int] = None) -> str:
        """The report as a JSON document (for ``cli lint --json`` / CI)."""
        return json.dumps(self.to_dict(), indent=indent)
