"""Structured outcomes of statement checks.

A Verdict separates "did the hypothesis hold on this input" from "did the
conclusion hold given that it did". A true hypothesis with a false
conclusion on a proved statement is a FINDING: it fails the suite because
it can only mean an implementation bug (or an input outside the statement's
scope that slipped past the preconditions). Report-only verdicts are exempt
from that rule; they record data for manual audit and never fail anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .group import PermutationGroup
from .perm import Permutation


@dataclass(frozen=True)
class Verdict:
    statement: str
    hypothesis_holds: bool
    conclusion_holds: bool | None = None
    parameters: dict = field(default_factory=dict)
    witnesses: tuple = ()
    notes: tuple = ()
    report_only: bool = False

    def __post_init__(self):
        if self.conclusion_holds is not None and not self.hypothesis_holds:
            raise ValueError("conclusion recorded without its hypothesis")

    @classmethod
    def skip(cls, statement: str, parameters: dict, reason: str) -> Verdict:
        """A report-only verdict saying why the statement was not checked."""
        return cls(statement, False, None, parameters,
                   notes=(f"skipped: {reason}",), report_only=True)

    @property
    def is_finding(self) -> bool:
        """True hypothesis, false conclusion, on a statement that asserts."""
        return (self.hypothesis_holds
                and self.conclusion_holds is False
                and not self.report_only)

    def to_payload(self) -> dict:
        return {
            "statement": self.statement,
            "hypothesis_holds": self.hypothesis_holds,
            "conclusion_holds": self.conclusion_holds,
            "parameters": payload_value(self.parameters),
            "witnesses": [list(payload_value(w)) for w in self.witnesses],
            "notes": list(self.notes),
            "report_only": self.report_only,
            "is_finding": self.is_finding,
        }


def payload_value(x):
    """Recursively convert domain objects into JSON-safe values.

    Groups become their order plus generator image lists, permutations their
    image list, so emitted reports are deterministic and self-contained.
    """
    if x is None or isinstance(x, (bool, int, float, str)):
        return x
    if isinstance(x, Permutation):
        return {"cycles": x.cycle_string(), "images": list(x.images)}
    if isinstance(x, PermutationGroup):
        return {
            "degree": x.degree,
            "order": x.order(),
            "generators": [list(g.images) for g in x.generators],
        }
    if isinstance(x, dict):
        return {str(k): payload_value(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [payload_value(v) for v in x]
    if hasattr(x, "to_payload"):
        return x.to_payload()
    return repr(x)
