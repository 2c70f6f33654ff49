"""Admission control: lint triage and work estimation.

Every request runs through the spec validator
(:func:`repro.analysis.spec.validate_specification`) *before* it can
touch the solve queue — a spec with an unmappable task or an
unsatisfiable deadline would only ever produce an empty or misleading
front after burning a worker slot, so error-severity findings are
rejected up front with their diagnostics attached.

Admitted jobs are ordered **shortest-estimated-work-first**: the
estimate is the binding-space size (the paper's Table I column) times
one plus the number of messages.  A refinement by the abstract domain
analysis' relation-size bounds ranked the exploration times of the 150
benchmark pool specs better (Kendall tau 0.566 and 0.550 in two runs,
against 0.484 and 0.402) and shortened the mean completion by
0.016-0.025 s, but its second parse and analysis of every program cost
1.06-1.22 s over the 150 specs; charged to the jobs, the mean
completion rose from 0.374 s to 0.589 s.  The estimate orders the
queue; it carries no exactness weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.spec import validate_specification
from repro.synthesis.model import Specification

__all__ = ["AdmissionDecision", "admit", "estimate_work"]


@dataclass
class AdmissionDecision:
    """Outcome of lint triage for one request."""

    admitted: bool
    diagnostics: List[Diagnostic] = field(default_factory=list)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    def to_dict(self) -> Dict[str, object]:
        return {
            "admitted": self.admitted,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }


def admit(
    spec: Specification, objectives: Optional[Sequence[str]] = None
) -> AdmissionDecision:
    """Validate ``spec``; reject on any error-severity finding.

    Warnings and infos ride along in the decision (clients see them in
    the ``accepted`` response) but do not block admission.
    """
    diagnostics = validate_specification(spec, objectives)
    errors = [d for d in diagnostics if d.severity is Severity.ERROR]
    return AdmissionDecision(admitted=not errors, diagnostics=diagnostics)


def estimate_work(spec: Specification) -> int:
    """Solve-effort estimate used as the queue priority.

    The binding-space size scaled by the communication load (messages
    route through the platform, so each adds search depth).  The exact
    integer: the product passes the float range on large specs, and the
    estimate only orders the queue, so nothing needs it as a float.
    """
    return spec.binding_space_size() * (1 + len(spec.application.messages))
