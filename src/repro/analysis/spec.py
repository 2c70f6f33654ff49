"""Static validation of synthesis specifications and encoded instances.

:func:`validate_specification` checks a
:class:`~repro.synthesis.model.Specification` for defects the dataclass
constructors cannot see — unroutable communications, isolated (zero
capacity) resources, unsatisfiable deadlines, degenerate objectives —
*before* the instance is encoded and explored, because an over- or
under-constrained spec otherwise yields an empty-but-"exact" Pareto
front with no hint why.

:func:`lint_instance` combines the spec checks with a full program lint
of the generated encoding and cross-checks the declared
:class:`~repro.synthesis.encoding.ObjectiveSpec` objects against the
theory atoms that are supposed to constrain them.

Spec diagnostics carry no source span (there is no source text); their
rule ids are prefixed ``spec-``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import networkx as nx

from repro.analysis.diagnostics import Diagnostic, LintReport, Severity
from repro.analysis.linter import LintConfig, Linter

__all__ = ["SPEC_RULES", "validate_specification", "lint_instance"]

#: rule id -> (severity, one-line description) for the spec validator.
SPEC_RULES: Dict[str, Tuple[Severity, str]] = {
    "spec-unmappable-task": (
        Severity.ERROR,
        "a task has no mapping option at all",
    ),
    "spec-unroutable-communication": (
        Severity.ERROR,
        "no binding of a message's endpoints admits a route",
    ),
    "spec-unsatisfiable-deadline": (
        Severity.ERROR,
        "a task deadline is below its fastest WCET",
    ),
    "spec-isolated-resource": (
        Severity.WARNING,
        "a resource can neither execute tasks nor carry traffic",
    ),
    "spec-degenerate-objective": (
        Severity.WARNING,
        "an objective cannot discriminate between designs",
    ),
    "spec-symmetric-platform": (
        Severity.INFO,
        "the platform has non-trivial automorphisms; symmetry breaking "
        "would shrink the search",
    ),
}


def _diag(rule: str, message: str) -> Diagnostic:
    return Diagnostic(rule, SPEC_RULES[rule][0], message)


def validate_specification(
    spec, objectives: Optional[Sequence[Union[str, object]]] = None
) -> List[Diagnostic]:
    """All spec-level diagnostics for ``spec`` (empty when clean).

    ``objectives`` may list objective names (``"latency"``) or
    :class:`~repro.synthesis.encoding.ObjectiveSpec` objects; when given,
    degenerate objectives are reported as well.
    """
    out: List[Diagnostic] = []
    graph = spec.architecture.graph()

    # Unmappable tasks.  The Specification constructor rejects these too;
    # the check stays so subclasses or hand-built instances get a
    # diagnostic instead of an exception mid-pipeline.
    for task in spec.application.tasks:
        if not spec.options_of(task.name):
            out.append(
                _diag(
                    "spec-unmappable-task",
                    f"task {task.name!r} has no mapping options",
                )
            )

    # Unroutable communications: a message endpoint pair such that *no*
    # combination of mapping options admits a route (colocated counts).
    for message in spec.application.messages:
        sources = {o.resource for o in spec.options_of(message.source)}
        for target in message.targets:
            targets = {o.resource for o in spec.options_of(target)}
            routable = any(
                a == b or nx.has_path(graph, a, b)
                for a in sources
                for b in targets
            )
            if not routable:
                out.append(
                    _diag(
                        "spec-unroutable-communication",
                        f"message {message.name!r}: no binding of "
                        f"{message.source!r} -> {target!r} admits a route "
                        f"through the architecture",
                    )
                )

    # Deadlines below the fastest possible execution.
    for task in spec.application.tasks:
        if task.deadline is None:
            continue
        fastest = min(
            (o.wcet for o in spec.options_of(task.name)), default=None
        )
        if fastest is not None and task.deadline < fastest:
            out.append(
                _diag(
                    "spec-unsatisfiable-deadline",
                    f"task {task.name!r} has deadline {task.deadline} below "
                    f"its fastest WCET {fastest}",
                )
            )

    # Isolated resources: no mapping option targets them and no link
    # touches them — dead weight in the architecture (a zero-capacity PE).
    used = {o.resource for o in spec.mappings}
    linked = set()
    for link in spec.architecture.links:
        linked.add(link.source)
        linked.add(link.target)
    for resource in spec.architecture.resources:
        if resource.name not in used and resource.name not in linked:
            out.append(
                _diag(
                    "spec-isolated-resource",
                    f"resource {resource.name!r} has no mapping options and "
                    f"no incident links; it can never be allocated",
                )
            )

    # Objective bounds (max_energy / max_cost) are undefined for a spec
    # with unmappable tasks, and those already carry an error diagnostic.
    unmappable = any(d.rule == "spec-unmappable-task" for d in out)
    if objectives and not unmappable:
        out.extend(_check_objectives(spec, objectives))
    return out


def _check_objectives(spec, objectives: Sequence[Union[str, object]]) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    for objective in objectives:
        if isinstance(objective, str):
            name = objective
            if name == "energy" and spec.max_energy() == 0:
                out.append(
                    _diag(
                        "spec-degenerate-objective",
                        "objective 'energy': every mapping option and link "
                        "has zero energy, the objective cannot discriminate",
                    )
                )
            elif name == "cost" and spec.max_cost() == 0:
                out.append(
                    _diag(
                        "spec-degenerate-objective",
                        "objective 'cost': every resource has zero cost, "
                        "the objective cannot discriminate",
                    )
                )
            continue
        # ObjectiveSpec duck-typing: name/kind/terms/variable/max_value.
        kind = getattr(objective, "kind", None)
        name = getattr(objective, "name", "<objective>")
        if kind == "pb" and not getattr(objective, "terms", ()):
            out.append(
                _diag(
                    "spec-degenerate-objective",
                    f"objective {name!r} has no pseudo-Boolean terms",
                )
            )
        elif getattr(objective, "max_value", 1) == 0:
            out.append(
                _diag(
                    "spec-degenerate-objective",
                    f"objective {name!r} has max_value 0; it is constant "
                    f"over the whole design space",
                )
            )
    return out


def lint_instance(
    instance, config: Optional[LintConfig] = None
) -> LintReport:
    """Lint an :class:`~repro.synthesis.encoding.EncodedInstance`.

    Combines (a) the spec validator, (b) a full program lint of the
    generated encoding, and (c) a cross-check that each ``"var"``
    objective's theory variable is actually constrained by a theory atom
    in the encoding.
    """
    report = Linter(config).lint_text(instance.program, filename="<encoding>")
    diagnostics = list(report.diagnostics)
    diagnostics.extend(
        validate_specification(instance.specification, instance.objectives)
    )
    diagnostics.extend(_check_objective_wiring(instance))
    diagnostics.extend(_check_platform_symmetry(instance))
    report.diagnostics = diagnostics
    report.sort()
    return report


def _check_platform_symmetry(instance) -> List[Diagnostic]:
    """INFO when the platform is symmetric but the encoding is unbroken.

    Runs only on instances encoded with ``symmetry="off"`` (an instance
    that already analyzed its platform records the result on
    ``instance.symmetry`` whether or not breaking was applied).
    """
    if getattr(instance, "symmetry", None) is not None:
        return []
    from repro.analysis.symmetry import analyze_specification

    symmetry = analyze_specification(instance.specification)
    if symmetry.trivial:
        return []
    orbits = symmetry.nontrivial_orbits
    return [
        _diag(
            "spec-symmetric-platform",
            f"platform has {symmetry.order - 1} non-trivial automorphism(s) "
            f"across {len(orbits)} resource orbit(s) "
            f"({', '.join('{' + ', '.join(o) + '}' for o in orbits)}); "
            f"symmetry breaking recommended (encode with the default "
            f"symmetry='auto')",
        )
    ]


def _check_objective_wiring(instance) -> List[Diagnostic]:
    """Each ``var`` objective must appear as a theory guard in the program."""
    from repro.asp import ast
    from repro.asp.parser import ParseError, parse_program

    try:
        program = parse_program(instance.program)
    except ParseError:
        return []  # the program lint already reported this
    guard_names = set()
    for rule in program.rules:
        head = rule.head
        if isinstance(head, ast.TheoryAtom) and head.guard is not None:
            guard = head.guard[1]
            if isinstance(guard, ast.FunctionTerm):
                guard_names.add(guard.name)
    out: List[Diagnostic] = []
    for objective in instance.objectives:
        if objective.kind != "var" or objective.variable is None:
            continue
        name = getattr(objective.variable, "name", str(objective.variable))
        if name not in guard_names:
            out.append(
                _diag(
                    "spec-degenerate-objective",
                    f"objective {objective.name!r}: theory variable {name} "
                    f"is not constrained by any theory atom in the encoding",
                )
            )
    return out
