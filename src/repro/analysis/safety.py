"""Static variable-safety analysis over the non-ground AST.

Mirrors the grounder's matching semantics (:mod:`repro.asp.grounder`)
without importing it; both take the binder test and the split of an
atom's variables into matched and evaluated ones from the traversal in
:mod:`repro.asp.ast`.  Positive body atoms bind the variables in plain
(matchable) argument positions, and positive ``X = term`` equalities act
as generators once the value side is bound — including intervals,
``X = 1..n``.  Every other occurrence must be covered by those binders:

* head terms and choice bounds (the grounder raises ``head ... not
  bound``),
* negative literals and non-binder comparisons (``unsafe literal ...``),
* aggregate guards and element terms,
* theory-atom arguments, guards and element terms.

Each uncovered variable yields a :class:`SafetyViolation`.  ``fatal``
marks occurrences that make the grounder *raise* at runtime; non-fatal
violations (a variable confined to arithmetic arguments of a positive
atom, or an unbound choice-element atom) silently produce empty
groundings — equally a defect, but not a crash, so the pre-grounding
check in :class:`repro.asp.grounder.Grounder` only rejects fatal ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set

from repro.asp import ast

__all__ = ["SafetyViolation", "rule_safety_violations", "display_name"]


@dataclass(frozen=True)
class SafetyViolation:
    """One unsafe variable occurrence in a rule."""

    variable: str
    context: str
    fatal: bool
    location: Optional[ast.Location]


def display_name(variable: str) -> str:
    """Anonymous variables are parsed to ``_AnonN``; show them as ``_``."""
    return "_" if variable.startswith("_Anon") else variable


def bindable_variables(
    positives: Iterable[ast.Literal], initial: Set[str] = frozenset()
) -> Set[str]:
    """Fixpoint of variables a join over ``positives`` can bind, starting
    from the already-safe set ``initial``."""
    safe: Set[str] = set(initial)
    literals = list(positives)
    changed = True
    while changed:
        changed = False
        for literal in literals:
            if literal.sign != 0:
                continue
            atom = literal.atom
            if isinstance(atom, ast.Comparison):
                if not ast.is_binder(literal):
                    continue
                lhs, rhs = atom.lhs, atom.rhs
                for variable, value in ((lhs, rhs), (rhs, lhs)):
                    if (
                        isinstance(variable, ast.Variable)
                        and variable.name not in safe
                        and ast.term_variables(value, set()) <= safe
                    ):
                        safe.add(variable.name)
                        changed = True
            else:
                before = len(safe)
                ast.match_variables(atom, safe, set())
                if len(safe) != before:
                    changed = True
    return safe


def _uncovered(
    term_or_terms, safe: Set[str]
) -> Set[str]:
    out: Set[str] = set()
    terms = term_or_terms if isinstance(term_or_terms, (tuple, list)) else (term_or_terms,)
    for term in terms:
        ast.term_variables(term, out)
    return out - safe


class _Collector:
    def __init__(self, rule: ast.Rule):
        self.rule = rule
        self.violations: List[SafetyViolation] = []
        self.flagged: Set[str] = set()

    def report(
        self,
        variables: Set[str],
        context: str,
        fatal: bool,
        location: Optional[ast.Location] = None,
    ) -> None:
        for name in sorted(variables):
            self.violations.append(
                SafetyViolation(
                    name,
                    context,
                    fatal,
                    location or self.rule.location,
                )
            )
            self.flagged.add(name)


def _check_condition(
    collector: _Collector,
    condition: Sequence[ast.Literal],
    safe: Set[str],
    context: str,
) -> Set[str]:
    """Check an element condition's own literals and return the local safe
    set (outer safe vars plus what the condition's positives bind)."""
    local = bindable_variables(
        [c for c in condition if c.sign == 0], initial=safe
    )
    for literal in condition:
        if literal.sign == 0 and not isinstance(literal.atom, ast.Comparison):
            continue
        if ast.is_binder(literal):
            unresolved = _uncovered(
                [literal.atom.lhs, literal.atom.rhs], local
            )
            collector.report(
                unresolved,
                f"assignment {literal} in {context}",
                fatal=False,
                location=literal.location,
            )
            continue
        kind = "negative literal" if literal.sign else "comparison"
        collector.report(
            _uncovered(
                [literal.atom.lhs, literal.atom.rhs]
                if isinstance(literal.atom, ast.Comparison)
                else literal.atom,
                local,
            ),
            f"{kind} {literal} in {context}",
            fatal=True,
            location=literal.location,
        )
    return local


def rule_safety_violations(rule: ast.Rule) -> List[SafetyViolation]:
    """All unsafe variable occurrences in ``rule`` (empty when safe)."""
    collector = _Collector(rule)
    body_literals = [b for b in rule.body if isinstance(b, ast.Literal)]
    positives = [b for b in body_literals if b.sign == 0]
    safe = bindable_variables(positives)

    # Body: negative literals, non-binder comparisons, unresolved binders.
    for literal in body_literals:
        atom = literal.atom
        if literal.sign == 0 and not isinstance(atom, ast.Comparison):
            continue
        if ast.is_binder(literal):
            unresolved = _uncovered([atom.lhs, atom.rhs], safe)
            collector.report(
                unresolved,
                f"assignment {literal}",
                fatal=False,
                location=literal.location,
            )
            continue
        if isinstance(atom, ast.Comparison):
            kind = "negated comparison" if literal.sign else "comparison"
            unsafe = _uncovered([atom.lhs, atom.rhs], safe)
        else:
            kind = "negative literal"
            unsafe = _uncovered(atom, safe)
        collector.report(
            unsafe, f"{kind} {literal}", fatal=True, location=literal.location
        )

    # Body aggregates: guards and elements.
    for item in rule.body:
        if not isinstance(item, ast.Aggregate):
            continue
        for guard in (item.left_guard, item.right_guard):
            if guard is not None:
                collector.report(
                    _uncovered(guard[1], safe),
                    f"guard of #{item.function} aggregate",
                    fatal=True,
                    location=item.location,
                )
        for element in item.elements:
            local = _check_condition(
                collector,
                element.condition,
                safe,
                f"#{item.function} element",
            )
            collector.report(
                _uncovered(list(element.terms), local),
                f"terms of #{item.function} element",
                fatal=True,
                location=item.location,
            )

    # Head.
    head = rule.head
    if isinstance(head, ast.FunctionTerm):
        collector.report(_uncovered(head, safe), f"head {head}", fatal=True)
    elif isinstance(head, ast.ChoiceHead):
        for bound in (head.lower, head.upper):
            if bound is not None:
                collector.report(
                    _uncovered(bound, safe), "choice bound", fatal=True
                )
        for element in head.elements:
            local = _check_condition(
                collector, element.condition, safe, "choice condition"
            )
            # An unbound element atom grounds to no instances (silently
            # empty choice) rather than raising — defect, not a crash.
            collector.report(
                _uncovered(element.atom, local),
                f"choice element {element.atom}",
                fatal=False,
            )
    elif isinstance(head, ast.TheoryAtom):
        collector.report(
            _uncovered(list(head.arguments), safe),
            f"arguments of &{head.name}",
            fatal=True,
        )
        if head.guard is not None:
            collector.report(
                _uncovered(head.guard[1], safe),
                f"guard of &{head.name}",
                fatal=True,
            )
        for element in head.elements:
            local = _check_condition(
                collector, element.condition, safe, f"&{head.name} element"
            )
            collector.report(
                _uncovered(list(element.terms), local),
                f"terms of &{head.name} element",
                fatal=True,
            )

    # Leftovers: variables confined to arithmetic/interval arguments of
    # positive atoms never get bound; the match silently fails instead.
    remaining: Set[str] = set()
    for literal in positives:
        if not isinstance(literal.atom, ast.Comparison):
            ast.term_variables(literal.atom, remaining)
    remaining -= safe
    remaining -= collector.flagged
    collector.report(
        remaining,
        "arithmetic argument of a positive literal",
        fatal=False,
    )
    return collector.violations


def fatal_violations(rule: ast.Rule) -> List[SafetyViolation]:
    """Violations the grounder would raise :class:`GroundingError` for."""
    return [v for v in rule_safety_violations(rule) if v.fatal]
