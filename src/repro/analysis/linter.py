"""Rule-based static linter for ASP(mT) programs.

Walks the parsed AST (:mod:`repro.asp.ast`) *before* grounding and emits
structured :class:`~repro.analysis.diagnostics.Diagnostic` findings.  The
checks, their stable rule ids and severities (documented in
``docs/LINT.md``):

======================  ========  ==================================================
rule id                 severity  finding
======================  ========  ==================================================
parse-error             error     the file does not parse
unsafe-variable         error     a variable the grounder cannot bind
unknown-theory-atom     error     ``&name`` not handled by any registered theory
malformed-theory-atom   error     ``&dom``/``&sum``/``&diff``/minimize grammar violation
recursive-aggregate     error     aggregate/condition over its own recursive component
undefined-predicate     warning   predicate used but never defined (typo suggestions)
arity-mismatch          warning   predicate used with an arity it is never defined at
dead-rule               warning   positive body literal that can never be derived
unused-predicate        warning   predicate defined but never used or shown
grounding-blowup        warning   estimated join size exceeds the threshold
type-conflict           warning   argument position used with incompatible types
empty-domain            warning   rule body meets to an empty abstract domain
comparison-out-of-range warning   builtin comparison is statically false
unstratified-negation   info      negative cycle in the predicate dependency graph
nontight-cycle          info      positive recursion (non-tight program)
constraint-vacuous      info      integrity constraint whose body never holds
duplicate-rule          info      rule repeats an earlier rule up to renaming
======================  ========  ==================================================

The ``type-conflict``/``empty-domain``/``comparison-out-of-range``/
``constraint-vacuous`` rules and the sharpened ``grounding-blowup``
estimate are driven by the abstract domain analysis
(:mod:`repro.analysis.domains`, see ``docs/DOMAINS.md``).

Severities encode the contract with runtime: *error* findings crash (or
are silently dropped by) the grounder/theory, *warnings* are very likely
defects that still ground, *infos* are structural observations.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis import safety
from repro.analysis.domains import DomainAnalysis, analyze_rules, canonical_rule
from repro.analysis.diagnostics import (
    Diagnostic,
    LintReport,
    Severity,
    SourceSpan,
    filter_suppressed,
)
from repro.asp import ast
from repro.asp.grounder import evaluate_term
from repro.asp.parser import ParseError, parse_program
from repro.asp.syntax import Number
from repro.graphs import add_edge, strongly_connected_components

__all__ = ["LintConfig", "Linter", "lint_text", "lint_files", "RULES"]

Signature = Tuple[str, int]

#: rule id -> (severity, one-line description); the public registry.
RULES: Dict[str, Tuple[Severity, str]] = {
    "parse-error": (Severity.ERROR, "the file does not parse"),
    "unsafe-variable": (Severity.ERROR, "a variable the grounder cannot bind"),
    "unknown-theory-atom": (
        Severity.ERROR,
        "theory atom name no registered theory handles",
    ),
    "malformed-theory-atom": (
        Severity.ERROR,
        "theory atom violates the &dom/&sum/&diff/minimize grammar",
    ),
    "recursive-aggregate": (
        Severity.ERROR,
        "aggregate or condition ranges over its own recursive component",
    ),
    "undefined-predicate": (
        Severity.WARNING,
        "predicate is used but never defined",
    ),
    "arity-mismatch": (
        Severity.WARNING,
        "predicate is used with an arity it is never defined at",
    ),
    "dead-rule": (
        Severity.WARNING,
        "a positive body literal can never be derived",
    ),
    "unused-predicate": (
        Severity.WARNING,
        "predicate is defined but never used or shown",
    ),
    "grounding-blowup": (
        Severity.WARNING,
        "estimated join size exceeds the configured threshold",
    ),
    "type-conflict": (
        Severity.WARNING,
        "argument position is used with incompatible abstract types",
    ),
    "empty-domain": (
        Severity.WARNING,
        "rule body meets to an empty abstract domain and can never fire",
    ),
    "comparison-out-of-range": (
        Severity.WARNING,
        "builtin comparison is statically false for all inferred values",
    ),
    "unstratified-negation": (
        Severity.INFO,
        "negation through a recursive component",
    ),
    "nontight-cycle": (Severity.INFO, "positive recursion (non-tight program)"),
    "constraint-vacuous": (
        Severity.INFO,
        "integrity constraint whose body can never hold",
    ),
    "duplicate-rule": (
        Severity.INFO,
        "rule is syntactically identical to an earlier rule up to renaming",
    ),
}

_THEORY_NAMES = ("dom", "sum", "diff")

#: Estimated instances for an interval whose bounds are not evaluable.
_UNKNOWN_INTERVAL = 8
_ESTIMATE_CAP = 1e12


@dataclass(frozen=True)
class LintConfig:
    """Tunables for a lint run."""

    #: Warn when a rule's estimated join size exceeds this many instances.
    blowup_threshold: float = 1_000_000.0
    #: Rule ids to skip entirely (in addition to source suppressions).
    disable: frozenset = frozenset()


# ---------------------------------------------------------------------------
# Occurrence collection
# ---------------------------------------------------------------------------


@dataclass
class _Occurrence:
    signature: Signature
    location: Optional[ast.Location]
    negative: bool
    #: True for aggregate elements and choice/theory conditions — contexts
    #: the grounder requires to be closed (fully grounded) beforehand.
    needs_closed: bool


@dataclass
class _RuleInfo:
    rule: ast.Rule
    heads: List[Signature]
    uses: List[_Occurrence]


def _signature(atom: ast.FunctionTerm) -> Signature:
    return (atom.name, len(atom.arguments))


def _collect(program: ast.Program) -> List[_RuleInfo]:
    return [
        _RuleInfo(
            rule,
            [_signature(atom) for atom, _condition in ast.head_atoms(rule)],
            [
                _Occurrence(
                    _signature(literal.atom),
                    literal.location or rule.location,
                    literal.sign != 0,
                    in_condition,
                )
                for literal, in_condition in ast.occurrences(rule)
            ],
        )
        for rule in program.rules
    ]


# ---------------------------------------------------------------------------
# Linter
# ---------------------------------------------------------------------------


class Linter:
    """Run all checks over a program or source text."""

    def __init__(self, config: Optional[LintConfig] = None):
        self.config = config or LintConfig()

    # -- entry points ------------------------------------------------------

    def lint_text(self, text: str, filename: str = "<string>") -> LintReport:
        """Lint one source text; suppression comments are honoured."""
        started = perf_counter()
        report = LintReport(files=[filename])
        try:
            program = parse_program(text)
        except ParseError as error:
            report.diagnostics.append(
                Diagnostic(
                    "parse-error",
                    Severity.ERROR,
                    str(error),
                    SourceSpan(
                        filename,
                        error.line,
                        error.column,
                        end_column=error.column + max(len(error.token), 1),
                    ),
                )
            )
            report.seconds = perf_counter() - started
            return report
        diagnostics = self.lint_program(program, filename)
        report.diagnostics = filter_suppressed(diagnostics, text)
        report.suppressed = len(diagnostics) - len(report.diagnostics)
        report.sort()
        report.seconds = perf_counter() - started
        return report

    def lint_program(
        self, program: ast.Program, filename: str = "<program>"
    ) -> List[Diagnostic]:
        """All diagnostics for a parsed program (no suppression filtering)."""
        self._filename = filename
        # Lint what the grounder sees: #const-substituted rules.
        rules = [
            ast.substitute_constants(rule, program.constants)
            for rule in program.rules
        ]
        program = ast.Program(
            rules, dict(program.constants), program.shows, set(program.externals)
        )
        infos = _collect(program)
        analysis = self._analyze(program)
        out: List[Diagnostic] = []
        self._check_safety(infos, out)
        self._check_predicates(program, infos, out)
        self._check_cycles(program, infos, out)
        self._check_theory_atoms(program, infos, out)
        self._check_domains(program, infos, analysis, out)
        self._check_duplicates(infos, out)
        self._check_blowup(infos, analysis, out)
        if self.config.disable:
            out = [d for d in out if d.rule not in self.config.disable]
        out.sort(key=Diagnostic.sort_key)
        return out

    # -- helpers -----------------------------------------------------------

    def _span(
        self, location: Optional[ast.Location], width: Optional[int] = None
    ) -> Optional[SourceSpan]:
        if location is None:
            return None
        end = location.column + width if width else None
        return SourceSpan(self._filename, location.line, location.column, end_column=end)

    def _emit(
        self,
        out: List[Diagnostic],
        rule_id: str,
        message: str,
        location: Optional[ast.Location],
        width: Optional[int] = None,
    ) -> None:
        severity = RULES[rule_id][0]
        out.append(Diagnostic(rule_id, severity, message, self._span(location, width)))

    # -- checks ------------------------------------------------------------

    def _check_safety(
        self, infos: Sequence[_RuleInfo], out: List[Diagnostic]
    ) -> None:
        for info in infos:
            seen: Set[str] = set()
            for violation in safety.rule_safety_violations(info.rule):
                if violation.variable in seen:
                    continue  # one finding per variable per rule
                seen.add(violation.variable)
                name = safety.display_name(violation.variable)
                self._emit(
                    out,
                    "unsafe-variable",
                    f"variable {name!r} is unsafe in {violation.context} "
                    f"of rule `{info.rule}`",
                    violation.location,
                )

    def _check_predicates(
        self,
        program: ast.Program,
        infos: Sequence[_RuleInfo],
        out: List[Diagnostic],
    ) -> None:
        defined: Dict[Signature, Optional[ast.Location]] = {}
        for info in infos:
            for sig in info.heads:
                defined.setdefault(sig, info.rule.location)
        derivable = set(defined) | set(program.externals)
        arities: Dict[str, Set[int]] = {}
        for name, arity in derivable:
            arities.setdefault(name, set()).add(arity)

        used: Set[Signature] = set()
        reported: Set[Signature] = set()
        for info in infos:
            for occ in info.uses:
                used.add(occ.signature)
                if occ.signature in derivable or occ.signature in reported:
                    continue
                reported.add(occ.signature)
                name, arity = occ.signature
                if name in arities:
                    others = ", ".join(
                        f"{name}/{a}" for a in sorted(arities[name])
                    )
                    self._emit(
                        out,
                        "arity-mismatch",
                        f"{name}/{arity} is used but only {others} "
                        f"is defined",
                        occ.location,
                        width=len(name),
                    )
                else:
                    message = f"{name}/{arity} is used but never defined"
                    close = difflib.get_close_matches(
                        name, sorted(arities), n=1, cutoff=0.6
                    )
                    if close:
                        message += f"; did you mean {close[0]!r}?"
                    self._emit(
                        out,
                        "undefined-predicate",
                        message,
                        occ.location,
                        width=len(name),
                    )

        # Dead rules: a positive plain body literal that is never derivable.
        for info in infos:
            for item in info.rule.body:
                if (
                    isinstance(item, ast.Literal)
                    and item.sign == 0
                    and isinstance(item.atom, ast.FunctionTerm)
                    and _signature(item.atom) not in derivable
                ):
                    name, arity = _signature(item.atom)
                    self._emit(
                        out,
                        "dead-rule",
                        f"rule `{info.rule}` can never fire: positive body "
                        f"literal {item.atom} is never derivable",
                        info.rule.location,
                    )
                    break

        # Unused predicates: only meaningful under an explicit projection —
        # without #show every atom is output, so "unused" has no witness.
        if program.shows is None:
            return
        for sig, location in sorted(defined.items()):
            name, arity = sig
            if (
                sig in used
                or sig in program.shows
                or sig in program.externals
                or name.startswith("__")
            ):
                continue
            self._emit(
                out,
                "unused-predicate",
                f"{name}/{arity} is defined but never used in a body, "
                f"condition, or #show",
                location,
                width=len(name),
            )

    def _check_cycles(
        self,
        program: ast.Program,
        infos: Sequence[_RuleInfo],
        out: List[Diagnostic],
    ) -> None:
        graph: Dict[Signature, Dict[Signature, None]] = {}
        negative_edges: Dict[Tuple[Signature, Signature], Optional[ast.Location]] = {}
        positive_edges: Dict[Tuple[Signature, Signature], Optional[ast.Location]] = {}
        for info in infos:
            for head in info.heads:
                graph.setdefault(head, {})
                for occ in info.uses:
                    add_edge(graph, head, occ.signature)
                    bucket = negative_edges if occ.negative else positive_edges
                    bucket.setdefault((head, occ.signature), occ.location)
        components = strongly_connected_components(graph)
        component_of = {sig: i for i, members in enumerate(components) for sig in members}

        for component in components:
            internal_neg = [
                (edge, loc)
                for edge, loc in negative_edges.items()
                if edge[0] in component and edge[1] in component
            ]
            internal_pos = [
                (edge, loc)
                for edge, loc in positive_edges.items()
                if edge[0] in component and edge[1] in component
            ]
            if len(component) == 1 and not internal_neg and not internal_pos:
                continue  # trivial SCC without a self-loop
            names = ", ".join(
                f"{name}/{arity}" for name, arity in sorted(component)
            )
            if internal_neg:
                (edge, location) = min(
                    internal_neg, key=lambda item: str(item[0])
                )
                self._emit(
                    out,
                    "unstratified-negation",
                    f"negation inside the recursive component {{{names}}} "
                    f"({edge[0][0]}/{edge[0][1]} -> not {edge[1][0]}/{edge[1][1]}); "
                    f"stable-model semantics applies, answer sets may be "
                    f"non-unique or absent",
                    location,
                )
            elif internal_pos:
                (edge, location) = min(
                    internal_pos, key=lambda item: str(item[0])
                )
                self._emit(
                    out,
                    "nontight-cycle",
                    f"positive recursion through {{{names}}}; the program is "
                    f"not tight (handled by the unfounded-set check)",
                    location,
                )

        # Aggregates/conditions over a signature in the same recursive
        # component as the rule's own head: the grounder rejects these.
        for info in infos:
            head_components = {
                component_of.get(head) for head in info.heads
            } - {None}
            if not head_components:
                continue
            for occ in info.uses:
                if not occ.needs_closed:
                    continue
                if component_of.get(occ.signature) in head_components:
                    name, arity = occ.signature
                    self._emit(
                        out,
                        "recursive-aggregate",
                        f"{name}/{arity} is used in an aggregate or element "
                        f"condition but is recursive with the rule head; the "
                        f"grounder cannot stratify this",
                        occ.location,
                        width=len(name),
                    )

    # -- theory atoms ------------------------------------------------------

    def _check_theory_atoms(
        self,
        program: ast.Program,
        infos: Sequence[_RuleInfo],
        out: List[Diagnostic],
    ) -> None:
        for info in infos:
            head = info.rule.head
            if not isinstance(head, ast.TheoryAtom):
                continue
            location = info.rule.location
            name = head.name
            if name == "__minimize":
                self._check_minimize(head, location, out)
                continue
            if name not in _THEORY_NAMES:
                message = (
                    f"&{name} is not handled by any registered theory "
                    f"(it would be silently ignored)"
                )
                close = difflib.get_close_matches(
                    name, _THEORY_NAMES + ("minimize",), n=1, cutoff=0.5
                )
                if close == ["minimize"]:
                    message += "; did you mean '#minimize'?"
                elif close:
                    message += f"; did you mean '&{close[0]}'?"
                self._emit(out, "unknown-theory-atom", message, location)
                continue
            if name == "dom":
                self._check_dom(head, location, out)
            else:
                self._check_sum(head, location, out)

    def _check_dom(
        self,
        atom: ast.TheoryAtom,
        location: Optional[ast.Location],
        out: List[Diagnostic],
    ) -> None:
        def bad(reason: str) -> None:
            self._emit(
                out,
                "malformed-theory-atom",
                f"&dom: {reason} in `{atom}`",
                location,
            )

        if atom.guard is None or atom.guard[0] != "=":
            bad("requires a '= variable' guard")
        elif not isinstance(atom.guard[1], (ast.FunctionTerm, ast.Variable)):
            bad("guard must name an integer variable")
        if len(atom.elements) != 1:
            bad("takes exactly one lo..hi element")
            return
        element = atom.elements[0]
        if element.condition:
            bad("elements cannot be conditional")
        if len(element.terms) != 1 or not isinstance(
            element.terms[0], ast.IntervalTerm
        ):
            bad("element must be a lo..hi interval")

    def _check_sum(
        self,
        atom: ast.TheoryAtom,
        location: Optional[ast.Location],
        out: List[Diagnostic],
    ) -> None:
        def bad(reason: str) -> None:
            self._emit(
                out,
                "malformed-theory-atom",
                f"&{atom.name}: {reason} in `{atom}`",
                location,
            )

        if atom.guard is None:
            bad("requires a guard (e.g. '<= bound')")
        for element in atom.elements:
            if not element.condition or not element.terms:
                continue
            # Conditional elements must have a *numeric* weight term — the
            # theory rejects conditional variable terms at init time.
            weight_vars: Set[str] = set()
            _collect_theory_functions(element.terms[0], weight_vars)
            if weight_vars:
                names = ", ".join(sorted(weight_vars))
                bad(f"conditional variable terms ({names}) are not supported")

    def _check_minimize(
        self,
        atom: ast.TheoryAtom,
        location: Optional[ast.Location],
        out: List[Diagnostic],
    ) -> None:
        for element in atom.elements:
            if not element.terms:
                continue
            weight = element.terms[0]
            if not ast.term_variables(weight, set()) and _ground_non_number(weight):
                self._emit(
                    out,
                    "malformed-theory-atom",
                    f"minimize weight {weight} is not an integer",
                    location,
                )

    # -- abstract-domain checks --------------------------------------------

    @staticmethod
    def _analyze(program: ast.Program) -> Optional[DomainAnalysis]:
        """Run the abstract domain analysis; ``None`` if it fails (the
        dependent checks then degrade gracefully)."""
        try:
            return analyze_rules(program.rules, externals=program.externals)
        except Exception:
            return None

    def _check_domains(
        self,
        program: ast.Program,
        infos: Sequence[_RuleInfo],
        analysis: Optional[DomainAnalysis],
        out: List[Diagnostic],
    ) -> None:
        """Emit ``type-conflict``/``empty-domain``/
        ``comparison-out-of-range``/``constraint-vacuous`` from the
        analyzer's dead-rule verdicts."""
        if analysis is None:
            return
        derivable = {sig for info in infos for sig in info.heads}
        derivable |= set(program.externals)
        for index, dead in sorted(analysis.dead.items()):
            info = infos[index]
            rule = info.rule
            if dead.cause == "empty" and any(
                not occ.negative and occ.signature not in derivable
                for occ in info.uses
            ):
                # Already covered by undefined-predicate / dead-rule.
                continue
            location = dead.location or rule.location
            if rule.head is None:
                self._emit(
                    out,
                    "constraint-vacuous",
                    f"constraint `{rule}` is vacuous: {dead.detail}",
                    location,
                )
            elif dead.cause == "comparison":
                self._emit(
                    out,
                    "comparison-out-of-range",
                    f"rule `{rule}` can never fire: {dead.detail}",
                    location,
                )
            elif dead.cause == "type":
                self._emit(
                    out,
                    "type-conflict",
                    f"rule `{rule}` can never fire: {dead.detail}",
                    location,
                )
            else:
                self._emit(
                    out,
                    "empty-domain",
                    f"rule `{rule}` can never fire: {dead.detail}",
                    location,
                )

    def _check_duplicates(
        self, infos: Sequence[_RuleInfo], out: List[Diagnostic]
    ) -> None:
        """Flag rules that are syntactically identical to an earlier
        rule after canonical variable renaming."""
        seen: Dict[str, ast.Rule] = {}
        for info in infos:
            key = str(canonical_rule(info.rule))
            first = seen.get(key)
            if first is None:
                seen[key] = info.rule
                continue
            where = ""
            if first.location is not None:
                where = f" (line {first.location.line})"
            self._emit(
                out,
                "duplicate-rule",
                f"rule `{info.rule}` duplicates an earlier rule{where} "
                f"up to variable renaming",
                info.rule.location,
            )

    # -- grounding-blowup estimation ---------------------------------------

    def _check_blowup(
        self,
        infos: Sequence[_RuleInfo],
        analysis: Optional[DomainAnalysis],
        out: List[Diagnostic],
    ) -> None:
        estimates = _signature_estimates(infos)
        threshold = self.config.blowup_threshold
        dead = set(analysis.dead) if analysis is not None else set()
        for index, info in enumerate(infos):
            if index in dead:
                continue  # provably never fires — no join to fear
            size = _rule_join_estimate(info.rule, estimates)
            if size > threshold and analysis is not None:
                # The domain-aware estimate is an upper bound too; take
                # the tighter of the two before warning.
                refined = analysis.rule_estimate(info.rule)
                if refined is not None:
                    size = min(size, refined)
            if size > threshold:
                self._emit(
                    out,
                    "grounding-blowup",
                    f"estimated join size ~{size:.1e} instances exceeds the "
                    f"threshold ({threshold:.0e}); consider reordering or "
                    f"adding selective body literals",
                    info.rule.location,
                )


def _collect_theory_functions(term: ast.Term, out: Set[str]) -> None:
    """Function terms inside a theory weight — integer variables at ground
    time (ASP variables become numbers, so they are skipped)."""
    if isinstance(term, ast.FunctionTerm):
        out.add(str(term))
    elif isinstance(term, (ast.BinaryTerm,)):
        _collect_theory_functions(term.lhs, out)
        _collect_theory_functions(term.rhs, out)
    elif isinstance(term, ast.UnaryTerm):
        _collect_theory_functions(term.argument, out)


def _ground_non_number(term: ast.Term) -> bool:
    value = evaluate_term(term, {})
    return not isinstance(value, Number)


# ---------------------------------------------------------------------------
# Join-size estimation
# ---------------------------------------------------------------------------


def _term_instances(term: ast.Term) -> float:
    """How many ground instances a (fact) term expands to."""
    if isinstance(term, ast.IntervalTerm):
        lower = evaluate_term(term.lower, {})
        upper = evaluate_term(term.upper, {})
        if isinstance(lower, Number) and isinstance(upper, Number):
            return float(max(upper.value - lower.value + 1, 0))
        return float(_UNKNOWN_INTERVAL)
    if isinstance(term, ast.PoolTerm):
        return float(sum(_term_instances(option) for option in term.options))
    if isinstance(term, ast.FunctionTerm):
        size = 1.0
        for argument in term.arguments:
            size *= _term_instances(argument)
        return size
    return 1.0


def _signature_estimates(infos: Sequence[_RuleInfo]) -> Dict[Signature, float]:
    """Per-signature instance estimates: exact for facts, greedy-join
    derived for rule heads, stabilized over a few passes."""
    estimates: Dict[Signature, float] = {}
    facts: Dict[Signature, float] = {}
    for info in infos:
        rule = info.rule
        if rule.body or not isinstance(rule.head, ast.FunctionTerm):
            continue
        sig = _signature(rule.head)
        facts[sig] = facts.get(sig, 0.0) + _term_instances(rule.head)
    estimates.update(facts)
    for _ in range(3):
        fresh: Dict[Signature, float] = dict(facts)
        for info in infos:
            rule = info.rule
            if not rule.body and isinstance(rule.head, ast.FunctionTerm):
                continue
            head = rule.head
            if isinstance(head, ast.FunctionTerm):
                join = _join_estimate(_positives(rule.body), estimates)
                contribution = join * _head_multiplier(head)
                sig = _signature(head)
                fresh[sig] = min(
                    fresh.get(sig, 0.0) + contribution, _ESTIMATE_CAP
                )
            elif isinstance(head, ast.ChoiceHead):
                body = _positives(rule.body)
                for element in head.elements:
                    join = _join_estimate(
                        body + _positives(element.condition), estimates
                    )
                    sig = _signature(element.atom)
                    fresh[sig] = min(fresh.get(sig, 0.0) + join, _ESTIMATE_CAP)
        for sig, value in fresh.items():
            estimates[sig] = max(estimates.get(sig, 0.0), value)
    return estimates


def _positives(items: Iterable[ast.BodyItem]) -> List[ast.Literal]:
    return [
        item
        for item in items
        if isinstance(item, ast.Literal) and item.sign == 0
    ]


def _head_multiplier(head: ast.FunctionTerm) -> float:
    """Interval/pool expansion of ground head arguments (``p(1..n, X)``)."""
    size = 1.0
    for argument in head.arguments:
        if not ast.term_variables(argument, set()):
            size *= _term_instances(argument)
    return size


def _join_estimate(
    positives: Sequence[ast.Literal], estimates: Dict[Signature, float]
) -> float:
    """Greedy estimate of the join size over the positive body.

    Literals are consumed most-bound-first; a literal over signature ``s``
    with ``k`` of ``n`` variables still unbound contributes
    ``count(s) ** (k/n)`` — the classic independence discount for shared
    join variables.  Binder equalities contribute their value side's
    expansion.  An underivable signature makes the whole join empty.
    """
    bound: Set[str] = set()
    remaining: List[ast.Literal] = list(positives)
    total = 1.0
    while remaining:
        best_index = 0
        best_new = None
        for index, literal in enumerate(remaining):
            new = len(ast.literal_variables(literal) - bound)
            if best_new is None or new < best_new:
                best_index, best_new = index, new
        literal = remaining.pop(best_index)
        variables = ast.literal_variables(literal)
        new = variables - bound
        if isinstance(literal.atom, ast.Comparison):
            if new:
                # Binder: the value side's expansion (e.g. X = 1..n).
                for side in (literal.atom.lhs, literal.atom.rhs):
                    if not isinstance(side, ast.Variable):
                        total *= max(_term_instances(side), 1.0)
        else:
            count = estimates.get(_signature(literal.atom), 0.0)
            if count <= 0.0:
                return 0.0
            if new:
                total *= max(count ** (len(new) / max(len(variables), 1)), 1.0)
        bound |= variables
        total = min(total, _ESTIMATE_CAP)
    return total


def _rule_join_estimate(
    rule: ast.Rule, estimates: Dict[Signature, float]
) -> float:
    """The largest join the grounder would enumerate for ``rule``."""
    size = _join_estimate(_positives(rule.body), estimates)
    conditions: List[Sequence[ast.Literal]] = []
    head = rule.head
    if isinstance(head, ast.ChoiceHead):
        conditions.extend(element.condition for element in head.elements)
    elif isinstance(head, ast.TheoryAtom):
        conditions.extend(element.condition for element in head.elements)
    for item in rule.body:
        if isinstance(item, ast.Aggregate):
            conditions.extend(element.condition for element in item.elements)
    best = size
    for condition in conditions:
        extended = _join_estimate(
            _positives(rule.body) + _positives(condition), estimates
        )
        best = max(best, extended)
    return best


# ---------------------------------------------------------------------------
# Module-level conveniences
# ---------------------------------------------------------------------------


def lint_text(
    text: str,
    filename: str = "<string>",
    config: Optional[LintConfig] = None,
) -> LintReport:
    """Lint one program text; returns a sorted, suppression-filtered report."""
    return Linter(config).lint_text(text, filename)


def lint_files(
    paths: Sequence[str], config: Optional[LintConfig] = None
) -> LintReport:
    """Lint several files into one aggregated report."""
    linter = Linter(config)
    report = LintReport()
    started = perf_counter()
    for path in paths:
        with open(path) as handle:
            text = handle.read()
        part = linter.lint_text(text, filename=path)
        report.diagnostics.extend(part.diagnostics)
        report.files.append(path)
    report.sort()
    report.seconds = perf_counter() - started
    return report
