"""Grounding: instantiation of non-ground rules.

The grounder computes, per dependency component, a fixpoint over
*possibly-true* atoms: starting from the facts, every rule is instantiated
against the current set of possible atoms (matching positive body
literals, evaluating builtins), and the head atoms of every instance are
added to the set.  This over-approximates the atoms of any answer set, so
solving on the resulting ground program is sound and complete.

Instantiation is scheduled along the condensation of the rule/predicate
dependency graph (as in gringo): a rule is grounded only after the
components of the predicates it uses under negation, in aggregate
elements, or in element conditions are *closed* (fully grounded).  This
makes the following simplifications sound:

* positive body literals over *facts* are dropped,
* positive body literals over impossible atoms drop the whole instance,
* negative body literals over closed impossible atoms are dropped,
* negative body literals over facts drop the whole instance,
* fully-determined comparisons are evaluated away.

Negative literals over predicates of the *same* component (negative
recursion, e.g. ``a :- not b.  b :- not a.``) are kept unsimplified; the
translator resolves atoms that never became possible.  Aggregates and
element conditions over predicates of the same component ("recursive
aggregates") are rejected with :class:`GroundingError` — the synthesis
encodings do not need them.

Facts may arrive as ground atoms instead of text (``Grounder(...,
facts=...)``).  The facts of a signature that no rule defines, atoms and
ground text facts alike, share one schedule node and are emitted without
a join, exactly as one node per fact would emit them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.asp import ast
from repro.asp.ast import is_binder, literal_variables, match_variables, term_variables
from repro.asp.syntax import Function, Number, Symbol
from repro.graphs import add_edge, condensation

__all__ = [
    "GroundingError",
    "GroundingStatistics",
    "GroundAggregate",
    "GroundAggregateElement",
    "GroundChoice",
    "GroundRule",
    "GroundTheoryAtom",
    "TheoryTermOp",
    "Grounder",
    "evaluate_term",
    "evaluate_comparison",
    "ground_program",
]


class GroundingError(Exception):
    """Raised when a rule cannot be safely instantiated."""


@dataclass
class GroundingStatistics:
    """Effort counters of one :meth:`Grounder.ground` run.

    ``instantiations`` counts rule-instance emissions attempted (one per
    substitution produced by the body join); ``delta_rounds`` counts the
    semi-naive re-evaluation rounds beyond each batch's first full pass
    (for the naive mode: full fixpoint passes beyond the first).
    """

    mode: str = "seminaive"
    seconds: float = 0.0
    instantiations: int = 0
    delta_rounds: int = 0


# ---------------------------------------------------------------------------
# Ground representations
# ---------------------------------------------------------------------------

#: A ground literal: (sign, atom symbol); sign 0 positive, 1 negative.
GroundLiteral = Tuple[int, Function]

Signature = Tuple[str, int]


@dataclass(frozen=True)
class GroundAggregateElement:
    """A ground aggregate element: a term tuple plus condition instances.

    ASP-Core-2 aggregates have *set* semantics over term tuples: a tuple
    contributes (once) if any of its condition instances holds, so all
    instances sharing a tuple are grouped here.
    """

    terms: Tuple[Symbol, ...]
    conditions: Tuple[Tuple[GroundLiteral, ...], ...]

    @property
    def weight(self) -> int:
        """The #sum weight: the first term, which must be a number."""
        if not self.terms or not isinstance(self.terms[0], Number):
            raise GroundingError(
                f"#sum element {self.terms} does not start with an integer weight"
            )
        return self.terms[0].value


@dataclass(frozen=True)
class GroundAggregate:
    """A ground body aggregate with ``(op, bound)`` guards (aggregate on LHS)."""

    sign: int
    function: str  # "count" or "sum"
    elements: Tuple[GroundAggregateElement, ...]
    left_guard: Optional[Tuple[str, int]]
    right_guard: Optional[Tuple[str, int]]


@dataclass(frozen=True)
class TheoryTermOp:
    """A ground theory term with structure, e.g. ``start(t2) - start(t1)``.

    Leaves are plain symbols; arithmetic between numbers is folded during
    grounding, everything else is kept symbolic for the theory to
    interpret.
    """

    op: str
    arguments: Tuple["GroundTheoryTerm", ...]

    def __str__(self) -> str:
        if len(self.arguments) == 1:
            return f"({self.op}{self.arguments[0]})"
        return "(" + f"{self.op}".join(str(a) for a in self.arguments) + ")"


GroundTheoryTerm = object  # Union[Symbol, TheoryTermOp]


@dataclass(frozen=True)
class GroundTheoryAtom:
    """A ground theory atom handed to the background theory."""

    name: str
    arguments: Tuple[Symbol, ...]
    elements: Tuple[Tuple[Tuple[GroundTheoryTerm, ...], Tuple[GroundLiteral, ...]], ...]
    guard: Optional[Tuple[str, Symbol]]

    def __str__(self) -> str:
        args = ""
        if self.arguments:
            args = "(" + ",".join(str(a) for a in self.arguments) + ")"
        elems = []
        for terms, condition in self.elements:
            text = ",".join(str(t) for t in terms)
            if condition:
                text += " : " + ",".join(
                    ("not " if sign else "") + str(atom) for sign, atom in condition
                )
            elems.append(text)
        guard = f" {self.guard[0]} {self.guard[1]}" if self.guard else ""
        return f"&{self.name}{args}{{{';'.join(elems)}}}{guard}"


@dataclass(frozen=True)
class GroundChoice:
    """A ground choice head: elements are (atom, condition) pairs."""

    elements: Tuple[Tuple[Function, Tuple[GroundLiteral, ...]], ...]
    lower: Optional[int]
    upper: Optional[int]


@dataclass(frozen=True)
class GroundRule:
    """A ground rule.

    ``head`` is a :class:`Function` atom, a :class:`GroundChoice`, a
    :class:`GroundTheoryAtom`, or ``None`` for an integrity constraint.
    ``body`` holds ground symbolic literals; ``aggregates`` holds ground
    body aggregates.
    """

    head: object
    body: Tuple[GroundLiteral, ...]
    aggregates: Tuple[GroundAggregate, ...] = ()

    def __str__(self) -> str:
        parts = [("not " if sign else "") + str(atom) for sign, atom in self.body]
        parts.extend(str(a) for a in self.aggregates)
        body = ", ".join(parts)
        if isinstance(self.head, GroundChoice):
            elems = ";".join(str(atom) for atom, _cond in self.head.elements)
            lower = f"{self.head.lower} " if self.head.lower is not None else ""
            upper = f" {self.head.upper}" if self.head.upper is not None else ""
            head = f"{lower}{{{elems}}}{upper}"
        elif self.head is None:
            head = ""
        else:
            head = str(self.head)
        if not body:
            return f"{head}."
        return f"{head} :- {body}."


# ---------------------------------------------------------------------------
# Term evaluation and matching
# ---------------------------------------------------------------------------


def evaluate_term(term: ast.Term, subst: Dict[str, Symbol]) -> Optional[Symbol]:
    """Evaluate ``term`` under ``subst`` to a single ground symbol.

    Returns ``None`` when the term contains unbound variables, an interval,
    or ill-typed arithmetic.
    """
    if isinstance(term, ast.SymbolTerm):
        return term.symbol
    if isinstance(term, ast.Variable):
        return subst.get(term.name)
    if isinstance(term, ast.FunctionTerm):
        args = []
        for argument in term.arguments:
            value = evaluate_term(argument, subst)
            if value is None:
                return None
            args.append(value)
        return Function(term.name, args)
    if isinstance(term, ast.BinaryTerm):
        lhs = evaluate_term(term.lhs, subst)
        rhs = evaluate_term(term.rhs, subst)
        if not isinstance(lhs, Number) or not isinstance(rhs, Number):
            return None
        try:
            if term.op == "+":
                return Number(lhs.value + rhs.value)
            if term.op == "-":
                return Number(lhs.value - rhs.value)
            if term.op == "*":
                return Number(lhs.value * rhs.value)
            if term.op == "/":
                return Number(_int_div(lhs.value, rhs.value))
            if term.op == "\\":
                return Number(_int_mod(lhs.value, rhs.value))
            if term.op == "**":
                return Number(lhs.value**rhs.value)
        except (ZeroDivisionError, ValueError):
            return None
        raise GroundingError(f"unknown arithmetic operator {term.op!r}")
    if isinstance(term, ast.UnaryTerm):
        inner = evaluate_term(term.argument, subst)
        if not isinstance(inner, Number):
            return None
        if term.op == "-":
            return Number(-inner.value)
        if term.op == "|":
            return Number(abs(inner.value))
        raise GroundingError(f"unknown unary operator {term.op!r}")
    if isinstance(term, (ast.IntervalTerm, ast.PoolTerm)):
        return None
    raise GroundingError(f"cannot evaluate term {term}")


def _int_div(a: int, b: int) -> int:
    """Truncated integer division (gringo semantics)."""
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _int_mod(a: int, b: int) -> int:
    return a - b * _int_div(a, b)


def evaluate_term_all(term: ast.Term, subst: Dict[str, Symbol]) -> List[Symbol]:
    """Evaluate a term that may contain intervals/pools, yielding every
    instance."""
    if isinstance(term, ast.PoolTerm):
        out: List[Symbol] = []
        for option in term.options:
            out.extend(evaluate_term_all(option, subst))
        return out
    if isinstance(term, ast.IntervalTerm):
        lower = evaluate_term(term.lower, subst)
        upper = evaluate_term(term.upper, subst)
        if not isinstance(lower, Number) or not isinstance(upper, Number):
            return []
        return [Number(v) for v in range(lower.value, upper.value + 1)]
    if isinstance(term, ast.FunctionTerm):
        choices = [evaluate_term_all(a, subst) for a in term.arguments]
        if any(not c for c in choices):
            return []
        return [Function(term.name, combo) for combo in itertools.product(*choices)]
    value = evaluate_term(term, subst)
    return [value] if value is not None else []


def evaluate_comparison(op: str, lhs: Symbol, rhs: Symbol) -> bool:
    """Evaluate a ground comparison under the total symbol order."""
    if op == "=":
        return lhs == rhs
    if op == "!=":
        return lhs != rhs
    if op == "<":
        return lhs < rhs
    if op == "<=":
        return lhs <= rhs
    if op == ">":
        return lhs > rhs
    if op == ">=":
        return lhs >= rhs
    raise GroundingError(f"unknown comparison operator {op!r}")


def _match(term: ast.Term, symbol: Symbol, subst: Dict[str, Symbol]) -> bool:
    """Match ``term`` against ground ``symbol``, extending ``subst``.

    Arithmetic subterms must be evaluable from already-bound variables (we
    never invert arithmetic, mirroring gringo's safety requirements).
    """
    if isinstance(term, ast.Variable):
        bound = subst.get(term.name)
        if bound is None:
            subst[term.name] = symbol
            return True
        return bound == symbol
    if isinstance(term, ast.SymbolTerm):
        return term.symbol == symbol
    if isinstance(term, ast.FunctionTerm):
        if (
            not isinstance(symbol, Function)
            or symbol.name != term.name
            or len(symbol.arguments) != len(term.arguments)
        ):
            return False
        for sub_term, sub_symbol in zip(term.arguments, symbol.arguments):
            if not _match(sub_term, sub_symbol, subst):
                return False
        return True
    if isinstance(term, ast.PoolTerm):
        raise GroundingError(
            "argument pools are only supported in rule heads and facts"
        )
    # Arithmetic / interval: evaluate and compare.
    value = evaluate_term(term, subst)
    return value is not None and value == symbol


def _match_trail(
    term: ast.Term,
    symbol: Symbol,
    subst: Dict[str, Symbol],
    trail: List[str],
) -> bool:
    """Like :func:`_match`, but records new bindings on ``trail``.

    The caller undoes a (possibly partial) match by deleting the trailed
    names from ``subst`` — the shared-dictionary replacement for the
    per-candidate ``dict(subst)`` copies of the naive join.
    """
    if isinstance(term, ast.Variable):
        bound = subst.get(term.name)
        if bound is None:
            subst[term.name] = symbol
            trail.append(term.name)
            return True
        return bound == symbol
    if isinstance(term, ast.SymbolTerm):
        return term.symbol == symbol
    if isinstance(term, ast.FunctionTerm):
        if (
            not isinstance(symbol, Function)
            or symbol.name != term.name
            or len(symbol.arguments) != len(term.arguments)
        ):
            return False
        for sub_term, sub_symbol in zip(term.arguments, symbol.arguments):
            if not _match_trail(sub_term, sub_symbol, subst, trail):
                return False
        return True
    if isinstance(term, ast.PoolTerm):
        raise GroundingError(
            "argument pools are only supported in rule heads and facts"
        )
    value = evaluate_term(term, subst)
    return value is not None and value == symbol


def ground_theory_term(term: ast.Term, subst: Dict[str, Symbol]) -> GroundTheoryTerm:
    """Ground a theory-element term, folding numeric arithmetic.

    Non-numeric structure (e.g. ``start(t1) - start(t2)`` or
    ``3 * use(m, l)``) is preserved as :class:`TheoryTermOp` for the
    background theory to interpret.
    """
    if isinstance(term, ast.IntervalTerm):
        return TheoryTermOp(
            "..",
            (
                ground_theory_term(term.lower, subst),
                ground_theory_term(term.upper, subst),
            ),
        )
    if isinstance(term, (ast.BinaryTerm, ast.UnaryTerm)):
        value = evaluate_term(term, subst)
        if value is not None:
            return value
        if isinstance(term, ast.BinaryTerm):
            return TheoryTermOp(
                term.op,
                (
                    ground_theory_term(term.lhs, subst),
                    ground_theory_term(term.rhs, subst),
                ),
            )
        return TheoryTermOp(term.op, (ground_theory_term(term.argument, subst),))
    value = evaluate_term(term, subst)
    if value is None:
        raise GroundingError(f"theory term {term} is not ground under {subst}")
    return value


# ---------------------------------------------------------------------------
# The grounder
# ---------------------------------------------------------------------------


@dataclass
class _AtomIndex:
    """Possible/fact atom bookkeeping with a per-signature index.

    Besides the per-signature candidate lists, the index maintains
    *argument-position hash buckets*: ``buckets[(sig, pos)]`` maps the
    ground symbol at argument ``pos`` to the candidates carrying it.  A
    position's bucket is built lazily on the first
    :meth:`candidates_at` probe and kept up to date by
    :meth:`add_possible` from then on, so only positions the join
    actually constrains pay for indexing.
    """

    by_signature: Dict[Signature, List[Function]] = field(default_factory=dict)
    possible: Set[Function] = field(default_factory=set)
    facts: Set[Function] = field(default_factory=set)
    buckets: Dict[Tuple[Signature, int], Dict[Symbol, List[Function]]] = field(
        default_factory=dict
    )
    #: Positions with a built bucket, per signature (maintenance list).
    indexed_positions: Dict[Signature, List[int]] = field(default_factory=dict)

    def add_possible(self, atom: Function) -> bool:
        if atom in self.possible:
            return False
        self.possible.add(atom)
        signature = atom.signature
        self.by_signature.setdefault(signature, []).append(atom)
        for position in self.indexed_positions.get(signature, ()):
            self.buckets[(signature, position)].setdefault(
                atom.arguments[position], []
            ).append(atom)
        return True

    def add_fact(self, atom: Function) -> bool:
        self.add_possible(atom)
        if atom in self.facts:
            return False
        self.facts.add(atom)
        return True

    def candidates(self, name: str, arity: int) -> Sequence[Function]:
        return self.by_signature.get((name, arity), ())

    def candidates_at(
        self, signature: Signature, position: int, value: Symbol
    ) -> Sequence[Function]:
        """Candidates of ``signature`` whose argument ``position`` is ``value``."""
        key = (signature, position)
        bucket = self.buckets.get(key)
        if bucket is None:
            bucket = {}
            for atom in self.by_signature.get(signature, ()):
                bucket.setdefault(atom.arguments[position], []).append(atom)
            self.buckets[key] = bucket
            self.indexed_positions.setdefault(signature, []).append(position)
        return bucket.get(value, ())


#: Argument-plan kinds: how a body-literal argument binds at join time.
_ARG_CONST = 0  # ground symbol, known at planning time
_ARG_VAR = 1  # a plain variable (looked up in the substitution)
_ARG_TERM = 2  # arithmetic/structured term (evaluated under the substitution)


class _LiteralPlan:
    """Per-literal join metadata, computed once per rule.

    Caches the variable sets (recomputed on every fixpoint iteration
    before) and classifies each argument position for index probing.
    """

    __slots__ = (
        "literal",
        "is_comparison",
        "signature",
        "atom",
        "variables",
        "complex_vars",
        "args",
    )

    def __init__(self, literal: ast.Literal):
        self.literal = literal
        atom = literal.atom
        self.atom = atom
        self.variables = frozenset(literal_variables(literal))
        self.is_comparison = isinstance(atom, ast.Comparison)
        if self.is_comparison:
            self.signature: Optional[Signature] = None
            self.complex_vars: frozenset = frozenset()
            self.args: Tuple[Tuple[int, object], ...] = ()
            return
        assert isinstance(atom, ast.FunctionTerm)
        self.signature = (atom.name, len(atom.arguments))
        complex_vars: Set[str] = set()
        match_variables(atom, set(), complex_vars)
        self.complex_vars = frozenset(complex_vars)
        args: List[Tuple[int, object]] = []
        for argument in atom.arguments:
            if isinstance(argument, ast.SymbolTerm):
                args.append((_ARG_CONST, argument.symbol))
            elif isinstance(argument, ast.Variable):
                args.append((_ARG_VAR, argument.name))
            else:
                variables = term_variables(argument, set())
                value = None if variables else evaluate_term(argument, {})
                if value is not None:
                    args.append((_ARG_CONST, value))
                else:
                    args.append((_ARG_TERM, argument))
        self.args = tuple(args)


class _RulePlan:
    """Per-rule instantiation metadata: body split, occurrence cache.

    ``occurrences`` holds ``(signature, needs_closed)`` per predicate
    literal: element conditions and negative body literals need their
    signature closed first.  ``conditions`` holds the signatures read in
    element conditions.
    """

    __slots__ = (
        "rule",
        "positives",
        "positive_literals",
        "others",
        "occurrences",
        "conditions",
        "head_signatures",
    )

    def __init__(self, rule: ast.Rule) -> None:
        self.rule = rule
        self.positive_literals: List[ast.Literal] = []
        self.others: List[ast.BodyItem] = []
        for item in rule.body:
            if (
                isinstance(item, ast.Literal)
                and item.sign == 0
                and isinstance(item.atom, ast.FunctionTerm)
            ):
                self.positive_literals.append(item)
            elif is_binder(item):
                self.positive_literals.append(item)
            else:
                self.others.append(item)
        self.positives = [_LiteralPlan(lit) for lit in self.positive_literals]
        self.occurrences: List[Tuple[Signature, bool]] = []
        conditions: Set[Signature] = set()
        for literal, in_condition in ast.occurrences(rule):
            sig = (literal.atom.name, len(literal.atom.arguments))
            self.occurrences.append((sig, in_condition or literal.sign == 1))
            if in_condition:
                conditions.add(sig)
        self.conditions = frozenset(conditions)
        self.head_signatures: List[Signature] = [
            (atom.name, len(atom.arguments)) for atom, _ in ast.head_atoms(rule)
        ]


class PreparedRule:
    """A rule ready for instantiation: ``#const``-substituted and planned.

    ``fact`` is the atom of a bodiless rule whose head is ground (its
    plan is built only when a rule also defines the fact's signature);
    ``violations`` holds the rule's fatal safety violations, on which
    :meth:`Grounder.ground` raises.  Any other prepared rule is complete
    when :func:`prepare_rule` returns it and is never mutated, so one
    can serve every program that holds the rule under the same constant
    values, on any thread.
    """

    __slots__ = ("rule", "fact", "violations", "_plan")

    def __init__(self, rule: ast.Rule, fact: Optional[Function], violations) -> None:
        self.rule = rule
        self.fact = fact
        self.violations = violations
        self._plan: Optional[_RulePlan] = None
        if fact is None:
            self._plan = _RulePlan(rule)

    @property
    def plan(self) -> "_RulePlan":
        if self._plan is None:
            self._plan = _RulePlan(self.rule)
        return self._plan


def prepare_rule(rule: ast.Rule, constants: Dict[str, ast.Term]) -> PreparedRule:
    """Substitute ``constants`` into ``rule``, plan it and check its safety."""
    from repro.analysis.safety import fatal_violations

    rule = ast.substitute_constants(rule, constants)
    if not rule.body and isinstance(rule.head, ast.FunctionTerm):
        atom = evaluate_term(rule.head, {})
        if atom is not None:
            return PreparedRule(rule, atom, ())
    return PreparedRule(rule, None, tuple(fatal_violations(rule)))


def _fact_rule(atom: Function) -> PreparedRule:
    """An atom fact as the bodiless rule a parse of its text would give."""

    def term(symbol: Symbol) -> ast.Term:
        if isinstance(symbol, Function):
            return ast.FunctionTerm(
                symbol.name, tuple(term(argument) for argument in symbol.arguments)
            )
        return ast.SymbolTerm(symbol)

    return PreparedRule(ast.Rule(term(atom), ()), atom, ())


class Grounder:
    """Instantiates a non-ground program into :class:`GroundRule` objects.

    Two instantiation strategies share the scheduling, simplification,
    and emission machinery:

    * ``mode="seminaive"`` (default) — per-batch delta evaluation with
      argument-indexed, selectivity-ordered joins and trail-based
      bind/undo matching;
    * ``mode="naive"`` — the original full-join fixpoint, kept as the
      differential-testing reference.
    """

    #: Safety cap on rule instantiations per :meth:`ground` run: a
    #: recursion that derives ever larger terms (``r(X+1) :- r(Y), X =
    #: Y.``) has no finite fixpoint and would otherwise never return.
    #: The curated encodings need at most ~4k.
    MAX_INSTANTIATIONS = 1_000_000

    def __init__(
        self,
        program: ast.Program,
        mode: str = "seminaive",
        facts: Sequence[Tuple[int, Sequence[Function]]] = (),
        prepare=prepare_rule,
    ):
        """``facts`` holds ground atoms given as data, as ``(position,
        atoms)`` blocks that come before ``program.rules[position]`` in
        statement order; ``prepare`` turns each rule into a
        :class:`PreparedRule` (a memoizing caller passes its own)."""
        if mode not in ("seminaive", "naive"):
            raise ValueError(f"unknown grounding mode {mode!r}")
        started = perf_counter()
        self._mode = mode
        prepared = [prepare(rule, program.constants) for rule in program.rules]
        # Signatures some rule other than a ground fact defines: their
        # facts keep one schedule node per fact, all others share one.
        defined: Set[Signature] = set()
        for entry in prepared:
            if entry.fact is None:
                defined.update(entry.plan.head_signatures)
        blocks: Dict[int, List[Sequence[Function]]] = {}
        for position, atoms in facts:
            blocks.setdefault(position, []).append(atoms)
        self._rules: List[ast.Rule] = []
        self._plans: List[_RulePlan] = []
        self._violations: List[tuple] = []
        #: Statement order: a rule index, or a fact signature at the
        #: position of its first fact.
        self._statements: List[object] = []
        self._fact_groups: Dict[Signature, List[Function]] = {}
        for position in range(len(prepared) + 1):
            for atoms in blocks.get(position, ()):
                for atom in atoms:
                    self._add_statement(atom, None, defined)
            if position < len(prepared):
                entry = prepared[position]
                self._add_statement(entry.fact, entry, defined)
        self._index = _AtomIndex()
        self._emitted: Set[object] = set()
        self._output: List[GroundRule] = []
        self._closed: Set[Signature] = set()
        self._open: Set[Signature] = set()
        #: Literal-variable caches for the naive join (satellite of the
        #: plan caches: conditions and the reference path use these).
        self._literal_vars: Dict[int, Set[str]] = {}
        self._literal_complex_vars: Dict[int, Set[str]] = {}
        # Semi-naive delta bookkeeping (per batch).
        self._track_delta = False
        self._delta_next: Dict[Signature, Dict[Function, None]] = {}
        self.statistics = GroundingStatistics(mode=mode)
        self.statistics.seconds += perf_counter() - started

    def _add_statement(
        self,
        fact: Optional[Function],
        entry: Optional[PreparedRule],
        defined: Set[Signature],
    ) -> None:
        """Append one statement: a fact of a signature no rule defines
        joins its signature's fact node; anything else is a rule."""
        if fact is not None and fact.signature not in defined:
            group = self._fact_groups.get(fact.signature)
            if group is None:
                group = self._fact_groups[fact.signature] = []
                self._statements.append(fact.signature)
            group.append(fact)
            return
        if entry is None:
            entry = _fact_rule(fact)
        self._statements.append(len(self._rules))
        self._rules.append(entry.rule)
        self._plans.append(entry.plan)
        self._violations.append(entry.violations)

    # -- component scheduling ---------------------------------------------------

    def _schedule(self) -> List[Tuple[object, Set[Signature]]]:
        """Order the statements into batches along the dependency condensation.

        The graph is bipartite: signature nodes and statement nodes.  A
        rule node points to every signature it reads (``rule → body
        signature``) and every signature points to the statements that
        define it (``head signature → rule``).  A fact signature that no
        rule defines has one statement node for all its facts, added at
        the position of its first fact.  A topological order of the
        condensation lists consumers first, so the batches run in the
        reversed order: a rule's dependencies are ground before the rule.
        A rule in a batch may read its own batch's signatures only
        through plain positive/negative literals (checked by the caller).

        Returns ``(batch, signatures)`` pairs: ``batch`` is a sorted list
        of rule indices or a fact signature, ``signatures`` the
        signature nodes of its component.
        """
        graph: Dict[Tuple, Dict[Tuple, None]] = {}
        for statement in self._statements:
            if isinstance(statement, int):
                plan = self._plans[statement]
                node = ("rule", statement)
                graph.setdefault(node, {})
                for sig, _needs_closed in plan.occurrences:
                    add_edge(graph, node, ("sig", sig))
                for sig in plan.head_signatures:
                    add_edge(graph, ("sig", sig), node)
            else:
                node = ("facts", statement)
                graph.setdefault(node, {})
                add_edge(graph, ("sig", statement), node)
        batches: List[Tuple[object, Set[Signature]]] = []
        for component in reversed(condensation(graph)):
            rules: List[int] = []
            facts: Optional[Signature] = None
            sigs: Set[Signature] = set()
            for kind, payload in component:
                if kind == "rule":
                    rules.append(payload)
                elif kind == "facts":
                    facts = payload
                else:
                    sigs.add(payload)
            batches.append((sorted(rules) if facts is None else facts, sigs))
        return batches

    # -- fixpoint ---------------------------------------------------------------

    def ground(self) -> List[GroundRule]:
        """Run the component-wise grounding fixpoint; return the ground rules."""
        started = perf_counter()
        self._check_safety()
        for batch, sigs in self._schedule():
            if not isinstance(batch, list):
                self._ground_facts(self._fact_groups[batch])
                continue
            self._open = set(sigs)
            self._check_batch(batch)
            if self._mode == "seminaive":
                self._ground_batch_seminaive(batch)
            else:
                self._ground_batch_naive(batch)
            self._closed |= sigs
            self._open = set()
        self.statistics.seconds += perf_counter() - started
        return self._output

    def _check_safety(self) -> None:
        """Reject the first rule whose variables would crash
        instantiation, naming the rule and its source location instead
        of failing mid-join with a bare ``unsafe literal`` message.  The
        runtime checks in :meth:`_ground_literal` / :meth:`_ground_head`
        stay as a backstop.
        """
        from repro.analysis.safety import display_name

        for rule, violations in zip(self._rules, self._violations):
            if not violations:
                continue
            names = ", ".join(
                sorted({display_name(v.variable) for v in violations})
            )
            first = violations[0]
            where = ""
            if first.location is not None:
                where = f" at {first.location}"
            raise GroundingError(
                f"unsafe variable(s) {names} in {first.context} "
                f"of rule `{rule}`{where}"
            )

    def _ground_facts(self, atoms: List[Function]) -> None:
        """Emit the facts of one signature that no rule defines.

        They come out as one schedule node per fact would emit them (in
        reversed input order) and count as those nodes' instantiations
        would: once each, and in naive mode once more, with one more
        pass, for each new fact.
        """
        statistics = self.statistics
        naive = self._mode == "naive"
        for atom in reversed(atoms):
            statistics.instantiations += 1
            if self._index.add_fact(atom):
                self._output.append(GroundRule(atom, ()))
                if naive:
                    statistics.instantiations += 1
                    statistics.delta_rounds += 1
        if statistics.instantiations > self.MAX_INSTANTIATIONS:
            raise self._cap_error()

    def _ground_batch_naive(self, rule_indices: List[int]) -> None:
        """Full-join fixpoint over the batch (reference strategy)."""
        passes = 0
        changed = True
        while changed:
            passes += 1
            changed = False
            for index in rule_indices:
                if self._ground_rule(index):
                    changed = True
        self.statistics.delta_rounds += max(passes - 1, 0)

    def _ground_batch_seminaive(self, rule_indices: List[int]) -> None:
        """Semi-naive delta evaluation of one batch.

        The first round is a full indexed join per rule.  From then on,
        only rule instantiations binding at least one atom whose status
        changed in the previous round (*newly possible* or *newly a
        fact* — fact transitions re-trigger simplified re-emission) are
        derived: the join is re-run once per positive open-signature
        literal, restricted to the delta atoms at that position.  Batches
        without recursion through an open signature finish after the
        first round — there is no verification pass to pay for.
        """
        plans = [self._plans[index] for index in rule_indices]
        delta_plans: List[Tuple[_RulePlan, List[int]]] = []
        for plan in plans:
            positions = [
                j
                for j, literal_plan in enumerate(plan.positives)
                if literal_plan.signature is not None
                and literal_plan.signature in self._open
            ]
            if positions:
                delta_plans.append((plan, positions))
        self._track_delta = bool(delta_plans)
        self._delta_next = {}
        for plan in plans:
            self._ground_rule_indexed(plan)
        while self._delta_next:
            delta, self._delta_next = self._delta_next, {}
            self.statistics.delta_rounds += 1
            for plan, positions in delta_plans:
                for j in positions:
                    atoms = delta.get(plan.positives[j].signature)
                    if atoms:
                        self._ground_rule_indexed(plan, j, list(atoms))
        self._track_delta = False

    def _check_batch(self, rule_indices: List[int]) -> None:
        """Reject recursion through aggregates or element conditions."""
        for index in rule_indices:
            plan = self._plans[index]
            for sig, needs_closed in plan.occurrences:
                if needs_closed and sig in self._open:
                    # Plain negative body literals are tolerated (negative
                    # recursion); conditions/aggregates are not.
                    if sig in plan.conditions:
                        raise GroundingError(
                            f"predicate {sig[0]}/{sig[1]} is used in an aggregate or "
                            f"element condition of a rule in its own dependency "
                            f"component (recursive aggregates are not supported)"
                        )

    @property
    def possible_atoms(self) -> Set[Function]:
        return self._index.possible

    @property
    def fact_atoms(self) -> Set[Function]:
        return self._index.facts

    # -- rule instantiation -------------------------------------------------

    def _ground_rule(self, index: int) -> bool:
        plan = self._plans[index]
        changed = False
        for subst in self._join(plan.positive_literals, {}):
            if self._emit_instance(
                plan.rule, plan.positive_literals, plan.others, subst
            ):
                changed = True
        return changed

    def _join(
        self, positives: List[ast.Literal], subst: Dict[str, Symbol]
    ) -> Iterator[Dict[str, Symbol]]:
        """Backtracking join of positive body literals against possible atoms.

        Literals are selected greedily by fewest unbound variables so that
        arithmetic subterms are evaluable (safety-driven reordering).
        """
        if not positives:
            yield dict(subst)
            return
        index = self._select_literal(positives, subst)
        literal = positives[index]
        remaining = positives[:index] + positives[index + 1 :]
        atom = literal.atom
        if isinstance(atom, ast.Comparison):
            # Binder: enumerate the values of the ground side.
            variable, source = self._binder_parts(atom, subst)
            if variable is None:
                # Both sides ground by now: an ordinary equality test.
                lhs = evaluate_term(atom.lhs, subst)
                rhs_values = evaluate_term_all(atom.rhs, subst)
                if lhs is not None and lhs in rhs_values:
                    yield from self._join(remaining, subst)
                return
            for value in evaluate_term_all(source, subst):
                local = dict(subst)
                if _match(variable, value, local):
                    yield from self._join(remaining, local)
            return
        assert isinstance(atom, ast.FunctionTerm)
        # Candidate lists are append-only within a batch: snapshotting the
        # length gives the same iteration-time view as copying the list,
        # without the per-step allocation.
        candidates = self._index.candidates(atom.name, len(atom.arguments))
        for position in range(len(candidates)):
            candidate = candidates[position]
            local = dict(subst)
            if _match(atom, candidate, local):
                yield from self._join(remaining, local)

    @staticmethod
    def _binder_parts(comparison: ast.Comparison, subst: Dict[str, Symbol]):
        """Split ``X = term`` into (variable side, value side); the
        variable side is None when already bound."""
        lhs, rhs = comparison.lhs, comparison.rhs
        if isinstance(lhs, ast.Variable) and lhs.name not in subst:
            return lhs, rhs
        if isinstance(rhs, ast.Variable) and rhs.name not in subst:
            return rhs, lhs
        return None, None

    def _cached_literal_vars(self, literal: ast.Literal) -> Set[str]:
        """Memoized :func:`literal_variables` (AST literals are stable
        objects, recomputing their variable set per fixpoint pass was
        pure waste)."""
        key = id(literal)
        cached = self._literal_vars.get(key)
        if cached is None:
            cached = literal_variables(literal)
            self._literal_vars[key] = cached
        return cached

    def _cached_complex_vars(self, atom: ast.FunctionTerm) -> Set[str]:
        key = id(atom)
        cached = self._literal_complex_vars.get(key)
        if cached is None:
            cached = set()
            match_variables(atom, set(), cached)
            self._literal_complex_vars[key] = cached
        return cached

    def _select_literal(self, positives: List[ast.Literal], subst: Dict[str, Symbol]) -> int:
        """Pick the next positive literal to match.

        Literals whose arithmetic subterms are fully bound are preferred
        (they can actually be matched), binders whose value side is bound
        count as immediately evaluable; ties are broken by fewest unbound
        variables.
        """
        best = 0
        best_key = None
        for i, literal in enumerate(positives):
            atom = literal.atom
            if isinstance(atom, ast.Comparison):
                variable, source = self._binder_parts(atom, subst)
                if variable is None:
                    source_vars: Set[str] = set()
                    term_variables(atom.lhs, source_vars)
                    term_variables(atom.rhs, source_vars)
                else:
                    source_vars = set()
                    term_variables(source, source_vars)
                blocked = len(source_vars - subst.keys())
                unbound = len(self._cached_literal_vars(literal) - subst.keys())
            else:
                assert isinstance(atom, ast.FunctionTerm)
                blocked = len(self._cached_complex_vars(atom) - subst.keys())
                unbound = len(self._cached_literal_vars(literal) - subst.keys())
            key = (blocked, unbound)
            if best_key is None or key < best_key:
                best, best_key = i, key
                if key == (0, 0):
                    break
        return best

    # -- indexed, trail-based join (semi-naive path) -------------------------

    def _ground_rule_indexed(
        self,
        plan: _RulePlan,
        delta_position: Optional[int] = None,
        delta_atoms: Optional[List[Function]] = None,
    ) -> None:
        """Instantiate one rule through the indexed join.

        With a ``delta_position``, the join is restricted: that literal
        may only bind atoms from ``delta_atoms`` (the batch's previous
        round delta), which is what makes re-evaluation semi-naive.  The
        restricted literal still participates in normal selectivity
        ordering, so arithmetic safety is preserved.
        """
        restrict = None
        if delta_position is not None:
            restrict = (plan.positives[delta_position], delta_atoms)
        for subst in self._join_indexed(plan.positives, {}, restrict):
            self._emit_instance(
                plan.rule, plan.positive_literals, plan.others, subst
            )

    def _join_indexed(
        self,
        plans: List[_LiteralPlan],
        subst: Dict[str, Symbol],
        restrict: Optional[Tuple[_LiteralPlan, List[Function]]] = None,
    ) -> Iterator[Dict[str, Symbol]]:
        """Backtracking join over literal plans with argument indexing.

        The substitution dictionary is *shared*: bindings are recorded on
        a trail and undone on backtracking instead of copying the dict
        per candidate.  Yielded substitutions are only valid until the
        generator is advanced — :meth:`_emit_instance` consumes them
        synchronously.
        """
        if not plans:
            yield subst
            return
        index, candidates = self._select_plan(plans, subst, restrict)
        plan = plans[index]
        remaining = plans[:index] + plans[index + 1 :]
        if plan.is_comparison:
            atom = plan.atom
            variable, source = self._binder_parts(atom, subst)
            if variable is None:
                lhs = evaluate_term(atom.lhs, subst)
                rhs_values = evaluate_term_all(atom.rhs, subst)
                if lhs is not None and lhs in rhs_values:
                    yield from self._join_indexed(remaining, subst, restrict)
                return
            trail: List[str] = []
            for value in evaluate_term_all(source, subst):
                if _match_trail(variable, value, subst, trail):
                    yield from self._join_indexed(remaining, subst, restrict)
                for name in trail:
                    del subst[name]
                trail.clear()
            return
        if restrict is not None and plan is restrict[0]:
            restrict = None  # the delta literal is being bound right here
        atom = plan.atom
        trail = []
        # Length snapshot: candidates appended during emission are picked
        # up by the next delta round, not by the running iteration.
        for position in range(len(candidates)):
            if _match_trail(atom, candidates[position], subst, trail):
                yield from self._join_indexed(remaining, subst, restrict)
            for name in trail:
                del subst[name]
            trail.clear()

    def _probe(
        self, plan: _LiteralPlan, subst: Dict[str, Symbol]
    ) -> Sequence[Function]:
        """Smallest candidate pool for ``plan`` under ``subst``.

        Every argument position whose value is determined (constant,
        bound variable, or evaluable term) probes its hash bucket; the
        smallest bucket wins.  Unconstrained literals fall back to the
        full per-signature list.
        """
        signature = plan.signature
        best: Optional[Sequence[Function]] = None
        best_size = -1
        for position, (kind, payload) in enumerate(plan.args):
            if kind == _ARG_CONST:
                value = payload
            elif kind == _ARG_VAR:
                value = subst.get(payload)
                if value is None:
                    continue
            else:
                value = evaluate_term(payload, subst)
                if value is None:
                    continue
            bucket = self._index.candidates_at(signature, position, value)
            size = len(bucket)
            if not size:
                return ()
            if best is None or size < best_size:
                best, best_size = bucket, size
        if best is None:
            return self._index.candidates(signature[0], signature[1])
        return best

    def _select_plan(
        self,
        plans: List[_LiteralPlan],
        subst: Dict[str, Symbol],
        restrict: Optional[Tuple[_LiteralPlan, List[Function]]],
    ) -> Tuple[int, Optional[Sequence[Function]]]:
        """Selectivity-ordered literal selection.

        The key extends the naive ``(blocked, unbound)`` order with the
        candidate-pool size in the middle: among matchable literals the
        one with the smallest indexed bucket is joined first.  Returns
        the chosen index together with its (already probed) candidate
        pool so the caller does not probe twice.
        """
        best = 0
        best_key = None
        best_candidates: Optional[Sequence[Function]] = None
        for i, plan in enumerate(plans):
            candidates: Optional[Sequence[Function]] = None
            if plan.is_comparison:
                atom = plan.atom
                variable, source = self._binder_parts(atom, subst)
                if variable is None:
                    source_vars: Set[str] = set()
                    term_variables(atom.lhs, source_vars)
                    term_variables(atom.rhs, source_vars)
                    estimate = 0  # a decided comparison filters immediately
                else:
                    source_vars = set()
                    term_variables(source, source_vars)
                    estimate = 1  # a binder generates, prefer empty pools
                blocked = len(source_vars - subst.keys())
            else:
                blocked = len(plan.complex_vars - subst.keys())
                if restrict is not None and plan is restrict[0]:
                    candidates = restrict[1]
                else:
                    candidates = self._probe(plan, subst)
                estimate = len(candidates)
            unbound = len(plan.variables - subst.keys())
            key = (blocked, estimate, unbound)
            if best_key is None or key < best_key:
                best, best_key, best_candidates = i, key, candidates
                if blocked == 0 and estimate == 0:
                    break
        return best, best_candidates

    def _emit_instance(
        self,
        rule: ast.Rule,
        positives: List[ast.Literal],
        others: List[ast.BodyItem],
        subst: Dict[str, Symbol],
    ) -> bool:
        """Instantiate non-positive body parts and the head; emit the rule."""
        self.statistics.instantiations += 1
        if self.statistics.instantiations > self.MAX_INSTANTIATIONS:
            raise self._cap_error()
        body: List[GroundLiteral] = []
        # Keep matched positive literals that are not (closed) facts
        # (binder equalities are fully resolved by the join).
        for literal in positives:
            if isinstance(literal.atom, ast.Comparison):
                continue
            value = evaluate_term(literal.atom, subst)
            assert isinstance(value, Function)
            if value not in self._index.facts:
                body.append((0, value))

        aggregates: List[GroundAggregate] = []
        for item in others:
            if isinstance(item, ast.Literal):
                status = self._ground_literal(item, subst, body)
                if status is False:
                    return False
            else:
                aggregate = self._ground_aggregate(item, subst)
                if aggregate is False:
                    return False
                if aggregate is not None:
                    aggregates.append(aggregate)

        heads = self._ground_head(rule.head, subst)

        changed = False
        for head in heads:
            key = (head, tuple(body), tuple(aggregates))
            if key in self._emitted:
                continue
            self._emitted.add(key)
            ground = GroundRule(head, tuple(body), tuple(aggregates))
            self._output.append(ground)
            changed = True
            changed |= self._register_head(head, ground)
        return changed

    def _cap_error(self) -> GroundingError:
        return GroundingError(
            f"grounding exceeded {self.MAX_INSTANTIATIONS} rule "
            "instantiations; a recursive rule may derive ever larger "
            "terms"
        )

    def _register_head(self, head: object, ground: GroundRule) -> bool:
        changed = False
        if isinstance(head, Function):
            if not ground.body and not ground.aggregates:
                # add_fact reports possible->fact transitions too: those
                # re-trigger simplified re-emission in the delta rounds.
                if self._index.add_fact(head):
                    changed = True
                    self._note_delta(head)
            else:
                if self._index.add_possible(head):
                    changed = True
                    self._note_delta(head)
        elif isinstance(head, GroundChoice):
            for atom, _condition in head.elements:
                if self._index.add_possible(atom):
                    changed = True
                    self._note_delta(atom)
        return changed

    def _note_delta(self, atom: Function) -> None:
        """Record an atom whose status changed, for the next delta round."""
        if self._track_delta and atom.signature in self._open:
            self._delta_next.setdefault(atom.signature, {})[atom] = None

    # -- body parts -----------------------------------------------------------

    def _ground_literal(
        self,
        literal: ast.Literal,
        subst: Dict[str, Symbol],
        out: List[GroundLiteral],
    ) -> bool:
        """Ground one comparison or negative literal.

        Returns ``False`` to drop the whole instance; appends to ``out``
        when the literal must be kept.
        """
        atom = literal.atom
        if isinstance(atom, ast.Comparison):
            lhs = evaluate_term(atom.lhs, subst)
            rhs = evaluate_term(atom.rhs, subst)
            if lhs is None or rhs is None:
                raise GroundingError(f"comparison {atom} not fully bound under {subst}")
            holds = evaluate_comparison(atom.op, lhs, rhs)
            if literal.sign == 1:
                holds = not holds
            return holds
        value = evaluate_term(atom, subst)
        if value is None:
            raise GroundingError(f"unsafe literal {literal} under {subst}")
        assert isinstance(value, Function)
        if literal.sign == 1:
            if value.signature in self._open:
                # Same-component negation: keep unsimplified; the
                # translator resolves never-possible atoms to false.
                out.append((1, value))
                return True
            if value not in self._index.possible:
                return True  # trivially true
            if value in self._index.facts:
                return False  # trivially false
            out.append((1, value))
            return True
        # A positive literal can reach here only via element conditions.
        if value in self._index.facts:
            return True
        if value not in self._index.possible:
            return False
        out.append((0, value))
        return True

    def _ground_condition(
        self, condition: Sequence[ast.Literal], subst: Dict[str, Symbol]
    ) -> Iterator[Tuple[Dict[str, Symbol], Tuple[GroundLiteral, ...]]]:
        """Instantiate an element condition (choice/aggregate/theory).

        Yields ``(extended_subst, kept_literals)`` per instance; condition
        literals that are facts are simplified away.  Condition predicates
        are guaranteed closed by :meth:`_check_batch`.
        """
        positives = [
            c
            for c in condition
            if (c.sign == 0 and isinstance(c.atom, ast.FunctionTerm))
            or is_binder(c)
        ]
        others = [c for c in condition if c not in positives]
        for local in self._join(positives, subst):
            kept: List[GroundLiteral] = []
            ok = True
            for c in positives:
                if isinstance(c.atom, ast.Comparison):
                    continue  # binder: resolved by the join
                value = evaluate_term(c.atom, local)
                assert isinstance(value, Function)
                if value not in self._index.facts:
                    kept.append((0, value))
            for c in others:
                if not self._ground_literal(c, local, kept):
                    ok = False
                    break
            if ok:
                yield local, tuple(kept)

    def _ground_aggregate(self, aggregate: ast.Aggregate, subst: Dict[str, Symbol]):
        """Ground a body aggregate.

        Returns a :class:`GroundAggregate`, ``None`` when trivially true,
        or ``False`` when trivially false.
        """
        groups: Dict[Tuple[Symbol, ...], List[Tuple[GroundLiteral, ...]]] = {}
        order: List[Tuple[Symbol, ...]] = []
        for element in aggregate.elements:
            for local, kept in self._ground_condition(element.condition, subst):
                terms = tuple(evaluate_term(t, local) for t in element.terms)
                if any(t is None for t in terms):
                    raise GroundingError(
                        f"aggregate element terms {element.terms} not bound"
                    )
                if terms not in groups:
                    groups[terms] = []
                    order.append(terms)
                groups[terms].append(kept)
        elements = []
        for terms in order:
            conditions = groups[terms]
            if any(not c for c in conditions):
                conditions = [()]  # one condition is a fact: tuple always holds
            elements.append(
                GroundAggregateElement(terms, tuple(dict.fromkeys(conditions)))
            )

        def guard_value(guard) -> Optional[Tuple[str, int]]:
            if guard is None:
                return None
            op, term = guard
            value = evaluate_term(term, subst)
            if not isinstance(value, Number):
                raise GroundingError(f"aggregate guard {term} is not an integer")
            return (op, value.value)

        ground = GroundAggregate(
            aggregate.sign,
            aggregate.function,
            tuple(elements),
            guard_value(aggregate.left_guard),
            guard_value(aggregate.right_guard),
        )
        return self._simplify_aggregate(ground)

    @staticmethod
    def _simplify_aggregate(aggregate: GroundAggregate):
        """Evaluate an aggregate whose elements are all decided."""
        if any(element.conditions != ((),) for element in aggregate.elements):
            return aggregate
        if aggregate.function == "count":
            # #count has set semantics over whole tuples: elements carry
            # no integer weight (completion/naive already count each
            # tuple as 1), so .weight must not be evaluated here.
            value: Optional[int] = len(aggregate.elements)
        elif aggregate.function == "sum":
            value = sum(element.weight for element in aggregate.elements)
        elif aggregate.function == "min":
            weights = [element.weight for element in aggregate.elements]
            value = min(weights) if weights else None  # empty: #sup
        elif aggregate.function == "max":
            weights = [element.weight for element in aggregate.elements]
            value = max(weights) if weights else None  # empty: #inf
        else:
            raise GroundingError(f"unknown aggregate {aggregate.function!r}")
        holds = True
        for guard in (aggregate.left_guard, aggregate.right_guard):
            if guard is None:
                continue
            if value is None:
                # Empty #min (= #sup) exceeds every bound; empty #max
                # (= #inf) undercuts every bound.
                if aggregate.function == "min":
                    holds = holds and guard[0] in (">", ">=", "!=")
                else:
                    holds = holds and guard[0] in ("<", "<=", "!=")
            else:
                holds = holds and evaluate_comparison(
                    guard[0], Number(value), Number(guard[1])
                )
        if aggregate.sign == 1:
            holds = not holds
        return None if holds else False

    # -- heads ------------------------------------------------------------------

    def _ground_head(self, head: ast.Head, subst: Dict[str, Symbol]) -> List[object]:
        """Instantiate the head; returns a list of ground heads."""
        if head is None:
            return [None]
        if isinstance(head, ast.FunctionTerm):
            atoms = evaluate_term_all(head, subst)
            if not atoms:
                raise GroundingError(f"head {head} not bound under {subst}")
            for atom in atoms:
                if not isinstance(atom, Function):
                    raise GroundingError(f"head {atom} is not an atom")
            return atoms
        if isinstance(head, ast.ChoiceHead):
            elements: List[Tuple[Function, Tuple[GroundLiteral, ...]]] = []
            for element in head.elements:
                for local, kept in self._ground_condition(element.condition, subst):
                    for atom in evaluate_term_all(element.atom, local):
                        if not isinstance(atom, Function):
                            raise GroundingError(f"choice atom {atom} is not an atom")
                        elements.append((atom, kept))
            elements = list(dict.fromkeys(elements))

            def bound(term: Optional[ast.Term]) -> Optional[int]:
                if term is None:
                    return None
                value = evaluate_term(term, subst)
                if not isinstance(value, Number):
                    raise GroundingError(f"choice bound {term} is not an integer")
                return value.value

            return [GroundChoice(tuple(elements), bound(head.lower), bound(head.upper))]
        if isinstance(head, ast.TheoryAtom):
            arguments = tuple(evaluate_term(a, subst) for a in head.arguments)
            if any(a is None for a in arguments):
                raise GroundingError(f"theory atom arguments {head.arguments} not bound")
            elements = []
            for element in head.elements:
                for local, kept in self._ground_condition(element.condition, subst):
                    terms = tuple(ground_theory_term(t, local) for t in element.terms)
                    elements.append((terms, kept))
            guard = None
            if head.guard is not None:
                op, term = head.guard
                value = evaluate_term(term, subst)
                if value is None:
                    raise GroundingError(f"theory guard {term} not bound")
                guard = (op, value)
            return [
                GroundTheoryAtom(head.name, arguments, tuple(dict.fromkeys(elements)), guard)
            ]
        raise GroundingError(f"unsupported head {head!r}")


def ground_program(
    program: ast.Program, mode: str = "seminaive"
) -> Tuple[List[GroundRule], Set[Function], Set[Function]]:
    """Ground ``program``; returns (rules, possible atoms, fact atoms)."""
    grounder = Grounder(program, mode=mode)
    rules = grounder.ground()
    return rules, grounder.possible_atoms, grounder.fact_atoms
