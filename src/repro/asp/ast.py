"""Non-ground program AST.

The AST mirrors the fragment of the ASP-Core-2 / clingo input language that
the synthesis encodings need:

* normal rules, facts and integrity constraints,
* choice rules with optional cardinality bounds,
* ``#count``/``#sum`` body aggregates with guards,
* arithmetic terms, intervals and comparison builtins,
* theory atoms ``&name(args) { elements } op term`` in rule heads (used for
  the linear/difference background theory).

The node types are immutable dataclasses without behaviour.  The
*traversal* section at the end of the module is the one place that knows
where terms and literals sit in a rule: the grounder, the safety check,
the linter and the domain analysis find variables, binders, predicate
occurrences, head atoms and ``#const`` names through it, and rebuild
rules (``#const`` substitution, variable renaming) with
:func:`map_terms`.  Instantiation logic lives in
:mod:`repro.asp.grounder`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple, Union

from repro.asp.syntax import Symbol

__all__ = [
    "Location",
    "Variable",
    "SymbolTerm",
    "FunctionTerm",
    "BinaryTerm",
    "UnaryTerm",
    "IntervalTerm",
    "PoolTerm",
    "Term",
    "Comparison",
    "Literal",
    "AggregateElement",
    "Aggregate",
    "BodyItem",
    "ChoiceElement",
    "ChoiceHead",
    "TheoryElement",
    "TheoryAtom",
    "Head",
    "Rule",
    "Program",
    "COMPARISON_OPS",
    "term_variables",
    "literal_variables",
    "match_variables",
    "is_binder",
    "occurrences",
    "head_atoms",
    "visit_terms",
    "map_term",
    "map_terms",
    "constants_mentioned",
    "substitute_constants",
]

# ---------------------------------------------------------------------------
# Source locations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Location:
    """1-based line/column of a construct in its source text.

    Locations are carried on :class:`Rule`, :class:`Literal` and
    :class:`Aggregate` nodes with ``compare=False`` so that two nodes with
    the same content stay equal (and hash alike) regardless of where they
    were written — grounding and tests rely on structural equality.
    """

    line: int
    column: int

    def __str__(self) -> str:
        return f"line {self.line}, column {self.column}"


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Variable:
    """A first-order variable, e.g. ``X``.

    The parser names each anonymous ``_`` apart (``_Anon1``, ...).
    """

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class SymbolTerm:
    """A ground symbol embedded in a non-ground term."""

    symbol: Symbol

    def __str__(self) -> str:
        return str(self.symbol)


@dataclass(frozen=True)
class FunctionTerm:
    """A (possibly non-ground) function term ``name(t1, ..., tN)``."""

    name: str
    arguments: Tuple["Term", ...]

    def __str__(self) -> str:
        if not self.arguments:
            return self.name
        args = ",".join(str(a) for a in self.arguments)
        return f"{self.name}({args})"


@dataclass(frozen=True)
class BinaryTerm:
    """Arithmetic ``lhs op rhs`` with ``op`` in ``+ - * / \\ **``."""

    op: str
    lhs: "Term"
    rhs: "Term"

    def __str__(self) -> str:
        return f"({self.lhs}{self.op}{self.rhs})"


@dataclass(frozen=True)
class UnaryTerm:
    """Unary minus or absolute value."""

    op: str
    argument: "Term"

    def __str__(self) -> str:
        if self.op == "|":
            return f"|{self.argument}|"
        return f"({self.op}{self.argument})"


@dataclass(frozen=True)
class IntervalTerm:
    """An integer interval ``lo..hi``."""

    lower: "Term"
    upper: "Term"

    def __str__(self) -> str:
        return f"({self.lower}..{self.upper})"


@dataclass(frozen=True)
class PoolTerm:
    """An argument pool ``t1; t2; ...`` (expands like an interval)."""

    options: Tuple["Term", ...]

    def __str__(self) -> str:
        return "(" + ";".join(str(o) for o in self.options) + ")"


Term = Union[
    Variable, SymbolTerm, FunctionTerm, BinaryTerm, UnaryTerm, IntervalTerm, PoolTerm
]

# ---------------------------------------------------------------------------
# Literals
# ---------------------------------------------------------------------------

COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=")


@dataclass(frozen=True)
class Comparison:
    """A builtin comparison ``lhs op rhs``."""

    op: str
    lhs: Term
    rhs: Term

    def __str__(self) -> str:
        return f"{self.lhs}{self.op}{self.rhs}"


@dataclass(frozen=True)
class Literal:
    """A (possibly negated) symbolic atom or comparison.

    ``sign`` is the number of leading ``not`` — 0 for positive, 1 for
    default negation.  Double negation is normalized away by the parser.
    """

    sign: int
    atom: Union[FunctionTerm, Comparison]
    location: Optional[Location] = field(default=None, compare=False, repr=False)

    def __str__(self) -> str:
        prefix = "not " * self.sign
        return prefix + str(self.atom)


# ---------------------------------------------------------------------------
# Aggregates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AggregateElement:
    """One element ``t1,...,tN : l1, ..., lM`` of an aggregate."""

    terms: Tuple[Term, ...]
    condition: Tuple[Literal, ...]

    def __str__(self) -> str:
        terms = ",".join(str(t) for t in self.terms)
        if self.condition:
            cond = ",".join(str(c) for c in self.condition)
            return f"{terms}:{cond}"
        return terms


@dataclass(frozen=True)
class Aggregate:
    """A body aggregate ``lhs op #fun { elements } op rhs``.

    ``function`` is ``"count"`` or ``"sum"``.  Guards are optional; each is
    a ``(op, term)`` pair with the aggregate on the left-hand side, i.e.
    ``lower_guard = (">=", 2)`` means the aggregate value is at least 2.
    ``sign`` is 0 for a positive body occurrence, 1 under default negation.
    """

    sign: int
    function: str
    elements: Tuple[AggregateElement, ...]
    left_guard: Optional[Tuple[str, Term]] = None
    right_guard: Optional[Tuple[str, Term]] = None
    location: Optional[Location] = field(default=None, compare=False, repr=False)

    def __str__(self) -> str:
        elems = ";".join(str(e) for e in self.elements)
        text = f"#{self.function}{{{elems}}}"
        if self.left_guard is not None:
            op, term = self.left_guard
            inverted = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}
            text = f"{term}{inverted[op]}{text}"
        if self.right_guard is not None:
            op, term = self.right_guard
            text = f"{text}{op}{term}"
        return ("not " * self.sign) + text


BodyItem = Union[Literal, Aggregate]

# ---------------------------------------------------------------------------
# Heads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChoiceElement:
    """One element ``atom : condition`` of a choice head."""

    atom: FunctionTerm
    condition: Tuple[Literal, ...]

    def __str__(self) -> str:
        if self.condition:
            cond = ",".join(str(c) for c in self.condition)
            return f"{self.atom}:{cond}"
        return str(self.atom)


@dataclass(frozen=True)
class ChoiceHead:
    """A choice head ``lower { elements } upper`` (bounds optional)."""

    elements: Tuple[ChoiceElement, ...]
    lower: Optional[Term] = None
    upper: Optional[Term] = None

    def __str__(self) -> str:
        elems = ";".join(str(e) for e in self.elements)
        lower = f"{self.lower} " if self.lower is not None else ""
        upper = f" {self.upper}" if self.upper is not None else ""
        return f"{lower}{{{elems}}}{upper}"


@dataclass(frozen=True)
class TheoryElement:
    """One element ``t1,...,tN : l1,...,lM`` of a theory atom."""

    terms: Tuple[Term, ...]
    condition: Tuple[Literal, ...]

    def __str__(self) -> str:
        terms = ",".join(str(t) for t in self.terms)
        if self.condition:
            cond = ",".join(str(c) for c in self.condition)
            return f"{terms}:{cond}"
        return terms


@dataclass(frozen=True)
class TheoryAtom:
    """A theory atom ``&name(args) { elements } op term``.

    The synthesis encodings use ``&diff { u - v } <= c`` and
    ``&sum { c1*x1 ; ... } <= c`` in rule heads; the grounder instantiates
    them and hands them to the registered theory via the propagator
    interface.
    """

    name: str
    arguments: Tuple[Term, ...]
    elements: Tuple[TheoryElement, ...]
    guard: Optional[Tuple[str, Term]] = None

    def __str__(self) -> str:
        args = ""
        if self.arguments:
            args = "(" + ",".join(str(a) for a in self.arguments) + ")"
        elems = ";".join(str(e) for e in self.elements)
        guard = ""
        if self.guard is not None:
            guard = f" {self.guard[0]} {self.guard[1]}"
        return f"&{self.name}{args}{{{elems}}}{guard}"


Head = Union[FunctionTerm, ChoiceHead, TheoryAtom, None]

# ---------------------------------------------------------------------------
# Rules and programs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rule:
    """``head :- body.`` — ``head is None`` for integrity constraints."""

    head: Head
    body: Tuple[BodyItem, ...] = ()
    location: Optional[Location] = field(default=None, compare=False, repr=False)

    def __str__(self) -> str:
        if self.head is None:
            if not self.body:
                return ":- ."
            return ":- " + ", ".join(str(b) for b in self.body) + "."
        if not self.body:
            return f"{self.head}."
        body = ", ".join(str(b) for b in self.body)
        return f"{self.head} :- {body}."


@dataclass
class Program:
    """A parsed program: rules, ``#const`` definitions, ``#show`` filters.

    ``shows`` is ``None`` when no ``#show`` statement occurred (show
    everything); otherwise the set of ``(name, arity)`` signatures to
    display (empty set for a bare ``#show.``).
    """

    rules: list = field(default_factory=list)
    constants: dict = field(default_factory=dict)
    shows: Optional[set] = None
    #: Signatures declared ``#external`` (their atoms default to false
    #: and are controlled via ``Control.assign_external``).
    externals: set = field(default_factory=set)

    def __str__(self) -> str:
        lines = [f"#const {name}={value}." for name, value in self.constants.items()]
        lines.extend(str(r) for r in self.rules)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Traversal
# ---------------------------------------------------------------------------
#
# The term sites of a rule, in the one order every walk below uses: the
# head first (a plain atom's arguments; a choice head's elements, each
# atom's arguments then its condition, then the lower and upper bound; a
# theory atom's arguments, then its elements, terms then condition, then
# its guard), then each body item (a literal's arguments or the two
# sides of its comparison; an aggregate's left and right guard, then its
# elements, terms then condition).  Predicate names — of atoms, literals,
# choice elements and theory atoms — are never terms.  A *leaf* is a
# variable, a symbol or a constant name (a function term without
# arguments); every other term has subterms.


def term_variables(term: Term, out: Set[str]) -> Set[str]:
    """Add the names of the variables in ``term`` to ``out``; returns ``out``."""
    if isinstance(term, Variable):
        out.add(term.name)
    elif isinstance(term, FunctionTerm):
        for argument in term.arguments:
            term_variables(argument, out)
    elif isinstance(term, BinaryTerm):
        term_variables(term.lhs, out)
        term_variables(term.rhs, out)
    elif isinstance(term, UnaryTerm):
        term_variables(term.argument, out)
    elif isinstance(term, IntervalTerm):
        term_variables(term.lower, out)
        term_variables(term.upper, out)
    elif isinstance(term, PoolTerm):
        for option in term.options:
            term_variables(option, out)
    return out


def literal_variables(literal: Literal) -> Set[str]:
    """The names of the variables in ``literal``."""
    atom = literal.atom
    if isinstance(atom, Comparison):
        return term_variables(atom.rhs, term_variables(atom.lhs, set()))
    return term_variables(atom, set())


def match_variables(term: Term, bound: Set[str], computed: Set[str]) -> None:
    """Sort the variables of ``term`` by what matching a ground symbol
    does to them: those at plain argument positions go to ``bound``
    (matching binds them); those under arithmetic, intervals or pools go
    to ``computed`` (matching can only evaluate them, never invert)."""
    if isinstance(term, Variable):
        bound.add(term.name)
    elif isinstance(term, FunctionTerm):
        for argument in term.arguments:
            match_variables(argument, bound, computed)
    elif not isinstance(term, SymbolTerm):
        term_variables(term, computed)


def is_binder(item: BodyItem) -> bool:
    """Is ``item`` a positive equality ``X = term`` or ``term = X``?

    Such a literal generates the values of its variable during a join
    (gringo's assignment idiom, intervals included: ``X = 1..n``).
    """
    if not isinstance(item, Literal) or item.sign != 0:
        return False
    atom = item.atom
    return (
        isinstance(atom, Comparison)
        and atom.op == "="
        and (isinstance(atom.lhs, Variable) or isinstance(atom.rhs, Variable))
    )


def occurrences(rule: Rule) -> Iterator[Tuple[Literal, bool]]:
    """Yield ``(literal, in_condition)`` for every predicate literal of ``rule``.

    The body's literals and its aggregates' element conditions come in
    body order, then the element conditions of a choice or theory head;
    ``in_condition`` is True inside an element condition.
    """
    for item in rule.body:
        if isinstance(item, Literal):
            if isinstance(item.atom, FunctionTerm):
                yield item, False
            continue
        for element in item.elements:
            for literal in element.condition:
                if isinstance(literal.atom, FunctionTerm):
                    yield literal, True
    head = rule.head
    if isinstance(head, (ChoiceHead, TheoryAtom)):
        for element in head.elements:
            for literal in element.condition:
                if isinstance(literal.atom, FunctionTerm):
                    yield literal, True


def head_atoms(rule: Rule) -> List[Tuple[FunctionTerm, Tuple[Literal, ...]]]:
    """The atoms ``rule`` derives, each with its element condition
    (empty for a plain head; none for a constraint or a theory head)."""
    head = rule.head
    if isinstance(head, FunctionTerm):
        return [(head, ())]
    if isinstance(head, ChoiceHead):
        return [(element.atom, element.condition) for element in head.elements]
    return []


def _visit_term(term: Term, fn: Callable[[Term], object]) -> None:
    if isinstance(term, (Variable, SymbolTerm)):
        fn(term)
    elif isinstance(term, FunctionTerm):
        if not term.arguments:
            fn(term)
        for argument in term.arguments:
            _visit_term(argument, fn)
    elif isinstance(term, BinaryTerm):
        _visit_term(term.lhs, fn)
        _visit_term(term.rhs, fn)
    elif isinstance(term, UnaryTerm):
        _visit_term(term.argument, fn)
    elif isinstance(term, IntervalTerm):
        _visit_term(term.lower, fn)
        _visit_term(term.upper, fn)
    elif isinstance(term, PoolTerm):
        for option in term.options:
            _visit_term(option, fn)


def _visit_literal(literal: Literal, fn: Callable[[Term], object]) -> None:
    atom = literal.atom
    if isinstance(atom, Comparison):
        _visit_term(atom.lhs, fn)
        _visit_term(atom.rhs, fn)
    else:
        for argument in atom.arguments:
            _visit_term(argument, fn)


def visit_terms(rule: Rule, fn: Callable[[Term], object]) -> None:
    """Call ``fn`` on every leaf term of ``rule``, in site order.

    The read-only twin of :func:`map_terms`: both reach the same leaves
    in the same order, and neither reaches a predicate name.
    """
    head = rule.head
    if isinstance(head, FunctionTerm):
        for argument in head.arguments:
            _visit_term(argument, fn)
    elif isinstance(head, ChoiceHead):
        for element in head.elements:
            for argument in element.atom.arguments:
                _visit_term(argument, fn)
            for literal in element.condition:
                _visit_literal(literal, fn)
        for bound in (head.lower, head.upper):
            if bound is not None:
                _visit_term(bound, fn)
    elif isinstance(head, TheoryAtom):
        for argument in head.arguments:
            _visit_term(argument, fn)
        for element in head.elements:
            for term in element.terms:
                _visit_term(term, fn)
            for literal in element.condition:
                _visit_literal(literal, fn)
        if head.guard is not None:
            _visit_term(head.guard[1], fn)
    for item in rule.body:
        if isinstance(item, Literal):
            _visit_literal(item, fn)
            continue
        for guard in (item.left_guard, item.right_guard):
            if guard is not None:
                _visit_term(guard[1], fn)
        for element in item.elements:
            for term in element.terms:
                _visit_term(term, fn)
            for literal in element.condition:
                _visit_literal(literal, fn)


def map_term(term: Term, leaf: Callable[[Term], Term]) -> Term:
    """``term`` rebuilt bottom-up with every leaf replaced by ``leaf(node)``."""
    if isinstance(term, FunctionTerm):
        if not term.arguments:
            return leaf(term)
        return FunctionTerm(term.name, tuple(map_term(a, leaf) for a in term.arguments))
    if isinstance(term, BinaryTerm):
        return BinaryTerm(term.op, map_term(term.lhs, leaf), map_term(term.rhs, leaf))
    if isinstance(term, UnaryTerm):
        return UnaryTerm(term.op, map_term(term.argument, leaf))
    if isinstance(term, IntervalTerm):
        return IntervalTerm(map_term(term.lower, leaf), map_term(term.upper, leaf))
    if isinstance(term, PoolTerm):
        return PoolTerm(tuple(map_term(o, leaf) for o in term.options))
    return leaf(term)


def map_terms(rule: Rule, leaf: Callable[[Term], Term]) -> Rule:
    """``rule`` rebuilt with every leaf term replaced by ``leaf(node)``.

    Leaves are reached in site order, as :func:`visit_terms` reaches
    them.  Predicate names stay, and so does the ``location`` of the
    rule and of every literal and aggregate in it.
    """

    def term(node: Term) -> Term:
        return map_term(node, leaf)

    def atom(node: FunctionTerm) -> FunctionTerm:
        return FunctionTerm(node.name, tuple(term(a) for a in node.arguments))

    def literal(node: Literal) -> Literal:
        inner = node.atom
        if isinstance(inner, Comparison):
            inner = Comparison(inner.op, term(inner.lhs), term(inner.rhs))
        else:
            inner = atom(inner)
        return Literal(node.sign, inner, location=node.location)

    def condition(literals: Tuple[Literal, ...]) -> Tuple[Literal, ...]:
        return tuple(literal(c) for c in literals)

    def guard(pair: Optional[Tuple[str, Term]]) -> Optional[Tuple[str, Term]]:
        return None if pair is None else (pair[0], term(pair[1]))

    def body_item(item: BodyItem) -> BodyItem:
        if isinstance(item, Literal):
            return literal(item)
        left, right = guard(item.left_guard), guard(item.right_guard)
        elements = tuple(
            AggregateElement(tuple(term(t) for t in e.terms), condition(e.condition))
            for e in item.elements
        )
        return Aggregate(
            item.sign, item.function, elements, left, right, location=item.location
        )

    head = rule.head
    if isinstance(head, FunctionTerm):
        head = atom(head)
    elif isinstance(head, ChoiceHead):
        elements = tuple(
            ChoiceElement(atom(e.atom), condition(e.condition)) for e in head.elements
        )
        bounds = [None if b is None else term(b) for b in (head.lower, head.upper)]
        head = ChoiceHead(elements, *bounds)
    elif isinstance(head, TheoryAtom):
        arguments = tuple(term(a) for a in head.arguments)
        elements = tuple(
            TheoryElement(tuple(term(t) for t in e.terms), condition(e.condition))
            for e in head.elements
        )
        head = TheoryAtom(head.name, arguments, elements, guard(head.guard))
    return Rule(head, tuple(body_item(b) for b in rule.body), location=rule.location)


def constants_mentioned(rule: Rule, constants: Dict[str, Term]) -> Tuple[str, ...]:
    """The names in ``constants`` that :func:`substitute_constants` would
    replace in ``rule``, in first-seen order.

    The prepared-rule memo keys a rule on these names and their values,
    so this read-only walk must find exactly the leaves the substitution
    rebuilds — both go through the one site order above.
    """
    if not constants:
        return ()
    found: Dict[str, None] = {}

    def leaf(term: Term) -> None:
        if isinstance(term, FunctionTerm) and term.name in constants:
            found[term.name] = None

    visit_terms(rule, leaf)
    return tuple(found)


def substitute_constants(rule: Rule, constants: Dict[str, Term]) -> Rule:
    """``rule`` with every ``#const`` name among its terms replaced by
    its value (predicate names are never replaced)."""
    if not constants:
        return rule

    def leaf(term: Term) -> Term:
        if isinstance(term, FunctionTerm):
            return constants.get(term.name, term)
        return term

    return map_terms(rule, leaf)
