"""Abstract interpretation of predicate argument domains.

The analyzer runs *before* grounding and infers, for every predicate
argument position, a sound over-approximation of the ground symbols
that can ever occupy it.  The abstract value (:class:`Dom`) tracks
three layers of precision:

* a **finite constant set** — exact, up to :data:`FINITE_CAP` symbols;
* once widened, an **integer interval** covering all numeric members
  (with saturation to ±infinity under widening);
* plus a **constructor-shape set** covering all non-numeric members by
  their top-level ``(name, arity)`` key (strings use a reserved key;
  ``None`` means "any non-number").

Inference is a bottom-up fixpoint over the predicate dependency
condensation (the same SCC decomposition the grounder's batch
scheduler uses): non-recursive components converge in one pass,
recursive components iterate with widening after
:data:`WIDEN_AFTER` rounds, followed by a verified narrowing step that
recovers precision lost to widening whenever the narrowed state is
still a post-fixpoint.

The soundness contract — every atom the grounder can derive lies in
the inferred domains — is what makes the one production consumer, the
**linter**, safe: it turns empty meets into ``type-conflict`` /
``empty-domain`` / ``comparison-out-of-range`` /
``constraint-vacuous`` diagnostics and sharpens the
``grounding-blowup`` estimate (see ``docs/DOMAINS.md``).  Serve
admission no longer uses the analysis: its queue order is the
binding-space size alone, which ranks real solve times better.

The contract is enforced by ``tests/test_domains.py`` and the
``domain-soundness`` fuzz oracle (``repro.fuzz.oracles``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.asp import ast
from repro.asp.grounder import _int_div, _int_mod, evaluate_comparison
from repro.asp.syntax import Function, Number, String, Symbol
from repro.graphs import add_edge, condensation

__all__ = [
    "Dom",
    "DomainAnalysis",
    "DeadRule",
    "TOP",
    "EMPTY",
    "FINITE_CAP",
    "WIDEN_AFTER",
    "analyze_program",
    "analyze_rules",
    "canonical_rule",
]

Signature = Tuple[str, int]

#: Finite constant sets are kept exact up to this many symbols; beyond
#: the cap the value is summarized into interval + shapes.
FINITE_CAP = 64

#: Cartesian products (function-term argument combos, pairwise
#: comparison evaluation) are enumerated exactly up to this size.
PRODUCT_CAP = 256

#: Number of fixpoint rounds on a recursive SCC before the widening
#: operator replaces the plain join.
WIDEN_AFTER = 3

#: Saturating infinities for interval arithmetic.  Any computed bound
#: beyond ±SAT is clamped; the sentinels themselves are absorbing.
NINF = -(1 << 63)
PINF = 1 << 63
_SAT = 1 << 62

#: Shape key reserved for string symbols (no valid predicate has
#: arity -1, so it can never collide with a function key).
STRING_SHAPE: Signature = ("<string>", -1)


def _clamp(value: int) -> int:
    if value >= _SAT:
        return PINF
    if value <= -_SAT:
        return NINF
    return value


def _shape_key(symbol: Symbol) -> Signature:
    if isinstance(symbol, String):
        return STRING_SHAPE
    return symbol.signature  # Function


class Dom:
    """One abstract value: a set of ground symbols.

    ``values`` is a frozenset in finite mode and ``None`` once widened.
    In widened mode the numeric members are covered by ``[lo, hi]``
    (``lo > hi`` means "no numbers") and the non-numeric members by
    ``shapes`` — a frozenset of constructor keys, or ``None`` for "any
    non-number symbol".
    """

    __slots__ = ("values", "lo", "hi", "shapes")

    def __init__(
        self,
        values: Optional[FrozenSet[Symbol]] = None,
        lo: int = 1,
        hi: int = 0,
        shapes: Optional[FrozenSet[Signature]] = frozenset(),
    ):
        self.values = values
        self.lo = lo
        self.hi = hi
        self.shapes = shapes

    # -- constructors -------------------------------------------------------

    @staticmethod
    def finite(symbols) -> "Dom":
        values = frozenset(symbols)
        if len(values) > FINITE_CAP:
            return Dom._summarize(values)
        return Dom(values=values)

    @staticmethod
    def interval(lo: int, hi: int) -> "Dom":
        if lo > hi:
            return EMPTY
        if lo > NINF and hi < PINF and hi - lo + 1 <= FINITE_CAP:
            return Dom(values=frozenset(Number(v) for v in range(lo, hi + 1)))
        return Dom(values=None, lo=lo, hi=hi, shapes=frozenset())

    @staticmethod
    def _summarize(values: FrozenSet[Symbol]) -> "Dom":
        numbers = [s.value for s in values if isinstance(s, Number)]
        shapes = frozenset(_shape_key(s) for s in values if not isinstance(s, Number))
        if numbers:
            return Dom(values=None, lo=min(numbers), hi=max(numbers), shapes=shapes)
        return Dom(values=None, lo=1, hi=0, shapes=shapes)

    def widened(self) -> "Dom":
        """This value with the finite layer summarized away."""
        if self.values is None:
            return self
        return Dom._summarize(self.values)

    # -- predicates ---------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        if self.values is not None:
            return not self.values
        return self.lo > self.hi and self.shapes is not None and not self.shapes

    @property
    def is_top(self) -> bool:
        return (
            self.values is None
            and self.lo <= NINF
            and self.hi >= PINF
            and self.shapes is None
        )

    def numbers_only(self) -> bool:
        """True when every member is a :class:`Number` (empty counts)."""
        if self.values is not None:
            return all(isinstance(s, Number) for s in self.values)
        return self.shapes is not None and not self.shapes

    def nonnumbers_only(self) -> bool:
        if self.values is not None:
            return not any(isinstance(s, Number) for s in self.values)
        return self.lo > self.hi

    def numeric_range(self) -> Tuple[int, int]:
        """``(lo, hi)`` covering the numeric members; ``lo > hi`` if none."""
        if self.values is None:
            return (self.lo, self.hi)
        numbers = [s.value for s in self.values if isinstance(s, Number)]
        if not numbers:
            return (1, 0)
        return (min(numbers), max(numbers))

    def contains(self, symbol: Symbol) -> bool:
        if self.values is not None:
            return symbol in self.values
        if isinstance(symbol, Number):
            return self.lo <= symbol.value <= self.hi
        return self.shapes is None or _shape_key(symbol) in self.shapes

    def size(self) -> Optional[int]:
        """Exact or counted cardinality; ``None`` when unbounded/unknown."""
        if self.values is not None:
            return len(self.values)
        total = 0
        if self.lo <= self.hi:
            if self.lo <= NINF or self.hi >= PINF:
                return None
            total += self.hi - self.lo + 1
        if self.shapes is None:
            return None
        if self.shapes:
            return None  # shape members are not counted
        return total

    # -- lattice operations -------------------------------------------------

    def join(self, other: "Dom") -> "Dom":
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        if self.values is not None and other.values is not None:
            return Dom.finite(self.values | other.values)
        a, b = self.widened(), other.widened()
        if a.lo > a.hi:
            lo, hi = b.lo, b.hi
        elif b.lo > b.hi:
            lo, hi = a.lo, a.hi
        else:
            lo, hi = min(a.lo, b.lo), max(a.hi, b.hi)
        if a.shapes is None or b.shapes is None:
            shapes: Optional[FrozenSet[Signature]] = None
        else:
            shapes = a.shapes | b.shapes
        return Dom(values=None, lo=lo, hi=hi, shapes=shapes)

    def meet(self, other: "Dom") -> "Dom":
        if self.values is not None:
            return Dom.finite(v for v in self.values if other.contains(v))
        if other.values is not None:
            return Dom.finite(v for v in other.values if self.contains(v))
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        if self.shapes is None:
            shapes = other.shapes
        elif other.shapes is None:
            shapes = self.shapes
        else:
            shapes = self.shapes & other.shapes
        return Dom(values=None, lo=lo, hi=hi, shapes=shapes)

    def subsumes(self, other: "Dom") -> bool:
        """True when ``other`` ⊆ ``self`` (sound, may say False spuriously
        only for widened-vs-widened shape tops, where it is exact too)."""
        if other.is_empty:
            return True
        if other.values is not None:
            return all(self.contains(v) for v in other.values)
        if self.values is not None:
            return False  # widened other cannot fit a finite self
        if other.lo <= other.hi and not (self.lo <= other.lo and other.hi <= self.hi):
            return False
        if self.shapes is None:
            return True
        if other.shapes is None:
            return False
        return other.shapes <= self.shapes

    def widen(self, new: "Dom") -> "Dom":
        """Widening: accelerate ``self -> join(self, new)`` so that any
        strictly increasing chain stabilizes in a bounded number of
        steps (finite layer collapses; unstable bounds jump to ±inf)."""
        joined = self.join(new)
        if joined == self:
            return self
        if self.is_empty:
            return joined
        old, now = self.widened(), joined.widened()
        lo, hi = now.lo, now.hi
        if old.lo <= old.hi and now.lo <= now.hi:
            if now.lo < old.lo:
                lo = NINF
            if now.hi > old.hi:
                hi = PINF
        return Dom(values=None, lo=lo, hi=hi, shapes=now.shapes)

    # -- plumbing -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Dom)
            and self.values == other.values
            and (
                self.values is not None
                or (
                    self.lo == other.lo
                    and self.hi == other.hi
                    and self.shapes == other.shapes
                )
            )
        )

    def __hash__(self) -> int:
        if self.values is not None:
            return hash(("Dom", self.values))
        return hash(("Dom", self.lo, self.hi, self.shapes))

    def __repr__(self) -> str:
        if self.values is not None:
            inner = ",".join(sorted(str(v) for v in self.values))
            return f"Dom{{{inner}}}"
        parts = []
        if self.lo <= self.hi:
            lo = "-inf" if self.lo <= NINF else str(self.lo)
            hi = "+inf" if self.hi >= PINF else str(self.hi)
            parts.append(f"[{lo},{hi}]")
        if self.shapes is None:
            parts.append("any-shape")
        elif self.shapes:
            parts.append("|".join(f"{n}/{a}" for n, a in sorted(self.shapes)))
        return "Dom<" + (" ".join(parts) or "empty") + ">"


#: The full abstract universe (any symbol) and the empty set.
TOP = Dom(values=None, lo=NINF, hi=PINF, shapes=None)
EMPTY = Dom(values=frozenset())


# ---------------------------------------------------------------------------
# Abstract term evaluation
# ---------------------------------------------------------------------------


def _eval_binary(op: str, a: Dom, b: Dom) -> Dom:
    """Abstract arithmetic.  Non-numeric operand members are projected
    away: the concrete grounder yields no value for them, so the
    result only ever contains numbers."""
    if a.values is not None and b.values is not None:
        if len(a.values) * len(b.values) <= PRODUCT_CAP:
            out: Set[Symbol] = set()
            for x, y in itertools.product(a.values, b.values):
                if not isinstance(x, Number) or not isinstance(y, Number):
                    continue
                try:
                    if op == "+":
                        out.add(Number(x.value + y.value))
                    elif op == "-":
                        out.add(Number(x.value - y.value))
                    elif op == "*":
                        out.add(Number(x.value * y.value))
                    elif op == "/":
                        out.add(Number(_int_div(x.value, y.value)))
                    elif op == "\\":
                        out.add(Number(_int_mod(x.value, y.value)))
                    elif op == "**":
                        out.add(Number(x.value**y.value))
                    else:
                        return Dom.interval(NINF, PINF)
                except (ZeroDivisionError, ValueError, OverflowError):
                    continue
            return Dom.finite(out)
    alo, ahi = a.numeric_range()
    blo, bhi = b.numeric_range()
    if alo > ahi or blo > bhi:
        return EMPTY
    if op == "+":
        return Dom.interval(_clamp(alo + blo), _clamp(ahi + bhi))
    if op == "-":
        return Dom.interval(_clamp(alo - bhi), _clamp(ahi - blo))
    if op == "*":
        if NINF in (alo, blo) or PINF in (ahi, bhi):
            return Dom.interval(NINF, PINF)
        corners = [alo * blo, alo * bhi, ahi * blo, ahi * bhi]
        return Dom.interval(_clamp(min(corners)), _clamp(max(corners)))
    if op == "/":
        if NINF in (alo, blo) or PINF in (ahi, bhi) or blo <= 0 <= bhi:
            return Dom.interval(NINF, PINF)
        corners = [_int_div(x, y) for x in (alo, ahi) for y in (blo, bhi)]
        return Dom.interval(_clamp(min(corners)), _clamp(max(corners)))
    if op == "\\":
        if blo > bhi or NINF in (blo,) or PINF in (bhi,) or blo <= 0 <= bhi:
            return Dom.interval(NINF, PINF)
        bound = max(abs(blo), abs(bhi)) - 1
        return Dom.interval(_clamp(-bound), _clamp(bound))
    # "**" and anything exotic: any integer.
    return Dom.interval(NINF, PINF)


def eval_term(term: ast.Term, env: Dict[str, Dom]) -> Dom:
    """Abstract evaluation of ``term`` under variable environment ``env``.

    Sound w.r.t. both :func:`~repro.asp.grounder.evaluate_term` and
    :func:`~repro.asp.grounder.evaluate_term_all`: every ground symbol
    either can produce, for any substitution drawn from ``env``, is a
    member of the returned :class:`Dom`.
    """
    if isinstance(term, ast.SymbolTerm):
        return Dom.finite((term.symbol,))
    if isinstance(term, ast.Variable):
        if term.name == "_":
            return TOP
        return env.get(term.name, TOP)
    if isinstance(term, ast.FunctionTerm):
        if not term.arguments:
            return Dom.finite((Function(term.name),))
        args = [eval_term(a, env) for a in term.arguments]
        if any(a.is_empty for a in args):
            return EMPTY
        if all(a.values is not None for a in args):
            product = 1
            for a in args:
                product *= len(a.values)  # type: ignore[arg-type]
            if product <= PRODUCT_CAP:
                return Dom.finite(
                    Function(term.name, combo)
                    for combo in itertools.product(*(a.values for a in args))
                )
        return Dom(
            values=None,
            lo=1,
            hi=0,
            shapes=frozenset({(term.name, len(term.arguments))}),
        )
    if isinstance(term, ast.BinaryTerm):
        return _eval_binary(term.op, eval_term(term.lhs, env), eval_term(term.rhs, env))
    if isinstance(term, ast.UnaryTerm):
        inner = eval_term(term.argument, env)
        if inner.values is not None:
            out: Set[Symbol] = set()
            for x in inner.values:
                if not isinstance(x, Number):
                    continue
                out.add(Number(-x.value if term.op == "-" else abs(x.value)))
            return Dom.finite(out)
        lo, hi = inner.numeric_range()
        if lo > hi:
            return EMPTY
        if term.op == "-":
            return Dom.interval(_clamp(-hi), _clamp(-lo))
        if lo >= 0:
            return Dom.interval(lo, hi)
        if hi <= 0:
            return Dom.interval(_clamp(-hi), _clamp(-lo))
        return Dom.interval(0, _clamp(max(-lo, hi)))
    if isinstance(term, ast.IntervalTerm):
        llo, lhi = eval_term(term.lower, env).numeric_range()
        ulo, uhi = eval_term(term.upper, env).numeric_range()
        if llo > lhi or ulo > uhi:
            return EMPTY
        return Dom.interval(llo, uhi)
    if isinstance(term, ast.PoolTerm):
        out_dom = EMPTY
        for option in term.options:
            out_dom = out_dom.join(eval_term(option, env))
        return out_dom
    return TOP


def _term_is_ground(term: ast.Term) -> bool:
    if isinstance(term, ast.Variable):
        return False
    if isinstance(term, ast.SymbolTerm):
        return True
    if isinstance(term, ast.FunctionTerm):
        return all(_term_is_ground(a) for a in term.arguments)
    if isinstance(term, ast.BinaryTerm):
        return _term_is_ground(term.lhs) and _term_is_ground(term.rhs)
    if isinstance(term, ast.UnaryTerm):
        return _term_is_ground(term.argument)
    if isinstance(term, ast.IntervalTerm):
        return _term_is_ground(term.lower) and _term_is_ground(term.upper)
    if isinstance(term, ast.PoolTerm):
        return all(_term_is_ground(o) for o in term.options)
    return True


_NEGATED_OP = {"=": "!=", "!=": "=", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}
_MIRROR_OP = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def cmp_status(op: str, a: Dom, b: Dom) -> Optional[bool]:
    """Decide a comparison over abstract operands.

    ``True``/``False`` mean the comparison holds/fails for *every* pair
    of concrete members; ``None`` means it depends on the instance.
    """
    if a.is_empty or b.is_empty:
        return None
    if (
        a.values is not None
        and b.values is not None
        and len(a.values) * len(b.values) <= PRODUCT_CAP
    ):
        results = {
            evaluate_comparison(op, x, y)
            for x, y in itertools.product(a.values, b.values)
        }
        if len(results) == 1:
            return results.pop()
        return None
    if not (a.numbers_only() and b.numbers_only()):
        return None
    alo, ahi = a.numeric_range()
    blo, bhi = b.numeric_range()
    if op == "<":
        if ahi < blo:
            return True
        if alo >= bhi:
            return False
    elif op == "<=":
        if ahi <= blo:
            return True
        if alo > bhi:
            return False
    elif op == ">":
        if alo > bhi:
            return True
        if ahi <= blo:
            return False
    elif op == ">=":
        if alo >= bhi:
            return True
        if ahi < blo:
            return False
    elif op == "=":
        if alo == ahi == blo == bhi:
            return True
        if ahi < blo or alo > bhi:
            return False
    elif op == "!=":
        if ahi < blo or alo > bhi:
            return True
        if alo == ahi == blo == bhi:
            return False
    return None


def _refine_comparison(op: str, variable: str, other: Dom, env: Dict[str, Dom]) -> bool:
    """Shrink ``env[variable]`` using ``variable op other``.  Returns
    True when the environment changed.  Numeric refinements are only
    applied when both sides are numbers-only (the cross-type symbol
    order would make interval reasoning unsound otherwise)."""
    current = env.get(variable, TOP)
    if op == "=":
        refined = current.meet(other)
    elif op == "!=":
        if other.values is not None and len(other.values) == 1 and current.values is not None:
            refined = Dom.finite(current.values - other.values)
        else:
            return False
    else:
        if not (current.numbers_only() and other.numbers_only()):
            return False
        olo, ohi = other.numeric_range()
        if olo > ohi:
            return False
        if op == "<":
            refined = current.meet(Dom.interval(NINF, _clamp(ohi - 1)))
        elif op == "<=":
            refined = current.meet(Dom.interval(NINF, ohi))
        elif op == ">":
            refined = current.meet(Dom.interval(_clamp(olo + 1), PINF))
        elif op == ">=":
            refined = current.meet(Dom.interval(olo, PINF))
        else:
            return False
    if refined != current:
        env[variable] = refined
        return True
    return False


# ---------------------------------------------------------------------------
# Rule views
# ---------------------------------------------------------------------------


@dataclass
class DeadRule:
    """Why a rule can never fire.

    ``cause`` is one of ``"comparison"`` (a builtin is statically
    false), ``"type"`` (a shared variable's positions are type
    disjoint), or ``"empty"`` (a body literal's argument domain is
    empty / a constant argument is outside its position's domain).
    """

    cause: str
    detail: str
    location: Optional[ast.Location] = None


class _RuleView:
    """Pre-split rule: positive function literals, comparisons, heads."""

    __slots__ = ("rule", "index", "positives", "comparisons", "heads", "body_sigs")

    def __init__(self, rule: ast.Rule, index: int):
        self.rule = rule
        self.index = index
        self.positives: List[ast.Literal] = []
        #: ``(effective_op, lhs, rhs, location)`` — the op already
        #: accounts for default negation.
        self.comparisons: List[Tuple[str, ast.Term, ast.Term, object]] = []
        self.body_sigs: Set[Signature] = set()
        for item in rule.body:
            if isinstance(item, ast.Literal):
                if isinstance(item.atom, ast.FunctionTerm):
                    self.body_sigs.add((item.atom.name, len(item.atom.arguments)))
                    if item.sign == 0:
                        self.positives.append(item)
                elif isinstance(item.atom, ast.Comparison):
                    op = item.atom.op
                    if item.sign == 1:
                        op = _NEGATED_OP[op]
                    self.comparisons.append(
                        (op, item.atom.lhs, item.atom.rhs, item.location)
                    )
            elif isinstance(item, ast.Aggregate):
                for element in item.elements:
                    for lit in element.condition:
                        if isinstance(lit.atom, ast.FunctionTerm):
                            self.body_sigs.add(
                                (lit.atom.name, len(lit.atom.arguments))
                            )
        #: ``(atom, condition)`` pairs the rule can derive.
        self.heads: List[Tuple[ast.FunctionTerm, Tuple[ast.Literal, ...]]] = []
        head = rule.head
        if isinstance(head, ast.FunctionTerm):
            self.heads.append((head, ()))
        elif isinstance(head, ast.ChoiceHead):
            for element in head.elements:
                self.heads.append((element.atom, element.condition))
                for lit in element.condition:
                    if isinstance(lit.atom, ast.FunctionTerm):
                        self.body_sigs.add((lit.atom.name, len(lit.atom.arguments)))

    @property
    def head_sigs(self) -> Set[Signature]:
        return {(atom.name, len(atom.arguments)) for atom, _ in self.heads}


# ---------------------------------------------------------------------------
# The analysis
# ---------------------------------------------------------------------------


class DomainAnalysis:
    """Result of :func:`analyze_rules`.

    ``domains`` maps each derivable predicate signature to one
    :class:`Dom` per argument position.  ``dead`` maps rule indices
    (into the analyzed rule list) to :class:`DeadRule` verdicts.
    """

    def __init__(self, rules: Sequence[ast.Rule], externals=()):  # noqa: C901
        started = perf_counter()
        self.rules: List[ast.Rule] = list(rules)
        self.widenings = 0
        self.narrowings = 0
        self.domains: Dict[Signature, Tuple[Dom, ...]] = {}
        self.dead: Dict[int, DeadRule] = {}
        self._externals = frozenset(externals)
        for name, arity in self._externals:
            self.domains[(name, arity)] = tuple(TOP for _ in range(arity))
        views = [_RuleView(rule, index) for index, rule in enumerate(self.rules)]
        self._run_fixpoint(views)
        # Re-evaluate every rule against the converged domains to record
        # the dead verdicts.
        for view in views:
            self._rule_env(view, record=True)
        self.seconds = perf_counter() - started

    # -- fixpoint -----------------------------------------------------------

    def _run_fixpoint(self, views: List[_RuleView]) -> None:
        graph: Dict[Signature, Dict[Signature, None]] = {}
        for view in views:
            for head_sig in view.head_sigs:
                graph.setdefault(head_sig, {})
                for body_sig in view.body_sigs:
                    add_edge(graph, body_sig, head_sig)
        for sig in self._externals:
            graph.setdefault(sig, {})
        for members in condensation(graph):
            component_views = [v for v in views if v.head_sigs & members]
            if not component_views:
                continue
            recursive = len(members) > 1 or any(
                v.body_sigs & members for v in component_views
            )
            self._solve_component(component_views, members, recursive)

    def _solve_component(
        self,
        views: List[_RuleView],
        members: Set[Signature],
        recursive: bool,
    ) -> None:
        iteration = 0
        while True:
            changed = False
            for view in views:
                for sig, position, contribution in self._contributions(view, members):
                    current = self._position(sig, position)
                    if recursive and iteration >= WIDEN_AFTER:
                        updated = current.widen(contribution)
                        if updated != current.join(contribution):
                            self.widenings += 1
                    else:
                        updated = current.join(contribution)
                    if updated != current:
                        self._set_position(sig, position, updated)
                        changed = True
            iteration += 1
            if not changed:
                break
            if iteration > 4 * FINITE_CAP:  # widening makes this unreachable
                for sig in members:
                    if sig in self.domains:
                        self.domains[sig] = tuple(TOP for _ in self.domains[sig])
                break
        if recursive and iteration > WIDEN_AFTER:
            self._narrow_component(views, members)

    def _narrow_component(self, views: List[_RuleView], members: Set[Signature]) -> None:
        """Verified narrowing: recompute the component's domains from its
        rules alone, and adopt a candidate only after re-checking that it
        is still a post-fixpoint (every contribution subsumed).  Recovers
        precision lost to widening without ever weakening soundness."""
        covered = [sig for sig in members if sig in self.domains]

        def recompute() -> Dict[Signature, Tuple[Dom, ...]]:
            fresh: Dict[Signature, List[Dom]] = {}
            for sig in covered:
                arity = len(self.domains[sig])
                if sig in self._externals:
                    fresh[sig] = [TOP] * arity
                else:
                    fresh[sig] = [EMPTY] * arity
            for view in views:
                for sig, position, contribution in self._contributions(view, members):
                    fresh[sig][position] = fresh[sig][position].join(contribution)
            return {sig: tuple(doms) for sig, doms in fresh.items()}

        def subsumed(
            big: Dict[Signature, Tuple[Dom, ...]],
            small: Dict[Signature, Tuple[Dom, ...]],
        ) -> bool:
            return all(
                old.subsumes(new)
                for sig in covered
                for old, new in zip(big[sig], small[sig])
            )

        for _ in range(2):
            before = {sig: self.domains[sig] for sig in covered}
            candidate = recompute()
            self.domains.update(candidate)
            if not subsumed(candidate, recompute()):
                # Not a post-fixpoint: revert to the verified state.
                self.domains.update(before)
                return
            if candidate == before:
                return
            self.narrowings += 1

    def _position(self, sig: Signature, position: int) -> Dom:
        doms = self.domains.get(sig)
        if doms is None:
            return EMPTY
        return doms[position]

    def _set_position(self, sig: Signature, position: int, dom: Dom) -> None:
        doms = self.domains.get(sig)
        if doms is None:
            doms = tuple(EMPTY for _ in range(sig[1]))
        updated = list(doms)
        updated[position] = dom
        self.domains[sig] = tuple(updated)

    def _contributions(self, view: _RuleView, members: Set[Signature]):
        """Yield ``(sig, position, Dom)`` head contributions restricted to
        ``members`` (other head signatures are handled by their own
        component, later in topological order)."""
        env = self._rule_env(view)
        if env is None:
            return
        for atom, condition in view.heads:
            sig = (atom.name, len(atom.arguments))
            if sig not in members:
                continue
            if sig not in self.domains:
                self.domains[sig] = tuple(EMPTY for _ in range(sig[1]))
            local = env
            if condition:
                local = dict(env)
                if self._refine_condition(local, condition) is not None:
                    continue  # the element's guard can never hold
            for position, argument in enumerate(atom.arguments):
                yield sig, position, eval_term(argument, local)

    # -- rule environments --------------------------------------------------

    def _rule_env(
        self,
        view: _RuleView,
        record: bool = False,
    ) -> Optional[Dict[str, Dom]]:
        """Compute the per-rule variable environment, or ``None`` when the
        rule is dead under the current domains.  With ``record=True``
        the dead verdict is stored."""
        env: Dict[str, Dom] = {}
        for _ in range(3):
            changed = False
            for literal in view.positives:
                atom = literal.atom
                sig = (atom.name, len(atom.arguments))
                for position, argument in enumerate(atom.arguments):
                    dom = self._position(sig, position)
                    if isinstance(argument, ast.Variable):
                        if argument.name == "_":
                            if dom.is_empty:
                                if record:
                                    self.dead[view.index] = DeadRule(
                                        "empty",
                                        f"{atom.name}/{len(atom.arguments)} "
                                        f"argument {position + 1} has an empty domain",
                                        literal.location,
                                    )
                                return None
                            continue
                        current = env.get(argument.name, TOP)
                        refined = current.meet(dom)
                        if refined.is_empty:
                            if record:
                                if (
                                    current.numbers_only()
                                    and dom.nonnumbers_only()
                                    and not dom.is_empty
                                    and not current.is_empty
                                ) or (
                                    current.nonnumbers_only()
                                    and dom.numbers_only()
                                    and not dom.is_empty
                                    and not current.is_empty
                                ):
                                    cause, what = "type", (
                                        f"variable {argument.name} mixes "
                                        f"incompatible types at "
                                        f"{atom.name}/{len(atom.arguments)} "
                                        f"argument {position + 1}"
                                    )
                                else:
                                    cause, what = "empty", (
                                        f"variable {argument.name} has no possible "
                                        f"value at {atom.name}/{len(atom.arguments)} "
                                        f"argument {position + 1}"
                                    )
                                self.dead[view.index] = DeadRule(
                                    cause, what, literal.location
                                )
                            return None
                        if refined != current:
                            env[argument.name] = refined
                            changed = True
                    elif _term_is_ground(argument):
                        value = eval_term(argument, {})
                        if value.meet(dom).is_empty:
                            if record:
                                if (
                                    value.numbers_only() != dom.numbers_only()
                                    and not dom.is_empty
                                ):
                                    cause = "type"
                                    what = (
                                        f"constant argument {argument} can never "
                                        f"match {atom.name}/{len(atom.arguments)} "
                                        f"argument {position + 1} (incompatible type)"
                                    )
                                else:
                                    cause = "empty"
                                    what = (
                                        f"constant argument {argument} is outside "
                                        f"the domain of "
                                        f"{atom.name}/{len(atom.arguments)} "
                                        f"argument {position + 1}"
                                    )
                                self.dead[view.index] = DeadRule(
                                    cause, what, literal.location
                                )
                            return None
            for op, lhs, rhs, location in view.comparisons:
                status = cmp_status(op, eval_term(lhs, env), eval_term(rhs, env))
                if status is False:
                    if record:
                        self.dead[view.index] = DeadRule(
                            "comparison",
                            f"comparison {lhs}{op}{rhs} is statically false",
                            location if isinstance(location, ast.Location) else None,
                        )
                    return None
                if status is True:
                    continue
                if isinstance(lhs, ast.Variable) and lhs.name != "_":
                    if _refine_comparison(op, lhs.name, eval_term(rhs, env), env):
                        changed = True
                if isinstance(rhs, ast.Variable) and rhs.name != "_":
                    if _refine_comparison(
                        _MIRROR_OP[op], rhs.name, eval_term(lhs, env), env
                    ):
                        changed = True
            if not changed:
                break
        return env

    def _refine_condition(
        self, env: Dict[str, Dom], condition: Tuple[ast.Literal, ...]
    ) -> Optional[str]:
        """Refine ``env`` in place with a choice-element condition.
        Returns a dead cause when the condition can never hold."""
        for literal in condition:
            if literal.sign != 0:
                continue
            if isinstance(literal.atom, ast.FunctionTerm):
                atom = literal.atom
                sig = (atom.name, len(atom.arguments))
                for position, argument in enumerate(atom.arguments):
                    dom = self._position(sig, position)
                    if isinstance(argument, ast.Variable) and argument.name != "_":
                        refined = env.get(argument.name, TOP).meet(dom)
                        if refined.is_empty:
                            return "empty"
                        env[argument.name] = refined
                    elif dom.is_empty:
                        return "empty"
            elif isinstance(literal.atom, ast.Comparison):
                atom = literal.atom
                status = cmp_status(
                    atom.op, eval_term(atom.lhs, env), eval_term(atom.rhs, env)
                )
                if status is False:
                    return "comparison"
        return None

    # -- public queries -----------------------------------------------------

    def domain(self, sig: Signature) -> Optional[Tuple[Dom, ...]]:
        """Per-position domains of ``sig``; ``None`` when underivable."""
        return self.domains.get(sig)

    def contains_atom(self, atom: Function) -> bool:
        """Soundness check: is the ground ``atom`` inside the inferred
        domains?  Must hold for every atom the grounder derives."""
        doms = self.domains.get(atom.signature)
        if doms is None:
            return False
        return all(dom.contains(arg) for dom, arg in zip(doms, atom.arguments))

    def violations(self, atoms) -> List[Function]:
        """Ground atoms (from a grounder run) outside the domains."""
        return [atom for atom in atoms if not self.contains_atom(atom)]

    def signature_estimate(self, sig: Signature) -> Optional[float]:
        """Domain-aware upper bound on ``|sig|``; ``None`` when unknown."""
        doms = self.domains.get(sig)
        if doms is None:
            return 0.0
        estimate = 1.0
        for dom in doms:
            size = dom.size()
            if size is None:
                return None
            estimate *= max(size, 1)
        return estimate

    def rule_estimate(self, rule: ast.Rule) -> Optional[float]:
        """Domain-aware join-size upper bound for one rule: the product
        of its positive body relations' domain estimates, discounted for
        shared variables exactly like the linter's greedy estimate."""
        estimates: List[Tuple[float, Set[str]]] = []
        for item in rule.body:
            if not isinstance(item, ast.Literal) or item.sign != 0:
                continue
            if not isinstance(item.atom, ast.FunctionTerm):
                continue
            sig = (item.atom.name, len(item.atom.arguments))
            size = self.signature_estimate(sig)
            if size is None:
                return None
            variables: Set[str] = set()
            for argument in item.atom.arguments:
                _collect_variables(argument, variables)
            estimates.append((max(size, 1.0), variables))
        if not estimates:
            return 1.0
        estimates.sort(key=lambda pair: pair[0])
        total = 1.0
        bound: Set[str] = set()
        for size, variables in estimates:
            fresh = variables - bound
            if variables and not fresh:
                continue  # fully bound: acts as a filter
            if variables:
                total *= size ** (len(fresh) / len(variables))
            else:
                total *= 1.0
            bound |= variables
        return total


def _collect_variables(term: ast.Term, out: Set[str]) -> None:
    if isinstance(term, ast.Variable):
        if term.name != "_":
            out.add(term.name)
    elif isinstance(term, ast.FunctionTerm):
        for argument in term.arguments:
            _collect_variables(argument, out)
    elif isinstance(term, ast.BinaryTerm):
        _collect_variables(term.lhs, out)
        _collect_variables(term.rhs, out)
    elif isinstance(term, ast.UnaryTerm):
        _collect_variables(term.argument, out)
    elif isinstance(term, ast.IntervalTerm):
        _collect_variables(term.lower, out)
        _collect_variables(term.upper, out)
    elif isinstance(term, ast.PoolTerm):
        for option in term.options:
            _collect_variables(option, out)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def analyze_rules(rules: Sequence[ast.Rule], externals=()) -> DomainAnalysis:
    """Analyze rules that already had ``#const`` definitions substituted
    (the grounder's internal rule list is in this form)."""
    return DomainAnalysis(rules, externals)


def analyze_program(program: ast.Program) -> DomainAnalysis:
    """Analyze a parsed program (applies ``#const`` substitution first,
    mirroring the grounder)."""
    from repro.asp.grounder import Grounder

    rules = [
        Grounder._substitute_constants(rule, program.constants)
        for rule in program.rules
    ]
    return DomainAnalysis(rules, program.externals)


# ---------------------------------------------------------------------------
# Rule canonicalization (duplicate-rule lint)
# ---------------------------------------------------------------------------


def _rename_term(term: ast.Term, mapping: Dict[str, str]) -> ast.Term:
    if isinstance(term, ast.Variable):
        if term.name == "_":
            return term
        if term.name not in mapping:
            mapping[term.name] = f"V{len(mapping)}"
        return ast.Variable(mapping[term.name])
    if isinstance(term, ast.FunctionTerm):
        return ast.FunctionTerm(
            term.name, tuple(_rename_term(a, mapping) for a in term.arguments)
        )
    if isinstance(term, ast.BinaryTerm):
        return ast.BinaryTerm(
            term.op, _rename_term(term.lhs, mapping), _rename_term(term.rhs, mapping)
        )
    if isinstance(term, ast.UnaryTerm):
        return ast.UnaryTerm(term.op, _rename_term(term.argument, mapping))
    if isinstance(term, ast.IntervalTerm):
        return ast.IntervalTerm(
            _rename_term(term.lower, mapping), _rename_term(term.upper, mapping)
        )
    if isinstance(term, ast.PoolTerm):
        return ast.PoolTerm(tuple(_rename_term(o, mapping) for o in term.options))
    return term


def _rename_literal(literal: ast.Literal, mapping: Dict[str, str]) -> ast.Literal:
    atom = literal.atom
    if isinstance(atom, ast.FunctionTerm):
        renamed = _rename_term(atom, mapping)
    else:
        renamed = ast.Comparison(
            atom.op, _rename_term(atom.lhs, mapping), _rename_term(atom.rhs, mapping)
        )
    return ast.Literal(literal.sign, renamed)


def _rename_body_item(item: ast.BodyItem, mapping: Dict[str, str]) -> ast.BodyItem:
    if isinstance(item, ast.Literal):
        return _rename_literal(item, mapping)
    guards = []
    for guard in (item.left_guard, item.right_guard):
        guards.append(
            None if guard is None else (guard[0], _rename_term(guard[1], mapping))
        )
    return ast.Aggregate(
        item.sign,
        item.function,
        tuple(
            ast.AggregateElement(
                tuple(_rename_term(t, mapping) for t in element.terms),
                tuple(_rename_literal(c, mapping) for c in element.condition),
            )
            for element in item.elements
        ),
        guards[0],
        guards[1],
    )


def _rename_head(head: ast.Head, mapping: Dict[str, str]) -> ast.Head:
    if head is None:
        return None
    if isinstance(head, ast.FunctionTerm):
        return _rename_term(head, mapping)
    if isinstance(head, ast.ChoiceHead):
        return ast.ChoiceHead(
            tuple(
                ast.ChoiceElement(
                    _rename_term(element.atom, mapping),
                    tuple(_rename_literal(c, mapping) for c in element.condition),
                )
                for element in head.elements
            ),
            None if head.lower is None else _rename_term(head.lower, mapping),
            None if head.upper is None else _rename_term(head.upper, mapping),
        )
    if isinstance(head, ast.TheoryAtom):
        return ast.TheoryAtom(
            head.name,
            tuple(_rename_term(a, mapping) for a in head.arguments),
            tuple(
                ast.TheoryElement(
                    tuple(_rename_term(t, mapping) for t in element.terms),
                    tuple(_rename_literal(c, mapping) for c in element.condition),
                )
                for element in head.elements
            ),
            None
            if head.guard is None
            else (head.guard[0], _rename_term(head.guard[1], mapping)),
        )
    return head


def canonical_rule(rule: ast.Rule) -> str:
    """A canonical string for ``rule`` with variables renamed to
    ``V0, V1, ...`` in order of first occurrence (head first, then
    body, left to right).  Two rules are syntactic duplicates iff their
    canonical strings are equal."""
    mapping: Dict[str, str] = {}
    renamed = ast.Rule(
        _rename_head(rule.head, mapping),
        tuple(_rename_body_item(item, mapping) for item in rule.body),
    )
    return str(renamed)
