"""High-level solving facade (mirrors ``clingo.Control``).

Typical use::

    ctl = Control()
    ctl.add('''
        task(t1). task(t2).
        1 { bind(T, r1); bind(T, r2) } 1 :- task(T).
    ''')
    ctl.register_propagator(my_theory)
    ctl.ground()
    result = ctl.solve(on_model=lambda m: print(m.symbols))

Models are enumerated by blocking: after each model a clause excluding
its projection onto the symbolic atoms is added, so the same Boolean
design point is never reported twice (auxiliary and theory variables are
functionally determined and need no blocking).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.asp import ast
from repro.asp.completion import Translation, translate
from repro.asp.flatsolver import FlatSolver, SolverStatistics
from repro.asp.ground import GroundProgram
from repro.asp.grounder import Grounder
from repro.asp.parser import ParseError, parse_program
from repro.asp.propagator import PropagatorInit, TheoryPropagator
from repro.asp.syntax import Function, Number
from repro.asp.unfounded import UnfoundedSetPropagator

__all__ = [
    "Control",
    "Model",
    "SolveSummary",
    "ground_text",
    "clear_ground_cache",
    "ground_cache_info",
]


# ---------------------------------------------------------------------------
# Shared ground-program cache and parsed-part memo
# ---------------------------------------------------------------------------

#: Maximum number of ground programs retained, keyed on program text.
GROUND_CACHE_SIZE = 16
#: Maximum number of parsed program parts retained, keyed on part text.
PARSE_CACHE_SIZE = 32

#: Guards lookups and inserts of both caches (serve grounds on several
#: executor threads); parsing and grounding run outside it.
_cache_lock = threading.Lock()
_ground_cache: "OrderedDict[Tuple[str, str], GroundProgram]" = OrderedDict()
_ground_cache_hits = 0
_ground_cache_misses = 0
_parse_cache: "OrderedDict[str, ast.Program]" = OrderedDict()


def clear_ground_cache() -> None:
    """Drop all cached ground programs and parsed parts (tests; memory)."""
    global _ground_cache_hits, _ground_cache_misses
    with _cache_lock:
        _ground_cache.clear()
        _parse_cache.clear()
        _ground_cache_hits = 0
        _ground_cache_misses = 0


def ground_cache_info() -> Dict[str, int]:
    """Hit/miss/size counters of the shared ground-program cache."""
    with _cache_lock:
        return {
            "hits": _ground_cache_hits,
            "misses": _ground_cache_misses,
            "size": len(_ground_cache),
            "maxsize": GROUND_CACHE_SIZE,
        }


def _lru_put(cache: OrderedDict, key, value, maxsize: int) -> None:
    with _cache_lock:
        cache[key] = value
        while len(cache) > maxsize:
            cache.popitem(last=False)


def _parse_part(text: str, cache: bool) -> ast.Program:
    """Parse one ``Control.add`` part, through the per-process memo.

    Every request encodes the same template blocks over new instance
    facts, so a part's text recurs across programs; the memo parses it
    once.  Cached programs are never mutated (AST nodes are frozen and
    :func:`_parse_parts` copies the containers).
    """
    if cache:
        with _cache_lock:
            parsed = _parse_cache.get(text)
            if parsed is not None:
                _parse_cache.move_to_end(text)
                return parsed
    parsed = parse_program(text)
    if cache:
        _lru_put(_parse_cache, text, parsed, PARSE_CACHE_SIZE)
    return parsed


def _parse_parts(parts: Sequence[str], cache: bool) -> ast.Program:
    """One program equal to a parse of the joined ``parts``, built part-wise.

    Rules and ``#const`` definitions keep their order; ``#show`` and
    ``#external`` signatures are unioned (``shows`` stays None when no
    part has a ``#show``).  Locations are relative to each part, as
    clingo reports them per block; a :class:`ParseError` names its part.
    """
    merged = ast.Program()
    for index, part in enumerate(parts):
        try:
            parsed = _parse_part(part, cache)
        except ParseError as error:
            error.part = index
            raise
        merged.rules.extend(parsed.rules)
        merged.constants.update(parsed.constants)
        if parsed.shows is not None:
            if merged.shows is None:
                merged.shows = set()
            merged.shows |= parsed.shows
        merged.externals |= parsed.externals
    return merged


def _ground_parts_cached(
    parts: Sequence[str], cache: bool, mode: str
) -> Tuple[GroundProgram, bool]:
    """Ground the program ``parts``; returns (program, hit).

    The LRU is keyed on the grounding mode and the exact program text
    (the parts joined by newlines), so repeated ``explore()``/``Control``
    runs over the same instance — benchmark repetitions, parallel
    workers on one machine, test fixtures — instantiate it once.
    Sharing is safe because nothing downstream mutates a
    :class:`GroundProgram` (the translator only reads it; the
    dependency-graph cache is idempotent).  ``cache=False`` bypasses
    both the LRU and the parsed-part memo.
    """
    global _ground_cache_hits, _ground_cache_misses
    key = (mode, "\n".join(parts))
    if cache:
        with _cache_lock:
            program = _ground_cache.get(key)
            if program is not None:
                _ground_cache.move_to_end(key)
                _ground_cache_hits += 1
                return program, True
            _ground_cache_misses += 1
    parsed = _parse_parts(parts, cache)
    grounder = Grounder(parsed, mode=mode)
    rules = grounder.ground()
    program = GroundProgram(
        rules,
        grounder.possible_atoms,
        grounder.fact_atoms,
        shows=parsed.shows,
        externals=frozenset(parsed.externals),
        grounding=grounder.statistics,
    )
    if cache:
        _lru_put(_ground_cache, key, program, GROUND_CACHE_SIZE)
    return program, False


def ground_text(
    text: str, cache: bool = True, mode: str = "seminaive"
) -> GroundProgram:
    """Ground program ``text`` into a reusable :class:`GroundProgram`.

    The resulting artifact is picklable (``to_bytes``/``from_bytes``)
    and can be passed to :meth:`Control.ground` — or shipped to another
    process — to skip instantiation entirely.
    """
    program, _hit = _ground_parts_cached((text,), cache, mode)
    return program


@dataclass
class Model:
    """A snapshot of one answer set.

    ``symbols`` holds the true symbolic atoms; ``theory`` holds values
    snapshotted from theory propagators (e.g. ``{"start": {...},
    "objectives": (...)}`` — keys are propagator-defined).
    """

    number: int
    symbols: Tuple[Function, ...]
    theory: Dict[str, object] = field(default_factory=dict)

    def contains(self, atom: Function) -> bool:
        return atom in self._symbol_set

    def __post_init__(self) -> None:
        self._symbol_set = set(self.symbols)

    def atoms_of(self, name: str, arity: int) -> List[Function]:
        """True atoms with the given predicate name/arity."""
        return [s for s in self.symbols if s.signature == (name, arity)]

    def __str__(self) -> str:
        return " ".join(str(s) for s in self.symbols)


@dataclass
class OptimizeResult:
    """Result of :meth:`Control.optimize` (lexicographic ``#minimize``)."""

    satisfiable: bool
    #: Cost per priority level, highest priority first.
    costs: Tuple[int, ...] = ()
    model: Optional[Model] = None
    interrupted: bool = False

    def __bool__(self) -> bool:
        return self.satisfiable


@dataclass
class SolveSummary:
    """Result of a :meth:`Control.solve` call."""

    satisfiable: bool
    exhausted: bool
    models: int
    interrupted: bool = False

    def __bool__(self) -> bool:
        return self.satisfiable


class Control:
    """Grounder + translator + solver with theory propagators."""

    def __init__(self) -> None:
        self._parts: List[str] = []
        self._propagators: List[TheoryPropagator] = []
        self._solver: Optional[FlatSolver] = None
        self._translation: Optional[Translation] = None
        self._ground_program: Optional[GroundProgram] = None
        self._model_count = 0
        self._shows: Optional[set] = None
        self._external_signatures: set = set()
        #: Per-atom truth assignment of #external atoms (None = free);
        #: unlisted external atoms default to false, as in clingo.
        self._external_values: Dict[Function, Optional[bool]] = {}
        #: Conflict budget per solve() call (None = unlimited).
        self.conflict_limit: Optional[int] = None
        #: Grounding observability: how many times this Control actually
        #: instantiated a program (0 when a cached or shipped artifact
        #: was reused), whether the shared cache answered, and the wall
        #: seconds spent instantiating in this process.
        self.grounds = 0
        self.ground_cache_hit = False
        self.grounding_seconds = 0.0
        #: Lint observability: the report of the last ``ground(lint=...)``
        #: run (None when linting was off) and the wall seconds it took.
        self.lint_report = None
        self.lint_seconds = 0.0

    # -- program construction ---------------------------------------------------

    def add(self, text: str) -> None:
        """Append a program part (callable multiple times before ground()).

        Each part must hold whole statements: it is parsed on its own, as
        clingo parses each added block, and parse-error and
        unsafe-variable locations are relative to it.
        """
        if self._translation is not None:
            raise RuntimeError("cannot add program text after ground()")
        self._parts.append(text)

    def register_propagator(self, propagator: TheoryPropagator) -> None:
        if self._translation is not None:
            raise RuntimeError("register propagators before ground()")
        self._propagators.append(propagator)

    def ground(
        self,
        program: Optional[GroundProgram] = None,
        cache: bool = True,
        mode: str = "seminaive",
        lint: object = False,
    ) -> None:
        """Instantiate and translate the program.

        By default the added parts are parsed through the shared
        parsed-part memo and ground through the shared ground-program
        LRU, keyed on the parts' joined text (``cache=False`` opts out of
        both).
        Passing a pre-ground ``program`` — e.g. an artifact shipped from
        another process — skips parsing and instantiation entirely and
        takes its ``#show``/``#external`` declarations from the artifact;
        any text added via :meth:`add` is ignored in that case.

        ``lint`` opts into the static analyzer (:mod:`repro.analysis`)
        over the accumulated text before grounding: ``True`` surfaces
        error/warning diagnostics as Python warnings, ``"raise"`` raises
        :class:`repro.analysis.LintError` on error-severity findings.
        The report lands in :attr:`lint_report`/:attr:`lint_seconds`
        either way.  Ignored when a pre-ground ``program`` is passed.
        """
        if self._translation is not None:
            raise RuntimeError(
                "ground() was already called; build a fresh Control "
                "(multi-shot grounding is not supported)"
            )
        if program is None:
            program = self.instantiate(cache, mode, lint)
        self._shows = program.shows
        self._external_signatures = set(program.externals)
        self._ground_program = program
        solver = FlatSolver()
        self._translation = translate(self._ground_program, solver)
        self._solver = solver
        if not self._ground_program.is_tight:
            solver.register_propagator(UnfoundedSetPropagator(self._translation))
        init = PropagatorInit(solver, self._translation)
        for propagator in self._propagators:
            # Register first: init() typically adds watches, which require
            # the propagator to be known to the solver.
            solver.register_propagator(propagator)
            propagator.init(init)

    def instantiate(
        self,
        cache: bool = True,
        mode: str = "seminaive",
        lint: object = False,
    ) -> GroundProgram:
        """The grounding half of :meth:`ground`, without the translation.

        Lints (opt-in) and grounds the accumulated text, records the
        grounding and lint observability attributes, and returns the
        artifact; a coordinator that ships the program to workers stops
        here.
        """
        if lint:
            self._lint("\n".join(self._parts), lint)
        program, hit = _ground_parts_cached(self._parts, cache, mode)
        self.ground_cache_hit = hit
        if not hit:
            self.grounds += 1
            if program.grounding is not None:
                self.grounding_seconds += program.grounding.seconds
        self._ground_program = program
        return program

    def _lint(self, text: str, lint: object) -> None:
        """Run the static analyzer over ``text`` (the ``lint=`` hook)."""
        import warnings as _warnings

        from repro.analysis import LintError, Severity, lint_text

        report = lint_text(text, filename="<control>")
        self.lint_report = report
        self.lint_seconds += report.seconds
        if lint == "raise":
            if report.errors:
                raise LintError(report)
            return
        for diagnostic in report.diagnostics:
            if diagnostic.severity is not Severity.INFO:
                _warnings.warn(str(diagnostic), stacklevel=3)

    # -- introspection ------------------------------------------------------------

    @property
    def translation(self) -> Translation:
        if self._translation is None:
            raise RuntimeError("ground() has not been called")
        return self._translation

    @property
    def ground_program(self) -> GroundProgram:
        if self._ground_program is None:
            raise RuntimeError("ground() has not been called")
        return self._ground_program

    @property
    def solver(self) -> FlatSolver:
        if self._solver is None:
            raise RuntimeError("ground() has not been called")
        return self._solver

    @property
    def statistics(self) -> SolverStatistics:
        return self.solver.stats

    # -- solving ---------------------------------------------------------------

    def solve(
        self,
        on_model: Optional[Callable[[Model], Optional[bool]]] = None,
        models: int = 1,
        assumptions: Sequence[Tuple[Function, bool]] = (),
        block: bool = True,
        assumption_literals: Sequence[int] = (),
        project: bool = False,
    ) -> SolveSummary:
        """Enumerate up to ``models`` answer sets (0 = all).

        ``on_model`` is called with each :class:`Model` while the solver
        assignment is still total (theory propagators can be queried); a
        ``False`` return stops the enumeration early.  Blocking clauses
        are added between models, so repeated ``solve`` calls continue the
        enumeration rather than repeating models; pass ``block=False``
        when a registered propagator excludes found models itself (as the
        DSE dominance propagator does).

        ``project=True`` blocks on the ``#show``-projected atoms only, so
        each distinct *projection* is enumerated exactly once (clingo's
        ``--project``); requires at least one ``#show`` statement.
        """
        if project and self._shows is None:
            raise ValueError("project=True requires #show statements")
        solver = self.solver
        solver.conflict_limit = self.conflict_limit
        assumption_lits = [
            self.translation.atom_lit(atom) * (1 if truth else -1)
            for atom, truth in assumptions
        ]
        assumption_lits.extend(assumption_literals)
        assumption_lits.extend(self._external_assumptions())
        found = 0
        while True:
            result = solver.solve(assumption_lits)
            if not result.satisfiable:
                return SolveSummary(
                    satisfiable=found > 0,
                    exhausted=not solver.interrupted,
                    models=found,
                    interrupted=solver.interrupted,
                )
            self._model_count += 1
            found += 1
            model = self._snapshot_model()
            keep_going = True
            if on_model is not None:
                keep_going = on_model(model) is not False
            if block:
                blocking = self._blocking_clause(project)
                solver.reset_to_root()
                blocked = solver.add_clause(blocking)
            else:
                solver.reset_to_root()
                blocked = True
            if not keep_going or (models and found >= models):
                return SolveSummary(
                    satisfiable=True,
                    exhausted=not blocked,
                    models=found,
                )
            if not blocked:
                return SolveSummary(satisfiable=True, exhausted=True, models=found)

    # -- externals ---------------------------------------------------------------

    def external_atoms(self) -> List[Function]:
        """All ground atoms of ``#external``-declared signatures."""
        return sorted(
            atom
            for atom in self.translation.atom_vars
            if atom.signature in self._external_signatures
        )

    def assign_external(self, atom: Function, value: Optional[bool]) -> None:
        """Pin an ``#external`` atom to true/false, or free it (None).

        Unassigned external atoms are false by default (clingo
        semantics); freed atoms are enumerated like choice atoms.
        """
        if atom.signature not in self._external_signatures:
            raise ValueError(f"{atom} was not declared #external")
        if value is None:
            self._external_values.pop(atom, None)
            self._external_values[atom] = None
        else:
            self._external_values[atom] = value

    def _external_assumptions(self) -> List[int]:
        lits: List[int] = []
        for atom in self.external_atoms():
            value = self._external_values.get(atom, False)
            if value is None:
                continue  # freed: both truth values enumerable
            lit = self.translation.atom_lit(atom)
            lits.append(lit if value else -lit)
        return lits

    def consequences(self, mode: str = "brave") -> Optional[List[Function]]:
        """Brave or cautious consequences (clingo's ``--enum-mode``).

        * brave — atoms true in *some* answer set,
        * cautious — atoms true in *every* answer set.

        Returns ``None`` when the program is unsatisfiable.  Computed by
        iterative strengthening: after each model, a clause requires the
        next model to differ in the relevant direction, so the number of
        solver calls is bounded by the number of atoms (not models).

        Like model enumeration, the strengthening clauses persist — use a
        fresh :class:`Control` for further solving afterwards.
        """
        if mode not in ("brave", "cautious"):
            raise ValueError(f"unknown consequence mode {mode!r}")
        solver = self.solver
        solver.conflict_limit = self.conflict_limit
        translation = self.translation
        result = solver.solve()
        if not result.satisfiable:
            return None
        atom_vars = dict(translation.atom_vars)
        if mode == "brave":
            # Grow the set of atoms seen true; ask for a model adding one.
            seen = {
                atom for atom, var in atom_vars.items() if solver.value(var) is True
            }
            while True:
                missing = [var for atom, var in atom_vars.items() if atom not in seen]
                if not missing:
                    break
                solver.reset_to_root()
                if not solver.add_clause(missing):
                    break
                result = solver.solve()
                if not result.satisfiable:
                    break
                seen |= {
                    atom
                    for atom, var in atom_vars.items()
                    if atom not in seen and solver.value(var) is True
                }
            return sorted(seen | set(translation.program.facts))
        # Cautious: shrink the candidate set; ask for a model dropping one.
        candidates = {
            atom for atom, var in atom_vars.items() if solver.value(var) is True
        }
        while True:
            if not candidates:
                break
            solver.reset_to_root()
            clause = [-atom_vars[atom] for atom in candidates]
            if not solver.add_clause(clause):
                break
            result = solver.solve()
            if not result.satisfiable:
                break
            candidates = {
                atom for atom in candidates if solver.value(atom_vars[atom]) is True
            }
        return sorted(candidates | set(translation.program.facts))

    # -- optimization (#minimize / #maximize) -----------------------------------

    def minimize_terms(self) -> Dict[int, List[Tuple[int, int]]]:
        """Ground ``#minimize`` terms: priority -> [(weight, literal)].

        Term tuples have set semantics per priority (duplicates collapse,
        mirroring clingo); conditions become auxiliary conjunction
        literals.
        """
        translation = self.translation
        solver = self.solver
        # Set semantics per (priority, term tuple): the tuple's weight
        # counts once, iff *any* of its condition instances holds.
        groups: Dict[Tuple[int, Tuple], Tuple[int, List[int]]] = {}
        priorities_seen: set = set()
        for atom, _var in translation.theory_vars.items():
            if atom.name != "__minimize":
                continue
            priority_symbol = atom.arguments[0]
            if not isinstance(priority_symbol, Number):
                raise ValueError(f"#minimize priority must be an integer: {atom}")
            priority = priority_symbol.value
            priorities_seen.add(priority)
            for terms, condition in atom.elements:
                weight = terms[0]
                if not isinstance(weight, Number):
                    raise ValueError(f"#minimize weight must be an integer: {atom}")
                lits = []
                dropped = False
                for sign, cond_atom in condition:
                    lit = translation.atom_lit(cond_atom)
                    lit = -lit if sign else lit
                    if lit == -translation.true_lit:
                        dropped = True
                        break
                    if lit != translation.true_lit:
                        lits.append(lit)
                if dropped:
                    continue
                if not lits:
                    cond_lit = translation.true_lit
                elif len(lits) == 1:
                    cond_lit = lits[0]
                else:
                    cond_lit = solver.new_var()
                    for lit in lits:
                        solver.add_clause([-cond_lit, lit])
                    solver.add_clause([cond_lit] + [-lit for lit in lits])
                key = (priority, tuple(terms))
                weight_value, conditions = groups.setdefault(key, (weight.value, []))
                conditions.append(cond_lit)
        # Levels whose elements all vanished at grounding still exist
        # (their cost is constantly 0), mirroring clingo's output.
        by_priority: Dict[int, List[Tuple[int, int]]] = {
            priority: [] for priority in priorities_seen
        }
        for (priority, _terms), (weight, conditions) in groups.items():
            unique = list(dict.fromkeys(conditions))
            if translation.true_lit in unique:
                tuple_lit = translation.true_lit
            elif len(unique) == 1:
                tuple_lit = unique[0]
            else:
                tuple_lit = solver.new_var()
                for lit in unique:
                    solver.add_clause([tuple_lit, -lit])
                solver.add_clause([-tuple_lit] + unique)
            by_priority.setdefault(priority, []).append((weight, tuple_lit))
        return by_priority

    def optimize(self, strategy: str = "bb") -> OptimizeResult:
        """Lexicographic optimization of the ``#minimize`` statements.

        Two strategies, both exact (mirroring clasp's ``--opt-strategy``):

        * ``"bb"`` — model-improving branch and bound: after each model,
          a BDD-compiled pseudo-Boolean indicator ``sum >= incumbent`` is
          *assumed* negatively, so proving optimality never poisons the
          solver state;
        * ``"oll"`` — unsatisfiability-core guided (the OLL algorithm of
          Andres et al. 2012): assume every weighted literal false,
          extract cores, and relax them through cardinality outputs until
          the first model — which is then optimal.

        The optimum of each priority level is asserted permanently before
        the next level is minimized.
        """
        from repro.asp.completion import PseudoBooleanBuilder

        if strategy not in ("bb", "oll"):
            raise ValueError(f"unknown optimization strategy {strategy!r}")
        by_priority = self.minimize_terms()
        if not by_priority:
            raise ValueError("the program has no #minimize/#maximize statements")
        solver = self.solver
        solver.conflict_limit = self.conflict_limit
        translation = self.translation
        builder = PseudoBooleanBuilder(solver, translation.true_lit)
        best_model: Optional[Model] = None
        costs: List[int] = []

        result = solver.solve()
        if solver.interrupted:
            return OptimizeResult(False, interrupted=True)
        if not result.satisfiable:
            return OptimizeResult(False)

        for priority in sorted(by_priority, reverse=True):
            offset, positive = self._normalize_terms(by_priority[priority])
            if strategy == "bb":
                incumbent = self._minimize_level_bb(builder, offset, positive)
            else:
                incumbent = self._minimize_level_oll(builder, offset, positive)
            if incumbent is None:
                return OptimizeResult(
                    True, tuple(costs), best_model, interrupted=True
                )
            costs.append(incumbent)
            # Freeze this level at its optimum for the remaining levels.
            solver.reset_to_root()
            target = incumbent - offset
            if positive:
                if target > 0:
                    solver.add_clause([builder.geq(positive, target)])
                solver.add_clause([-builder.geq(positive, target + 1)])
            # Re-establish a model satisfying the frozen bounds (always
            # possible — the optimum was achieved by some model).
            result = solver.solve()
            if solver.interrupted or not result.satisfiable:
                return OptimizeResult(
                    True, tuple(costs), best_model, interrupted=True
                )
            best_model = self._snapshot_model()
        return OptimizeResult(True, tuple(costs), best_model)

    def _normalize_terms(
        self, terms: List[Tuple[int, int]]
    ) -> Tuple[int, List[Tuple[int, int]]]:
        """Fold constants/negative weights into an offset + positive terms."""
        translation = self.translation
        offset = 0
        positive: List[Tuple[int, int]] = []
        for weight, lit in terms:
            if lit == translation.true_lit:
                offset += weight
            elif weight < 0:
                offset += weight
                positive.append((-weight, -lit))
            elif weight > 0:
                positive.append((weight, lit))
        return offset, positive

    def _minimize_level_bb(
        self, builder, offset: int, positive: List[Tuple[int, int]]
    ) -> Optional[int]:
        """Branch-and-bound descent; assumes the solver is currently SAT
        with a total assignment.  Returns the optimum or None on budget."""
        solver = self.solver

        def current_sum() -> int:
            return offset + sum(w for w, l in positive if solver.value(l) is True)

        incumbent = current_sum()
        while True:
            target = incumbent - offset
            if target <= 0:
                return incumbent
            solver.reset_to_root()
            indicator = builder.geq(positive, target)
            result = solver.solve([-indicator])
            if solver.interrupted:
                return None
            if not result.satisfiable:
                return incumbent
            incumbent = current_sum()

    def _minimize_level_oll(
        self,
        builder,
        offset: int,
        positive: List[Tuple[int, int]],
        shrink_cores: bool = True,
    ) -> Optional[int]:
        """Unsatisfiability-core guided minimization (OLL).

        Soft claims are "this weighted literal is false"; every core of
        soft claims raises the lower bound by its minimum weight and is
        relaxed through cardinality outputs (``>= k`` indicators) that
        become new soft claims.  The first satisfiable call is optimal.
        Cores are optionally shrunk by deletion filtering (each literal
        is dropped if the rest stays unsatisfiable) — smaller cores mean
        fewer, cheaper cardinality outputs.
        """
        solver = self.solver
        weights: Dict[int, int] = {}
        for weight, lit in positive:
            weights[lit] = weights.get(lit, 0) + weight
        lower = 0
        while True:
            solver.reset_to_root()
            assumptions = [-lit for lit in sorted(weights)]
            result = solver.solve(assumptions)
            if solver.interrupted:
                return None
            if result.satisfiable:
                return offset + lower
            core_costs = [-a for a in result.core]
            if not core_costs:
                raise RuntimeError(
                    "hard unsatisfiability during OLL descent (level "
                    "freezing should have prevented this)"
                )
            if shrink_cores and len(core_costs) > 1:
                core_costs = self._shrink_core(core_costs)
            w_min = min(weights[lit] for lit in core_costs)
            lower += w_min
            for lit in core_costs:
                weights[lit] -= w_min
                if not weights[lit]:
                    del weights[lit]
            # At least one of the core's literals is true in every model.
            solver.reset_to_root()
            solver.add_clause(core_costs)
            # Cardinality outputs: pay w_min for each *additional* true one.
            if len(core_costs) > 1:
                terms = [(1, lit) for lit in core_costs]
                for k in range(2, len(core_costs) + 1):
                    indicator = builder.geq(terms, k)
                    weights[indicator] = weights.get(indicator, 0) + w_min

    def _shrink_core(self, core_costs: List[int]) -> List[int]:
        """Deletion-based core minimization.

        Tries to drop each cost literal: if assuming the remaining
        literals false is still UNSAT, the dropped one was unnecessary.
        The result is a (not necessarily minimum) irreducible core.
        """
        solver = self.solver
        kept = list(core_costs)
        index = 0
        while index < len(kept):
            candidate = kept[:index] + kept[index + 1 :]
            if not candidate:
                break
            solver.reset_to_root()
            result = solver.solve([-lit for lit in candidate])
            if solver.interrupted:
                break
            if result.satisfiable:
                index += 1  # literal is needed
            else:
                kept = candidate  # dropped; retry same index
        return kept

    def _snapshot_model(self) -> Model:
        translation = self.translation
        symbols = tuple(translation.symbols_of_model())
        if self._shows is not None:
            symbols = tuple(s for s in symbols if s.signature in self._shows)
        theory: Dict[str, object] = {}
        for propagator in self._propagators:
            theory.update(propagator.model_values(self.solver))
        return Model(self._model_count, symbols, theory)

    def _blocking_clause(self, project: bool = False) -> List[int]:
        solver = self.solver
        clause = []
        for atom, var in self.translation.atom_vars.items():
            if project and atom.signature not in (self._shows or ()):
                continue
            clause.append(-var if solver.value(var) is True else var)
        return clause
