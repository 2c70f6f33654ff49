"""Translation of ground programs to clauses (Clark completion).

Produces the clause set solved by :mod:`repro.asp.flatsolver`:

* one solver variable per possible non-fact atom (facts are folded into a
  dedicated always-true literal),
* auxiliary variables for rule bodies (shared between identical bodies),
* *supportedness* clauses ``atom -> body_1 | ... | body_n`` and *forcing*
  clauses ``body -> atom`` (the latter omitted for choice rules),
* cardinality/weight aggregates and choice bounds compiled to clauses via
  a memoized BDD construction for pseudo-Boolean ``>=`` constraints,
* theory atoms get a variable with completion over their rule bodies; the
  background theory interprets the variable's truth.

For non-tight programs the translation additionally records, per atom,
its *supports* — ``(body literal, positive non-fact body atoms)`` pairs —
which the unfounded-set propagator combines with the SCC structure of
:class:`repro.asp.ground.GroundProgram`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.asp.flatsolver import FlatSolver
from repro.asp.ground import GroundProgram
from repro.asp.grounder import (
    GroundAggregate,
    GroundChoice,
    GroundRule,
    GroundTheoryAtom,
    GroundingError,
)
from repro.asp.syntax import Function

__all__ = ["Support", "Translation", "translate", "PseudoBooleanBuilder"]


@dataclass(frozen=True)
class Support:
    """One way an atom can be derived: a body literal plus the positive
    non-fact atoms whose derivations the body depends on."""

    literal: int
    positive_atoms: Tuple[Function, ...]


@dataclass
class Translation:
    """The result of translating a ground program."""

    solver: FlatSolver
    program: GroundProgram
    true_lit: int
    atom_vars: Dict[Function, int] = field(default_factory=dict)
    theory_vars: Dict[GroundTheoryAtom, int] = field(default_factory=dict)
    supports: Dict[Function, List[Support]] = field(default_factory=dict)

    def atom_lit(self, atom: Function) -> int:
        """Solver literal for ``atom`` (the true/false constant for facts
        and impossible atoms respectively)."""
        if atom in self.program.facts:
            return self.true_lit
        var = self.atom_vars.get(atom)
        if var is None:
            return -self.true_lit
        return var

    def symbols_of_model(self) -> List[Function]:
        """Decode the solver's current total assignment into atoms."""
        out = [atom for atom in self.program.facts]
        for atom, var in self.atom_vars.items():
            if self.solver.value(var) is True:
                out.append(atom)
        return sorted(out)


class PseudoBooleanBuilder:
    """Compiles ``sum_i w_i * l_i >= k`` constraints to clauses.

    Uses the classic ROBDD construction with memoization on
    ``(index, bound)``: each node is an auxiliary variable equivalent to
    "the suffix starting at *index* can still reach *bound*".  Weights
    must be positive; callers shift negative weights beforehand.
    """

    def __init__(self, solver: FlatSolver, true_lit: int):
        self._solver = solver
        self._true = true_lit

    def geq(self, terms: Sequence[Tuple[int, int]], bound: int) -> int:
        """Literal equivalent to ``sum(w * [lit]) >= bound``."""
        for weight, _lit in terms:
            if weight <= 0:
                raise ValueError("weights must be positive (shift negatives first)")
        terms = sorted(terms, key=lambda t: -t[0])
        suffix = [0] * (len(terms) + 1)
        for i in range(len(terms) - 1, -1, -1):
            suffix[i] = suffix[i + 1] + terms[i][0]
        memo: Dict[Tuple[int, int], int] = {}

        def build(i: int, b: int) -> int:
            if b <= 0:
                return self._true
            if suffix[i] < b:
                return -self._true
            b = min(b, suffix[i])  # clamp for better sharing
            key = (i, b)
            cached = memo.get(key)
            if cached is not None:
                return cached
            weight, lit = terms[i]
            hi = build(i + 1, b - weight)
            lo = build(i + 1, b)
            if hi == lo:
                memo[key] = hi
                return hi
            node = self._solver.new_var()
            # node <-> (lit ? hi : lo)
            self._solver.add_clause([-node, -lit, hi])
            self._solver.add_clause([-node, lit, lo])
            self._solver.add_clause([node, -lit, -hi])
            self._solver.add_clause([node, lit, -lo])
            memo[key] = node
            return node

        return build(0, bound)


class _Translator:
    def __init__(self, program: GroundProgram, solver: FlatSolver):
        self._program = program
        self._solver = solver
        true_var = solver.new_var()
        solver.add_clause([true_var])
        self._result = Translation(solver, program, true_var)
        self._pb = PseudoBooleanBuilder(solver, true_var)
        self._body_cache: Dict[Tuple[int, ...], int] = {}
        self._or_cache: Dict[Tuple[int, ...], int] = {}
        self._aggregate_cache: Dict[GroundAggregate, int] = {}
        self._theory_supports: Dict[GroundTheoryAtom, List[int]] = {}
        # Choice-supported atoms must not be forced false by completion even
        # if every support is a choice (they are, via supportedness, only
        # *allowed* when supported).
        self._unsat = False

    # -- helpers ---------------------------------------------------------------

    @property
    def true_lit(self) -> int:
        return self._result.true_lit

    def _atom_var(self, atom: Function) -> int:
        var = self._result.atom_vars.get(atom)
        if var is None:
            var = self._solver.new_var()
            self._result.atom_vars[atom] = var
        return var

    def _literal(self, sign: int, atom: Function) -> int:
        if atom in self._program.facts:
            return -self.true_lit if sign else self.true_lit
        if atom not in self._program.possible:
            return self.true_lit if sign else -self.true_lit
        var = self._atom_var(atom)
        return -var if sign else var

    def _conjunction(self, lits: Sequence[int]) -> int:
        """Literal equivalent to the conjunction of ``lits``."""
        unique: List[int] = []
        for lit in lits:
            if lit == self.true_lit or lit in unique:
                continue
            if lit == -self.true_lit or -lit in unique:
                return -self.true_lit
            unique.append(lit)
        if not unique:
            return self.true_lit
        if len(unique) == 1:
            return unique[0]
        key = tuple(sorted(unique))
        cached = self._body_cache.get(key)
        if cached is not None:
            return cached
        aux = self._solver.new_var()
        for lit in key:
            self._solver.add_clause([-aux, lit])
        self._solver.add_clause([aux] + [-lit for lit in key])
        self._body_cache[key] = aux
        return aux

    def _disjunction(self, lits: Sequence[int]) -> int:
        unique: List[int] = []
        for lit in lits:
            if lit == -self.true_lit or lit in unique:
                continue
            if lit == self.true_lit or -lit in unique:
                return self.true_lit
            unique.append(lit)
        if not unique:
            return -self.true_lit
        if len(unique) == 1:
            return unique[0]
        key = tuple(sorted(unique))
        cached = self._or_cache.get(key)
        if cached is not None:
            return cached
        aux = self._solver.new_var()
        for lit in key:
            self._solver.add_clause([aux, -lit])
        self._solver.add_clause([-aux] + list(key))
        self._or_cache[key] = aux
        return aux

    # -- aggregates -------------------------------------------------------------

    def _aggregate_lit(self, aggregate: GroundAggregate) -> int:
        cached = self._aggregate_cache.get(aggregate)
        if cached is not None:
            return -cached if aggregate.sign else cached
        #: (weight, tuple literal) pairs; always-holding tuples use true_lit.
        pairs: List[Tuple[int, int]] = []
        for element in aggregate.elements:
            weight = 1 if aggregate.function == "count" else element.weight
            if element.conditions == ((),):
                pairs.append((weight, self.true_lit))
                continue
            tuple_lit = self._disjunction(
                [
                    self._conjunction(
                        [self._literal(sign, atom) for sign, atom in condition]
                    )
                    for condition in element.conditions
                ]
            )
            if tuple_lit != -self.true_lit:
                pairs.append((weight, tuple_lit))

        if aggregate.function in ("min", "max"):
            guard_lit = self._min_max_guard(aggregate.function, pairs)
        else:
            guard_lit = self._sum_guard(pairs)

        guards = []
        for guard in (aggregate.left_guard, aggregate.right_guard):
            if guard is not None:
                guards.append(guard_lit(*guard))
        value = self._conjunction(guards) if guards else self.true_lit
        self._aggregate_cache[aggregate] = value
        return -value if aggregate.sign else value

    def _sum_guard(self, pairs: List[Tuple[int, int]]):
        """Guard builder for #count/#sum (pseudo-Boolean translation)."""
        base = 0
        terms: List[Tuple[int, int]] = []
        for weight, tuple_lit in pairs:
            if weight == 0 or tuple_lit == self.true_lit:
                base += weight
                continue
            if weight < 0:
                base += weight
                terms.append((-weight, -tuple_lit))
            else:
                terms.append((weight, tuple_lit))

        def geq(bound: int) -> int:
            return self._pb.geq(terms, bound - base)

        def guard_lit(op: str, bound: int) -> int:
            if op == ">=":
                return geq(bound)
            if op == ">":
                return geq(bound + 1)
            if op == "<=":
                return -geq(bound + 1)
            if op == "<":
                return -geq(bound)
            if op == "=":
                return self._conjunction([geq(bound), -geq(bound + 1)])
            if op == "!=":
                return -self._conjunction([geq(bound), -geq(bound + 1)])
            raise GroundingError(f"unsupported aggregate guard operator {op!r}")

        return guard_lit

    def _min_max_guard(self, function: str, pairs: List[Tuple[int, int]]):
        """Guard builder for #min/#max.

        ``#min S <= b`` holds iff some tuple with weight <= b is in; the
        empty set behaves as #sup (for #min) / #inf (for #max), which the
        empty disjunction/conjunction encode naturally.
        """

        def low_le(bound: int) -> int:
            # min <= bound
            return self._disjunction([t for w, t in pairs if w <= bound])

        def low_ge(bound: int) -> int:
            # min >= bound: nothing below may hold
            return self._conjunction([-t for w, t in pairs if w < bound])

        def high_ge(bound: int) -> int:
            # max >= bound
            return self._disjunction([t for w, t in pairs if w >= bound])

        def high_le(bound: int) -> int:
            # max <= bound: nothing above may hold
            return self._conjunction([-t for w, t in pairs if w > bound])

        le, ge = (low_le, low_ge) if function == "min" else (high_le, high_ge)

        def guard_lit(op: str, bound: int) -> int:
            if op == "<=":
                return le(bound)
            if op == "<":
                return le(bound - 1)
            if op == ">=":
                return ge(bound)
            if op == ">":
                return ge(bound + 1)
            if op == "=":
                return self._conjunction([le(bound), ge(bound)])
            if op == "!=":
                return -self._conjunction([le(bound), ge(bound)])
            raise GroundingError(f"unsupported aggregate guard operator {op!r}")

        return guard_lit

    # -- rules -----------------------------------------------------------------

    def _body_literals(self, rule: GroundRule) -> Optional[List[int]]:
        """The rule body as solver literals, or None when trivially false."""
        lits: List[int] = []
        for sign, atom in rule.body:
            lit = self._literal(sign, atom)
            if lit == -self.true_lit:
                return None
            if lit != self.true_lit:
                lits.append(lit)
        for aggregate in rule.aggregates:
            lit = self._aggregate_lit(aggregate)
            if lit == -self.true_lit:
                return None
            if lit != self.true_lit:
                lits.append(lit)
        return lits

    def _positive_body_atoms(self, rule: GroundRule) -> Tuple[Function, ...]:
        return tuple(
            atom
            for sign, atom in rule.body
            if sign == 0
            and atom not in self._program.facts
            and atom in self._program.possible
        )

    def translate(self) -> Translation:
        for rule in self._program.rules:
            body_lits = self._body_literals(rule)
            if body_lits is None:
                continue
            head = rule.head
            if head is None:
                if not self._solver.add_clause([-lit for lit in body_lits]):
                    self._unsat = True
                continue
            if isinstance(head, Function):
                self._translate_normal(head, body_lits, rule)
            elif isinstance(head, GroundChoice):
                self._translate_choice(head, body_lits, rule)
            elif isinstance(head, GroundTheoryAtom):
                self._translate_theory(head, body_lits)
            else:
                raise GroundingError(f"unsupported ground head {head!r}")
        self._add_completion()
        return self._result

    def _translate_normal(
        self, head: Function, body_lits: List[int], rule: GroundRule
    ) -> None:
        if head in self._program.facts:
            # Fact (or derived by an unconditional rule elsewhere): bodies
            # still force it, but it is already true.
            return
        body_lit = self._conjunction(body_lits)
        head_lit = self._atom_var(head)
        self._solver.add_clause([-body_lit, head_lit])
        self._result.supports.setdefault(head, []).append(
            Support(body_lit, self._positive_body_atoms(rule))
        )

    def _translate_choice(
        self, head: GroundChoice, body_lits: List[int], rule: GroundRule
    ) -> None:
        rule_positives = self._positive_body_atoms(rule)
        element_lits: List[int] = []
        trivially_true = 0
        for atom, condition in head.elements:
            condition_lits: List[int] = []
            dropped = False
            for sign, cond_atom in condition:
                lit = self._literal(sign, cond_atom)
                if lit == -self.true_lit:
                    dropped = True
                    break
                if lit != self.true_lit:
                    condition_lits.append(lit)
            if dropped:
                continue
            support_lit = self._conjunction(body_lits + condition_lits)
            if atom in self._program.facts:
                trivially_true += 1
            else:
                condition_positives = tuple(
                    cond_atom
                    for sign, cond_atom in condition
                    if sign == 0
                    and cond_atom not in self._program.facts
                    and cond_atom in self._program.possible
                )
                self._result.supports.setdefault(atom, []).append(
                    Support(support_lit, rule_positives + condition_positives)
                )
                element_lits.append(
                    self._conjunction([self._atom_var(atom)] + condition_lits)
                )
        if head.lower is None and head.upper is None:
            return
        body_lit = self._conjunction(body_lits)
        terms = [(1, lit) for lit in element_lits]
        if head.lower is not None:
            lower_lit = self._pb.geq(terms, head.lower - trivially_true)
            self._solver.add_clause([-body_lit, lower_lit])
        if head.upper is not None:
            over_lit = self._pb.geq(terms, head.upper + 1 - trivially_true)
            self._solver.add_clause([-body_lit, -over_lit])

    def _translate_theory(self, head: GroundTheoryAtom, body_lits: List[int]) -> None:
        var = self._result.theory_vars.get(head)
        if var is None:
            var = self._solver.new_var()
            self._result.theory_vars[head] = var
            self._theory_supports[head] = []
        body_lit = self._conjunction(body_lits)
        self._solver.add_clause([-body_lit, var])
        self._theory_supports[head].append(body_lit)

    def _add_completion(self) -> None:
        for atom, var in self._result.atom_vars.items():
            supports = self._result.supports.get(atom, [])
            self._solver.add_clause([-var] + [s.literal for s in supports])
        for theory_atom, var in self._result.theory_vars.items():
            supports = self._theory_supports.get(theory_atom, [])
            self._solver.add_clause([-var] + supports)


def translate(program: GroundProgram, solver: FlatSolver) -> Translation:
    """Translate ``program`` into clauses on ``solver``."""
    return _Translator(program, solver).translate()
