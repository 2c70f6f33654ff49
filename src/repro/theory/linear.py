"""Linear-constraint theory propagator (the ASPmT background theory).

Interprets three theory-atom families produced by the encodings:

* ``&dom { lo..hi } = x`` — declares the interval of integer variable
  ``x`` (enforced when the atom is derived),
* ``&sum { t1 ; t2 ; ... } op bound`` — a linear constraint over integer
  variables and *reified Boolean terms*: an element with a condition
  contributes its (constant) weight when the condition holds,
* ``&diff { u - v } op bound`` — the difference-logic special case (same
  machinery; the dedicated propagator in
  :mod:`repro.theory.difference` can be stacked on top for earlier
  conflict detection).

Semantics mirror clingo-dl/clingcon usage: a theory atom *derived* by the
program enforces its constraint; an underived atom enforces nothing.

Propagation is bounds consistency with explanations: every bound update
records the solver literals that justify it, so conflicts and Boolean
propagations become ordinary learned clauses — the "partial assignment
evaluation" of the DATE 2017 paper this work builds on.

The fixpoint is incremental in the clingo-dl/clingcon manner: a queued
constraint is re-evaluated only when one of its inputs (a bound it
reads, its condition, a Boolean term) moved since its last evaluation,
an explanation is built only when an evaluation tightens, forces or
conflicts, and one-variable bounds applied at decision level 0 leave the
re-queue lists.  Each skipped evaluation would have done nothing, so the
queue order, every clause and every reason — hence the search — are the
same as when every queued constraint is evaluated.

Completeness: the encodings keep every constraint *difference-like* —
at most two variable terms with coefficients +1/-1 (plus arbitrary
Boolean terms).  For such systems, bounds propagation over the finite
``&dom`` intervals is refutation-complete once the Boolean assignment is
total (setting every variable to its lower bound is then a witness), so
the solver's models are exactly the theory-consistent answer sets.  The
restriction is checked at ``init`` time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.asp.flatsolver import FlatSolver
from repro.asp.grounder import GroundTheoryAtom, TheoryTermOp
from repro.asp.propagator import PropagatorInit, TheoryPropagator
from repro.asp.syntax import Function, Number, Symbol
from repro.theory.domain import INT_MAX, INT_MIN, IntervalStore

__all__ = ["LinearConstraint", "LinearPropagator", "TheoryError", "linearize"]


class TheoryError(Exception):
    """Raised when a theory atom cannot be interpreted."""


@dataclass(frozen=True)
class LinearConstraint:
    """``condition -> sum(coef*var) + sum(weight*[lit]) <= bound``."""

    condition: int
    var_terms: Tuple[Tuple[int, int], ...]  # (coefficient, store var id)
    bool_terms: Tuple[Tuple[int, int], ...]  # (weight, solver literal)
    bound: int

    def __str__(self) -> str:
        parts = [f"{c}*x{v}" for c, v in self.var_terms]
        parts += [f"{w}*[{l}]" for w, l in self.bool_terms]
        return f"[{self.condition}] {' + '.join(parts) or '0'} <= {self.bound}"


def linearize(term: object) -> Tuple[int, List[Tuple[int, Symbol]]]:
    """Decompose a ground theory term into ``(constant, [(coef, var)])``.

    Variables are arbitrary function symbols (``start(t1)``); arithmetic
    is limited to ``+``, ``-``, and multiplication by constants.
    """
    if isinstance(term, Number):
        return term.value, []
    if isinstance(term, Function):
        return 0, [(1, term)]
    if isinstance(term, TheoryTermOp):
        if term.op == "+":
            const_l, vars_l = linearize(term.arguments[0])
            const_r, vars_r = linearize(term.arguments[1])
            return const_l + const_r, vars_l + vars_r
        if term.op == "-":
            if len(term.arguments) == 1:
                const, variables = linearize(term.arguments[0])
                return -const, [(-c, v) for c, v in variables]
            const_l, vars_l = linearize(term.arguments[0])
            const_r, vars_r = linearize(term.arguments[1])
            return const_l - const_r, vars_l + [(-c, v) for c, v in vars_r]
        if term.op == "*":
            const_l, vars_l = linearize(term.arguments[0])
            const_r, vars_r = linearize(term.arguments[1])
            if vars_l and vars_r:
                raise TheoryError(f"non-linear theory term {term}")
            if vars_l:
                return const_l * const_r, [(c * const_r, v) for c, v in vars_l]
            return const_l * const_r, [(c * const_l, v) for c, v in vars_r]
    raise TheoryError(f"cannot linearize theory term {term}")


class LinearPropagator(TheoryPropagator):
    """Bounds-propagating linear constraints with explanations."""

    def __init__(self, default_lb: int = 0, default_ub: int = INT_MAX):
        self.store = IntervalStore()
        self._default_bounds = (default_lb, default_ub)
        self._constraints: List[LinearConstraint] = []
        #: Sorted solver literals whose truth can make a constraint
        #: propagate: every condition, and each Boolean term in the
        #: polarity that raises its sum.  Set by :meth:`init`; stacked
        #: propagators that must re-evaluate on the same fixpoints watch
        #: these too.
        self.watches: Tuple[int, ...] = ()
        # Per constraint, the form the fixpoint evaluates: (condition,
        # var_terms, bool_terms, bound, largest Boolean weight) with every
        # Boolean term rewritten as ``weight >= 0`` times its sum-raising
        # literal (``w*[l]`` with ``w <= 0`` is ``w + (-w)*[-l]``; the
        # constant moves to the bound).
        self._rows: List[Tuple[int, tuple, tuple, int, int]] = []
        self._by_lit: Dict[int, List[int]] = {}
        # Per store variable: the constraints re-queued when one of its
        # bounds moves, and those that read its lower / upper bound.
        self._by_var: List[List[int]] = []
        self._lb_readers: List[List[int]] = []
        self._ub_readers: List[List[int]] = []
        # Per constraint: whether an input may have moved since its last
        # evaluation.  Re-evaluating a constraint whose inputs did not
        # move tightens nothing, so such queue entries are skipped.
        self._changed: List[bool] = []
        # Per constraint: its variable when it is a one-variable bound
        # without Boolean terms (an &dom half), else -1.  Applied at
        # decision level 0 such a bound holds for good, and it is retired
        # from the re-queue lists.
        self._unit_var: List[int] = []
        self._retired: Set[int] = set()
        self._solver: Optional[FlatSolver] = None
        #: Statistics: bound updates / conflicts / propagated literals.
        self.bound_updates = 0
        self.theory_conflicts = 0
        self.theory_propagations = 0

    # ------------------------------------------------------------------
    # Initialization: interpret theory atoms
    # ------------------------------------------------------------------

    def init(self, init: PropagatorInit) -> None:
        self._solver = init.solver
        watched: Set[int] = set()
        for atom, lit in init.theory_atoms:
            if atom.name == "dom":
                self._init_dom(atom, lit)
            elif atom.name in ("sum", "diff"):
                self._init_sum(atom, lit, init)
            else:
                continue  # other theories (e.g. the dominance propagator)
        num_vars = self.store.num_vars
        self._by_var = [[] for _ in range(num_vars)]
        self._lb_readers = [[] for _ in range(num_vars)]
        self._ub_readers = [[] for _ in range(num_vars)]
        for index, constraint in enumerate(self._constraints):
            for coef, var in constraint.var_terms:
                self._by_var[var].append(index)
                readers = self._lb_readers if coef > 0 else self._ub_readers
                readers[var].append(index)
            watched.add(constraint.condition)
            self._by_lit.setdefault(constraint.condition, []).append(index)
            bound = constraint.bound
            bool_terms = []
            for weight, lit in constraint.bool_terms:
                if weight <= 0:
                    bound -= weight
                    weight, lit = -weight, -lit
                bool_terms.append((weight, lit))
                watched.add(lit)
                self._by_lit.setdefault(lit, []).append(index)
            max_weight = max((weight for weight, _lit in bool_terms), default=-1)
            self._rows.append(
                (
                    constraint.condition,
                    constraint.var_terms,
                    tuple(bool_terms),
                    bound,
                    max_weight,
                )
            )
            unit = len(constraint.var_terms) == 1 and not bool_terms
            self._unit_var.append(constraint.var_terms[0][1] if unit else -1)
        self._changed = [True] * len(self._constraints)
        self.watches = tuple(sorted(watched))
        for lit in self.watches:
            init.add_watch(lit, self)

    def var_id(self, name: Symbol) -> int:
        """Store id of variable ``name`` (creating it with default bounds)."""
        var = self.store.var(name)
        if var is None:
            var = self.store.add_var(name, *self._default_bounds)
        return var

    def _init_dom(self, atom: GroundTheoryAtom, lit: int) -> None:
        if atom.guard is None or atom.guard[0] != "=":
            raise TheoryError(f"&dom requires '= variable' guard: {atom}")
        name = atom.guard[1]
        if not isinstance(name, Function):
            raise TheoryError(f"&dom guard must name a variable: {atom}")
        if len(atom.elements) != 1:
            raise TheoryError(f"&dom takes exactly one lo..hi element: {atom}")
        (terms, condition), = atom.elements
        if condition:
            raise TheoryError(f"&dom elements cannot be conditional: {atom}")
        interval = terms[0]
        if not (isinstance(interval, TheoryTermOp) and interval.op == ".."):
            raise TheoryError(f"&dom element must be lo..hi: {atom}")
        lo, hi = interval.arguments
        if not isinstance(lo, Number) or not isinstance(hi, Number):
            raise TheoryError(f"&dom bounds must be integers: {atom}")
        var = self.var_id(name)
        # x <= hi  and  -x <= -lo, both conditioned on the atom.
        self._constraints.append(LinearConstraint(lit, ((1, var),), (), hi.value))
        self._constraints.append(LinearConstraint(lit, ((-1, var),), (), -lo.value))

    def _init_sum(
        self, atom: GroundTheoryAtom, lit: int, init: PropagatorInit
    ) -> None:
        const = 0
        var_terms: List[Tuple[int, int]] = []
        bool_terms: List[Tuple[int, int]] = []
        for terms, condition in atom.elements:
            value, variables = linearize(terms[0])
            if condition:
                if variables:
                    raise TheoryError(
                        f"conditional variable terms are not supported: {atom}"
                    )
                cond_lit = self._condition_literal(condition, init)
                if cond_lit is None:
                    continue  # condition is false forever
                if cond_lit is True:  # condition is a fact
                    const += value
                else:
                    bool_terms.append((value, cond_lit))
            else:
                const += value
                for coef, name in variables:
                    var_terms.append((coef, self.var_id(name)))
        if atom.guard is None:
            raise TheoryError(f"&{atom.name} requires a guard: {atom}")
        op, guard_value = atom.guard
        if isinstance(guard_value, Number):
            bound = guard_value.value
        elif isinstance(guard_value, Function):
            # "expr op variable": move the variable to the left-hand side.
            var_terms.append((-1, self.var_id(guard_value)))
            bound = 0
        else:
            raise TheoryError(f"unsupported guard value in {atom}")
        bound -= const

        def emit(vterms, bterms, b):
            constraint = LinearConstraint(lit, tuple(vterms), tuple(bterms), b)
            self._check_difference_like(constraint, atom)
            self._constraints.append(constraint)

        negated_vars = [(-c, v) for c, v in var_terms]
        negated_bools = [(-w, l) for w, l in bool_terms]
        if op == "<=":
            emit(var_terms, bool_terms, bound)
        elif op == "<":
            emit(var_terms, bool_terms, bound - 1)
        elif op == ">=":
            emit(negated_vars, negated_bools, -bound)
        elif op == ">":
            emit(negated_vars, negated_bools, -bound - 1)
        elif op == "=":
            emit(var_terms, bool_terms, bound)
            emit(negated_vars, negated_bools, -bound)
        elif op == "!=":
            # Disjunctive split: (expr <= bound-1) or (expr >= bound+1),
            # chosen by two fresh literals tied to the theory atom.
            below = init.solver.new_var()
            above = init.solver.new_var()
            init.add_clause([-lit, below, above])
            self._constraints.append(
                LinearConstraint(below, tuple(var_terms), tuple(bool_terms), bound - 1)
            )
            self._constraints.append(
                LinearConstraint(
                    above, tuple(negated_vars), tuple(negated_bools), -bound - 1
                )
            )
            for constraint in self._constraints[-2:]:
                self._check_difference_like(constraint, atom)
        else:
            raise TheoryError(f"unsupported guard operator {op!r} in {atom}")

    @staticmethod
    def _check_difference_like(
        constraint: LinearConstraint, atom: GroundTheoryAtom
    ) -> None:
        coefs = sorted(c for c, _v in constraint.var_terms)
        ok = (
            coefs in ([], [1], [-1], [-1, 1])
        )
        if not ok:
            raise TheoryError(
                f"constraint from {atom} is not difference-like "
                f"(coefficients {coefs}); bounds propagation would be "
                f"incomplete — rewrite the encoding"
            )

    def _condition_literal(self, condition, init: PropagatorInit):
        """Solver literal for an element condition.

        Returns ``True`` for conditions that hold unconditionally, ``None``
        for impossible ones, a literal otherwise (an auxiliary conjunction
        variable when the condition has several literals).
        """
        lits = []
        for sign, atom in condition:
            lit = init.solver_literal(atom)
            lit = -lit if sign else lit
            if lit == init.true_lit:
                continue
            if lit == -init.true_lit:
                return None
            lits.append(lit)
        if not lits:
            return True
        if len(lits) == 1:
            return lits[0]
        aux = init.solver.new_var()
        for lit in lits:
            init.add_clause([-aux, lit])
        init.add_clause([aux] + [-lit for lit in lits])
        return aux

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------

    def propagate(self, solver: FlatSolver, changes: Sequence[int]) -> bool:
        # Fast path: nothing to do when no changed literal is watched by a
        # constraint — bail out before allocating the queue/set pair (this
        # runs on every boolean propagation fixpoint).
        by_lit = self._by_lit
        indices: List[int] = []
        for lit in changes:
            bucket = by_lit.get(lit)
            if bucket:
                indices.extend(bucket)
        if not indices:
            return True
        if len(indices) > 1:
            indices = list(dict.fromkeys(indices))
        changed = self._changed
        for index in indices:
            changed[index] = True
        return self._fixpoint(solver, deque(indices), set(indices))

    def check(self, solver: FlatSolver) -> bool:
        self._changed = [True] * len(self._rows)
        retired = self._retired
        queue = deque(i for i in range(len(self._rows)) if i not in retired)
        return self._fixpoint(solver, queue, set(queue))

    def undo(self, solver: FlatSolver, level: int) -> None:
        self.store.undo(level)
        self._changed = [True] * len(self._rows)

    #: Safety cap on queue pops per fixpoint: a positive cycle over
    #: unbounded (&dom-less) variables would otherwise loop for ~2^40
    #: iterations instead of failing fast.
    MAX_FIXPOINT_STEPS = 200_000

    def _fixpoint(self, solver: FlatSolver, queue: deque, queued: Set[int]) -> bool:
        """Evaluate queued constraints in FIFO order until nothing moves.

        A popped constraint is evaluated only when it is active and one of
        its inputs moved since its last evaluation; every pop counts
        towards :attr:`MAX_FIXPOINT_STEPS`.
        """
        rows = self._rows
        changed = self._changed
        by_var = self._by_var
        unit_var = self._unit_var
        values = solver._values  # hot loop: avoid per-literal method calls
        level = solver.decision_level
        pop, push = queue.popleft, queue.append
        mark, unmark = queued.add, queued.discard
        steps = 0
        while queue:
            steps += 1
            if steps > self.MAX_FIXPOINT_STEPS:
                raise RuntimeError(
                    "linear propagation did not converge; declare &dom "
                    "intervals for all theory variables"
                )
            index = pop()
            unmark(index)
            if not changed[index]:
                continue
            row = rows[index]
            condition = row[0]
            if (values[condition] if condition > 0 else -values[-condition]) <= 0:
                continue
            changed[index] = False
            moved = self._propagate_constraint(solver, row, level)
            if moved is None:
                self.theory_conflicts += 1
                self._changed = [True] * len(rows)
                return False
            if level == 0 and unit_var[index] >= 0:
                self._retire(index)
            for var in moved:
                for other in by_var[var]:
                    if other not in queued:
                        mark(other)
                        push(other)
        return True

    def _retire(self, index: int) -> None:
        """Drop an applied level-0 one-variable bound from re-queueing.

        ``x <= hi`` (or ``-x <= -lo``) now bounds ``x`` at level 0 for
        good, so the constraint can never tighten again, and any later
        empty interval is caught by the emptiness check at the bound
        update that causes it.
        """
        self._by_var[self._unit_var[index]].remove(index)
        self._unit_var[index] = -1
        self._retired.add(index)

    def _propagate_constraint(
        self, solver: FlatSolver, row: Tuple[int, tuple, tuple, int, int], level: int
    ) -> Optional[List[int]]:
        """Propagate one active constraint; None signals a conflict.

        Returns the variables whose bound moved.  The explanation is built
        only when the evaluation tightens a bound, forces a literal or
        conflicts, from the state before any of its own updates.
        """
        condition, var_terms, bool_terms, bound, max_weight = row
        store = self.store
        lbs = store._lb  # hot loop: read the bound arrays directly
        ubs = store._ub
        values = solver._values
        min_sum = 0
        for coef, var in var_terms:
            min_sum += coef * (lbs[var] if coef > 0 else ubs[var])
        true_lits: List[int] = []
        for weight, lit in bool_terms:
            if (values[lit] if lit > 0 else -values[-lit]) > 0:
                min_sum += weight
                true_lits.append(lit)
        slack = bound - min_sum
        if slack < 0:
            reason = self._explain(condition, var_terms, true_lits)
            solver.add_propagator_clause([-lit for lit in reason])
            return None

        reason = None
        changed = self._changed
        moved: List[int] = []
        # Tighten variable bounds.
        for coef, var in var_terms:
            if coef > 0:
                new_ub = lbs[var] + slack // coef
                if new_ub >= ubs[var]:
                    continue
                if reason is None:
                    reason = self._explain(condition, var_terms, true_lits)
                self.bound_updates += 1
                store.set_ub(var, new_ub, reason, level)
                readers = self._ub_readers[var]
            else:
                new_lb = ubs[var] - slack // (-coef)
                if new_lb <= lbs[var]:
                    continue
                if reason is None:
                    reason = self._explain(condition, var_terms, true_lits)
                self.bound_updates += 1
                store.set_lb(var, new_lb, reason, level)
                readers = self._lb_readers[var]
            moved.append(var)
            for other in readers:
                changed[other] = True
            if lbs[var] > ubs[var]:
                expl = store.lb_reason(var) + store.ub_reason(var)
                solver.add_propagator_clause([-lit for lit in dict.fromkeys(expl)])
                return None
        if max_weight <= slack:
            return moved
        # Falsify the unassigned Boolean terms that would overflow the
        # slack (all picked before forcing one may assign another).
        forced = [
            lit
            for weight, lit in bool_terms
            if weight > slack and not values[lit if lit > 0 else -lit]
        ]
        for lit in forced:
            if reason is None:
                reason = self._explain(condition, var_terms, true_lits)
            self.theory_propagations += 1
            if not solver.add_propagator_clause([-l for l in reason] + [-lit]):
                return None
            for other in self._by_lit.get(-lit, ()):
                changed[other] = True
        return moved

    def _explain(
        self, condition: int, var_terms: tuple, true_lits: List[int]
    ) -> Tuple[int, ...]:
        """Literals justifying a constraint's current minimal sum.

        In order: the condition, the reason of each bound the constraint
        reads, then its true Boolean terms; duplicates dropped.
        """
        store = self.store
        expl = [condition]
        for coef, var in var_terms:
            expl += store.lb_reason(var) if coef > 0 else store.ub_reason(var)
        expl += true_lits
        return tuple(dict.fromkeys(expl))

    # ------------------------------------------------------------------
    # Introspection / models
    # ------------------------------------------------------------------

    def bounds(self, name: Symbol) -> Tuple[int, int]:
        var = self.store.var(name)
        if var is None:
            raise KeyError(f"unknown theory variable {name}")
        return self.store.lb(var), self.store.ub(var)

    def model_values(self, solver: FlatSolver) -> Dict[str, object]:
        """On a total assignment, each variable's lower bound is a witness."""
        assignment = {
            self.store.name(v): self.store.lb(v) for v in self.store
        }
        return {"ints": assignment}
