"""Objective functions over partial assignments.

The exact multi-objective DSE needs, for every objective, three operations:

* ``bound(solver)`` — a sound lower bound of the objective value for
  *any* completion of the current partial assignment.  The dominance
  propagator compares the bound vector against the Pareto archive.
* ``explain(solver, target)`` — solver literals whose truth alone forces
  ``bound >= target`` (for any ``target`` up to the current bound).  On a
  weak dominator ``d`` the dominance propagator negates the explanations
  of ``bound_i >= d_i`` into a pruning clause.
* ``value(solver)`` — the exact value on a total assignment.

Two implementations cover the synthesis objectives:

* :class:`PseudoBooleanObjective` — ``offset + sum w_i * [l_i]`` with
  non-negative weights (energy, area/cost): the bound is the sum over
  already-true literals and is exact on total assignments.
* :class:`IntVarObjective` — the lower bound of a theory variable
  maintained by the :class:`repro.theory.linear.LinearPropagator`
  (latency/makespan): bounds propagation supplies the bound and the
  reasons of its earlier values, and on total assignments the lower bound
  is a witness value (the earliest schedule).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence, Tuple

from repro.asp.flatsolver import FlatSolver
from repro.asp.syntax import Symbol
from repro.theory.linear import LinearPropagator

__all__ = ["Objective", "PseudoBooleanObjective", "IntVarObjective"]


class Objective(Protocol):
    """What the DSE needs from an objective function."""

    name: str

    def bound(self, solver: FlatSolver) -> int:
        """Lower bound of the objective under the current assignment."""

    def explain(self, solver: FlatSolver, target: int) -> Tuple[int, ...]:
        """True literals that force ``bound >= target`` (``target <= bound``)."""

    def value(self, solver: FlatSolver) -> int:
        """Exact value on a total assignment."""

    def watch_literals(self) -> Sequence[int]:
        """Literals whose assignment can raise the lower bound."""


@dataclass
class PseudoBooleanObjective:
    """``offset + sum(weight * [literal])`` with non-negative weights."""

    name: str
    terms: Tuple[Tuple[int, int], ...]  # (weight, literal)
    offset: int = 0

    def __post_init__(self) -> None:
        for weight, _lit in self.terms:
            if weight < 0:
                raise ValueError(
                    f"objective {self.name!r} has a negative weight; "
                    f"fold it into the offset and negate the literal"
                )

    def bound(self, solver: FlatSolver) -> int:
        bound = self.offset
        values = solver._values  # hot loop: avoid per-literal method calls
        for weight, lit in self.terms:
            if (values[lit] if lit > 0 else -values[-lit]) > 0:
                bound += weight
        return bound

    def explain(self, solver: FlatSolver, target: int) -> Tuple[int, ...]:
        """The earliest true literals whose weights reach ``target``.

        Literals are taken in ascending decision level, in term order
        within one level, so the nogood holds as few late literals as the
        target allows; ``target <= offset`` needs none.
        """
        missing = target - self.offset
        if missing <= 0:
            return ()
        values = solver._values
        true_terms = [
            (weight, lit)
            for weight, lit in self.terms
            if weight and (values[lit] if lit > 0 else -values[-lit]) > 0
        ]
        true_terms.sort(key=lambda term: solver.level(term[1]))
        explanation = []
        for weight, lit in true_terms:
            explanation.append(lit)
            missing -= weight
            if missing <= 0:
                return tuple(explanation)
        raise ValueError(f"objective {self.name!r} is below {target}")

    def value(self, solver: FlatSolver) -> int:
        return self.bound(solver)

    def watch_literals(self) -> Sequence[int]:
        return [lit for weight, lit in self.terms if weight]


@dataclass
class IntVarObjective:
    """The lower bound of a linear-theory variable (e.g. the makespan)."""

    name: str
    propagator: LinearPropagator
    variable: Symbol

    def bound(self, solver: FlatSolver) -> int:
        lower, _upper = self.propagator.bounds(self.variable)
        return lower

    def explain(self, solver: FlatSolver, target: int) -> Tuple[int, ...]:
        store = self.propagator.store
        return store.lb_reason_at_least(store.var(self.variable), target)

    def value(self, solver: FlatSolver) -> int:
        return self.bound(solver)

    def watch_literals(self) -> Sequence[int]:
        # Bounds move only through theory propagation, which is triggered
        # by the linear propagator's own watches; the dominance propagator
        # re-reads the bound on every propagation fixpoint instead.
        return []
