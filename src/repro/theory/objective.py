"""Objective functions over partial assignments.

The exact multi-objective DSE needs, for every objective, two operations:

* ``lower_bound(solver)`` — a sound lower bound of the objective value
  for *any* completion of the current partial assignment, together with
  an *explanation* (solver literals responsible for the bound).  The
  dominance propagator compares the lower-bound vector against the Pareto
  archive and turns the explanations into pruning clauses.
* ``value(solver)`` — the exact value on a total assignment.

Two implementations cover the synthesis objectives:

* :class:`PseudoBooleanObjective` — ``offset + sum w_i * [l_i]`` with
  non-negative weights (energy, area/cost): the bound is the sum over
  already-true literals and is exact on total assignments.
* :class:`IntVarObjective` — the lower bound of a theory variable
  maintained by the :class:`repro.theory.linear.LinearPropagator`
  (latency/makespan): bounds propagation supplies both the bound and its
  explanation, and on total assignments the lower bound is a witness
  value (the earliest schedule).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Protocol, Sequence, Tuple

from repro.asp.flatsolver import FlatSolver
from repro.asp.syntax import Symbol
from repro.theory.linear import LinearPropagator

__all__ = ["Objective", "PseudoBooleanObjective", "IntVarObjective"]


class Objective(Protocol):
    """What the DSE needs from an objective function."""

    name: str

    def lower_bound(self, solver: FlatSolver) -> Tuple[int, Tuple[int, ...]]:
        """(bound, explanation literals) under the current assignment."""

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

    def lower_bound(self, solver: FlatSolver) -> Tuple[int, Tuple[int, ...]]:
        bound = self.offset
        explanation: List[int] = []
        values = solver._values  # hot loop: avoid per-literal method calls
        for weight, lit in self.terms:
            signed = values[lit] if lit > 0 else -values[-lit]
            if weight and signed > 0:
                bound += weight
                explanation.append(lit)
        return bound, tuple(explanation)

    def value(self, solver: FlatSolver) -> int:
        bound, _explanation = self.lower_bound(solver)
        return bound

    def watch_literals(self) -> Sequence[int]:
        return [lit for weight, lit in self.terms if weight]


@dataclass
class IntVarObjective:
    """The lower bound of a linear-theory variable (e.g. the makespan)."""

    name: str
    propagator: LinearPropagator
    variable: Symbol

    def lower_bound(self, solver: FlatSolver) -> Tuple[int, Tuple[int, ...]]:
        return self.propagator.lower_bound(self.variable)

    def value(self, solver: FlatSolver) -> int:
        bound, _explanation = self.propagator.lower_bound(self.variable)
        return bound

    def watch_literals(self) -> Sequence[int]:
        # Bounds move only through theory propagation, which is triggered
        # by the linear propagator's own watches; the dominance propagator
        # re-reads the bound on every propagation fixpoint instead.
        return []
