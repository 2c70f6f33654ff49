"""The clingo-style propagator interface for background theories.

Theory and application propagators (linear arithmetic, difference logic,
the DSE dominance propagator) implement :class:`TheoryPropagator`:

* ``init(init)`` — called once after grounding with a
  :class:`PropagatorInit` giving access to ground theory atoms, symbolic
  atoms and watch registration;
* ``propagate(solver, changes)`` / ``undo(solver, level)`` / ``check(solver)``
  — inherited from :class:`repro.asp.flatsolver.PropagatorBase`, called
  during search by the :class:`~repro.asp.flatsolver.FlatSolver` engine;
* ``model_values(solver)`` — optional hook invoked on a total assignment
  to snapshot theory values (schedules, objective vectors) into the
  :class:`repro.asp.control.Model`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.asp.completion import Translation
from repro.asp.flatsolver import FlatSolver, PropagatorBase
from repro.asp.grounder import GroundTheoryAtom
from repro.asp.syntax import Function

__all__ = ["PropagatorInit", "TheoryPropagator"]


@dataclass
class PropagatorInit:
    """Grounding results handed to ``TheoryPropagator.init``."""

    solver: FlatSolver
    translation: Translation

    @property
    def true_lit(self) -> int:
        return self.translation.true_lit

    @property
    def theory_atoms(self) -> List[Tuple[GroundTheoryAtom, int]]:
        """Ground theory atoms with their solver literals."""
        return sorted(
            self.translation.theory_vars.items(), key=lambda item: item[1]
        )

    def solver_literal(self, atom: Function) -> int:
        """Solver literal of a symbolic atom (constant for facts/absent)."""
        return self.translation.atom_lit(atom)

    def symbolic_atoms(self) -> Dict[Function, int]:
        """All symbolic atoms with dedicated solver variables."""
        return dict(self.translation.atom_vars)

    def add_watch(self, lit: int, propagator: PropagatorBase) -> None:
        self.solver.add_propagator_watch(lit, propagator)

    def add_clause(self, lits: List[int]) -> bool:
        return self.solver.add_clause(lits)


class TheoryPropagator(PropagatorBase):
    """Base class for background-theory propagators."""

    def init(self, init: PropagatorInit) -> None:
        """Inspect theory atoms, create state, register watches."""

    def model_values(self, solver: FlatSolver) -> Dict[str, object]:
        """Snapshot theory values on a total assignment (optional)."""
        return {}
