"""Unfounded-set propagation for non-tight programs.

Clark completion admits circular justifications (e.g. ``a :- b. b :- a.``
lets ``{a, b}`` satisfy all clauses), so for programs whose positive
dependency graph has cycles the solver runs this propagator.  It tracks,
per non-trivial strongly connected component, which atoms are *founded* —
derivable through a support whose body is not false and whose
same-component positive atoms are themselves founded — and falsifies the
rest with *loop nogoods*:

    unfounded atom  ->  disjunction of the external supports of the set

where an external support of an unfounded set ``U`` is the body of a rule
whose head lies in ``U`` but whose positive atoms avoid ``U``.  All such
bodies are false whenever ``U`` is unfounded, so the added clause either
propagates the atom to false or raises a conflict the CDCL core resolves.

The recomputation is triggered lazily: the propagator watches the
negation of every support body literal and re-evaluates only components
with newly-false supports (plus one final sweep in ``check``).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from repro.asp.completion import Translation
from repro.asp.flatsolver import FlatSolver, PropagatorBase
from repro.asp.syntax import Function

__all__ = ["UnfoundedSetPropagator"]


class UnfoundedSetPropagator(PropagatorBase):
    """Source-tracking unfounded-set check over non-trivial SCCs."""

    def __init__(self, translation: Translation):
        self._translation = translation
        sccs = translation.program.nontrivial_sccs()
        #: Per component: {atom: [(support_lit, internal_atoms)]}.
        self._components: List[Dict[Function, List[Tuple[int, Tuple[Function, ...]]]]] = []
        self._watch_to_components: Dict[int, List[int]] = {}
        for scc in sccs:
            members = {
                atom for atom in scc if atom in translation.atom_vars
            }
            if not members:
                continue
            component: Dict[Function, List[Tuple[int, Tuple[Function, ...]]]] = {}
            index = len(self._components)
            for atom in sorted(members):
                entries = []
                for support in translation.supports.get(atom, []):
                    internal = tuple(a for a in support.positive_atoms if a in members)
                    entries.append((support.literal, internal))
                    self._watch_to_components.setdefault(-support.literal, []).append(
                        index
                    )
                component[atom] = entries
            self._components.append(component)
        self._dirty: Set[int] = set(range(len(self._components)))

    @property
    def tracked_components(self) -> int:
        return len(self._components)

    def on_attach(self, solver: FlatSolver) -> None:
        if not self._components:
            return
        for lit in sorted(self._watch_to_components):
            solver.add_propagator_watch(lit, self)
        # Ensure an initial propagation round even without support events.
        solver.add_propagator_watch(self._translation.true_lit, self)

    def propagate(self, solver: FlatSolver, changes: Sequence[int]) -> bool:
        for lit in changes:
            if lit == self._translation.true_lit:
                self._dirty.update(range(len(self._components)))
            for index in self._watch_to_components.get(lit, ()):
                self._dirty.add(index)
        while self._dirty:
            index = self._dirty.pop()
            if not self._process(solver, index):
                return False
        return True

    def undo(self, solver: FlatSolver, level: int) -> None:
        # Backtracking can only make supports non-false, which enlarges the
        # founded set; no unfounded atoms can appear, so nothing to do.
        pass

    def check(self, solver: FlatSolver) -> bool:
        for index in range(len(self._components)):
            if not self._process(solver, index):
                return False
        return True

    # -- core -------------------------------------------------------------------

    def _process(self, solver: FlatSolver, index: int) -> bool:
        component = self._components[index]
        founded: Set[Function] = set()
        changed = True
        while changed:
            changed = False
            for atom, entries in component.items():
                if atom in founded:
                    continue
                for support_lit, internal in entries:
                    if solver.value(support_lit) is False:
                        continue
                    if all(dep in founded for dep in internal):
                        founded.add(atom)
                        changed = True
                        break
        unfounded = [atom for atom in component if atom not in founded]
        if not unfounded:
            return True
        unfounded_set = set(unfounded)
        external: List[int] = []
        for atom in unfounded:
            for support_lit, internal in component[atom]:
                if not any(dep in unfounded_set for dep in internal):
                    if support_lit not in external:
                        external.append(support_lit)
        atom_vars = self._translation.atom_vars
        for atom in unfounded:
            var = atom_vars[atom]
            if solver.value(var) is False:
                continue
            if not solver.add_propagator_clause([-var] + external):
                return False
        return True
