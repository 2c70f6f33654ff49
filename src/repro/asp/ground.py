"""Ground program representation and dependency analysis.

Collects the grounder's output, assigns consecutive ids to atoms, and
computes the *positive dependency graph* used both for tightness analysis
and by the unfounded-set propagator: an edge ``head -> b`` exists when
``b`` occurs positively in the body (or choice-element condition) of a
rule with head ``head``.

A :class:`GroundProgram` is a self-contained, *picklable* artifact: it
carries the ``#show``/``#external`` declarations and the grounding
statistics alongside the rules, so a program ground once can be handed
to other processes (the parallel DSE workers inherit it under ``fork``
and unpickle it under ``spawn``) or cached and replayed into fresh
:class:`~repro.asp.control.Control` instances without re-grounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.asp.grounder import (
    GroundChoice,
    GroundingStatistics,
    GroundRule,
    GroundTheoryAtom,
)
from repro.asp.syntax import Function
from repro.graphs import add_edge, strongly_connected_components

__all__ = ["GroundProgram"]

Signature = Tuple[str, int]


@dataclass
class GroundProgram:
    """The grounder's output plus the derived atom universe.

    ``shows`` mirrors :attr:`repro.asp.ast.Program.shows` (``None`` when
    the program had no ``#show`` statement); ``externals`` holds the
    ``#external``-declared signatures; ``grounding`` the effort counters
    of the run that produced this program (``None`` for hand-built
    programs, e.g. in unit tests).
    """

    rules: List[GroundRule]
    possible: Set[Function]
    facts: Set[Function]
    shows: Optional[Set[Signature]] = None
    externals: FrozenSet[Signature] = frozenset()
    grounding: Optional[GroundingStatistics] = None

    def __post_init__(self) -> None:
        self._positive_graph: Optional[Dict[Function, Dict[Function, None]]] = None
        self._nontrivial_sccs: Optional[List[FrozenSet[Function]]] = None

    # -- serialization -------------------------------------------------------

    def __getstate__(self) -> dict:
        # The dependency graph and its loops are derived caches and can
        # be large; receivers recompute them on demand.
        state = self.__dict__.copy()
        state["_positive_graph"] = None
        state["_nontrivial_sccs"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    # -- dependency analysis -------------------------------------------------

    def positive_dependency_graph(self) -> Dict[Function, Dict[Function, None]]:
        """The positive atom dependency graph (facts excluded), as a
        :mod:`repro.graphs` dict ``atom -> {body atom: None}``."""
        if self._positive_graph is not None:
            return self._positive_graph
        graph: Dict[Function, Dict[Function, None]] = {
            atom: {} for atom in sorted(self.possible) if atom not in self.facts
        }
        for rule in self.rules:
            positives = [
                atom for sign, atom in rule.body if sign == 0 and atom not in self.facts
            ]
            if isinstance(rule.head, GroundChoice):
                for head, condition in rule.head.elements:
                    extra = [
                        atom
                        for sign, atom in condition
                        if sign == 0 and atom not in self.facts
                    ]
                    for body_atom in positives + extra:
                        add_edge(graph, head, body_atom)
            elif isinstance(rule.head, Function):
                for body_atom in positives:
                    add_edge(graph, rule.head, body_atom)
        self._positive_graph = graph
        return graph

    def nontrivial_sccs(self) -> List[FrozenSet[Function]]:
        """SCCs of the positive dependency graph with a real cycle
        (computed once; :meth:`is_tight` and the unfounded-set check
        share the list)."""
        if self._nontrivial_sccs is not None:
            return self._nontrivial_sccs
        graph = self.positive_dependency_graph()
        self._nontrivial_sccs = [
            frozenset(component)
            for component in strongly_connected_components(graph)
            if len(component) > 1 or any(atom in graph[atom] for atom in component)
        ]
        return self._nontrivial_sccs

    @property
    def is_tight(self) -> bool:
        """True when the positive dependency graph is acyclic."""
        return not self.nontrivial_sccs()

    # -- misc ------------------------------------------------------------------

    def theory_atoms(self) -> List[GroundTheoryAtom]:
        out = []
        seen = set()
        for rule in self.rules:
            if isinstance(rule.head, GroundTheoryAtom) and rule.head not in seen:
                seen.add(rule.head)
                out.append(rule.head)
        return out

    def __str__(self) -> str:
        return "\n".join(str(rule) for rule in self.rules)
