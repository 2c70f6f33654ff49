"""Specialized difference-logic propagator.

Handles ``&diff { u - v } op c`` atoms with the potential-function
algorithm of Cotton & Maler (the one clingo-dl uses): the propagator
maintains an integer *potential* per node that satisfies every active
edge; activating an edge whose constraint the potentials violate triggers
an incremental relabeling pass, and a relabeling that wraps around to the
new edge's head proves a negative cycle — the edge literals along the
cycle form the conflict clause.

The generic :class:`repro.theory.linear.LinearPropagator` also covers
difference constraints (by bounds propagation), but detects cyclic
infeasibility only by walking bounds across the whole ``&dom`` interval.
Stacking this propagator on top detects those conflicts in one graph
pass with a *minimal* explanation — this is the "specialized vs. generic
scheduling theory" ablation of the benchmarks (Fig. 3/4 companions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.asp.flatsolver import FlatSolver
from repro.asp.grounder import GroundTheoryAtom, TheoryTermOp
from repro.asp.propagator import PropagatorInit, TheoryPropagator
from repro.asp.syntax import Function, Number, Symbol

__all__ = ["DifferenceLogicPropagator", "DifferenceEdge"]


@dataclass(frozen=True)
class DifferenceEdge:
    """Constraint ``x - y <= weight``, active while ``literal`` is true."""

    x: int
    y: int
    weight: int
    literal: int


class DifferenceLogicPropagator(TheoryPropagator):
    """Incremental negative-cycle detection over ``&diff`` constraints."""

    #: Name of the virtual node representing the constant 0.
    ZERO = Function("__dl_zero")

    def __init__(self) -> None:
        self._names: List[Symbol] = []
        self._ids: Dict[Symbol, int] = {}
        self._edges: List[DifferenceEdge] = []
        self._by_literal: Dict[int, List[int]] = {}
        #: Active edge indices, in activation order (with level marks).
        self._active: List[int] = []
        self._active_set: Set[int] = set()
        self._level_marks: List[Tuple[int, int, int]] = []  # (level, n_active, n_pi)
        self._pi: List[int] = []
        self._pi_trail: List[Tuple[int, int]] = []  # (node, old value)
        #: Outgoing active edges per node: node -> list of edge indices.
        self._out: Dict[int, List[int]] = {}
        self.conflicts = 0

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def _node(self, name: Symbol) -> int:
        node = self._ids.get(name)
        if node is None:
            node = len(self._names)
            self._ids[name] = node
            self._names.append(name)
            self._pi.append(0)
        return node

    def init(self, init: PropagatorInit) -> None:
        self._node(self.ZERO)
        for atom, lit in init.theory_atoms:
            if atom.name != "diff":
                continue
            self._init_diff(atom, lit)
        for lit in self._by_literal:
            init.add_watch(lit, self)

    def _init_diff(self, atom: GroundTheoryAtom, lit: int) -> None:
        if len(atom.elements) != 1 or atom.guard is None:
            raise ValueError(f"&diff needs one element and a guard: {atom}")
        (terms, condition), = atom.elements
        if condition:
            raise ValueError(f"&diff elements cannot be conditional: {atom}")
        x, y = self._split_difference(terms[0])
        op, guard_value = atom.guard
        if not isinstance(guard_value, Number):
            raise ValueError(f"&diff guard must be an integer: {atom}")
        c = guard_value.value
        # x - y op c, normalized to <= edges.
        if op in ("<=", "<"):
            self._add_edge(x, y, c if op == "<=" else c - 1, lit)
        elif op in (">=", ">"):
            self._add_edge(y, x, -c if op == ">=" else -c - 1, lit)
        elif op == "=":
            self._add_edge(x, y, c, lit)
            self._add_edge(y, x, -c, lit)
        else:
            raise ValueError(f"unsupported &diff operator {op!r}")

    def _split_difference(self, term: object) -> Tuple[int, int]:
        """Decompose ``u - v`` (or a bare ``u``) into node ids."""
        if isinstance(term, Function):
            return self._node(term), self._node(self.ZERO)
        if isinstance(term, TheoryTermOp) and term.op == "-" and len(term.arguments) == 2:
            u, v = term.arguments
            return self._to_node(u), self._to_node(v)
        raise ValueError(f"&diff element must be 'u - v': {term}")

    def _to_node(self, term: object) -> int:
        if isinstance(term, Function):
            return self._node(term)
        if isinstance(term, Number) and term.value == 0:
            return self._node(self.ZERO)
        raise ValueError(f"&diff operands must be variables or 0: {term}")

    def _add_edge(self, x: int, y: int, weight: int, lit: int) -> None:
        index = len(self._edges)
        self._edges.append(DifferenceEdge(x, y, weight, lit))
        self._by_literal.setdefault(lit, []).append(index)

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------

    def propagate(self, solver: FlatSolver, changes: Sequence[int]) -> bool:
        level = solver.decision_level
        if not self._level_marks or self._level_marks[-1][0] < level:
            self._level_marks.append((level, len(self._active), len(self._pi_trail)))
        for lit in changes:
            for index in self._by_literal.get(lit, ()):
                if index in self._active_set:
                    continue
                if not self._activate(solver, index):
                    return False
        return True

    def undo(self, solver: FlatSolver, level: int) -> None:
        while self._level_marks and self._level_marks[-1][0] > level:
            _lvl, n_active, n_pi = self._level_marks.pop()
            while len(self._active) > n_active:
                index = self._active.pop()
                self._active_set.discard(index)
                edge = self._edges[index]
                self._out[edge.y].remove(index)
            while len(self._pi_trail) > n_pi:
                node, old = self._pi_trail.pop()
                self._pi[node] = old

    def check(self, solver: FlatSolver) -> bool:
        # Propagation is eager and exact for difference logic; nothing to do.
        return True

    def _set_pi(self, node: int, value: int, level: int) -> None:
        if level > 0:
            self._pi_trail.append((node, self._pi[node]))
        self._pi[node] = value

    def _activate(self, solver: FlatSolver, index: int) -> bool:
        """Activate one edge, repairing potentials (Cotton–Maler)."""
        edge = self._edges[index]
        self._active.append(index)
        self._active_set.add(index)
        self._out.setdefault(edge.y, []).append(index)
        pi = self._pi
        if pi[edge.x] - pi[edge.y] <= edge.weight:
            return True
        level = solver.decision_level
        # Lower pi[x] to satisfy the new edge, then relax forward along
        # active edges out of updated nodes.  Reaching y again with a
        # pending decrease certifies a negative cycle.
        parent: Dict[int, int] = {edge.x: index}
        self._set_pi(edge.x, pi[edge.y] + edge.weight, level)
        queue = [edge.x]
        while queue:
            node = queue.pop()
            for out_index in self._out.get(node, ()):
                out_edge = self._edges[out_index]
                # out_edge: x' - node <= w, i.e. pi[x'] <= pi[node] + w.
                target = out_edge.x
                new_value = pi[node] + out_edge.weight
                if pi[target] - new_value > 0:
                    if target == edge.y:
                        # Negative cycle: follow parents back from `node`.
                        cycle = [out_index]
                        current = node
                        while current != edge.y:
                            cycle.append(parent[current])
                            current = self._edges[parent[current]].y
                        clause = [
                            -self._edges[i].literal for i in dict.fromkeys(cycle)
                        ]
                        self.conflicts += 1
                        solver.add_propagator_clause(clause)
                        return False
                    parent[target] = out_index
                    self._set_pi(target, new_value, level)
                    queue.append(target)
        return True

    # ------------------------------------------------------------------
    # Models
    # ------------------------------------------------------------------

    def assignment(self) -> Dict[Symbol, int]:
        """A feasible assignment (normalized so the zero node maps to 0)."""
        zero = self._ids[self.ZERO]
        base = self._pi[zero]
        return {
            name: self._pi[node] - base
            for name, node in self._ids.items()
            if name != self.ZERO
        }

    def model_values(self, solver: FlatSolver) -> Dict[str, object]:
        return {"dl": self.assignment()}
