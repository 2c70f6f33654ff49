"""Exact epsilon-constraint baseline.

The classic way to obtain an exact Pareto front from a single-objective
exact solver: repeatedly lexicographically minimize the objectives under
upper bounds ("epsilons") on the non-primary objectives, then split the
bound space at every point found (Klein & Hannan).  Each single-objective
minimization is a branch-and-bound loop over the same ASPmT solver,
pruning with :class:`repro.dse.explorer.ObjectiveBoundPropagator`.

Bound *relaxations* between epsilon steps would invalidate pruning
clauses learned earlier, so every epsilon step runs in a fresh *epoch*:
a fresh activation variable is assumed, and all pruning clauses of the
step carry its negation.  Bounds only ever tighten within an epoch.

The method is exact but needs one solver descent per front point and per
bound split — the number of single-objective runs grows roughly with
``|front|^(k-1)``, which is the scaling disadvantage against the
single-run dominance-propagating DSE that Table II demonstrates.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.asp.control import Control
from repro.dse.explorer import ObjectiveBoundPropagator
from repro.dse.pareto import pareto_filter
from repro.synthesis.encoding import EncodedInstance
from repro.synthesis.solution import Implementation, decode_model
from repro.theory.linear import LinearPropagator
from repro.baselines.result import BaselineResult

__all__ = ["BranchAndBoundMinimizer", "epsilon_constraint_front"]


class BranchAndBoundMinimizer:
    """Incremental lexicographic minimization over one ASPmT solver."""

    def __init__(self, instance: EncodedInstance, conflict_limit: Optional[int] = None):
        self.instance = instance
        self.names = tuple(o.name for o in instance.objectives)
        self.control = Control()
        self.control.conflict_limit = conflict_limit
        self.linear = LinearPropagator()
        self.bound = ObjectiveBoundPropagator(instance.objectives, self.linear)
        instance.add_to(self.control)
        self.control.register_propagator(self.linear)
        self.control.register_propagator(self.bound)
        self.control.ground()
        self.solver_calls = 0
        self.models = 0
        self.interrupted = False

    def _new_epoch(self, bounds: Dict[str, int]) -> int:
        activation = self.control.solver.new_var()
        self.bound.activation = activation
        self.bound.bounds = dict(bounds)
        return activation

    def _solve_once(self, activation: int):
        self.solver_calls += 1
        captured: List = []

        def on_model(model):
            captured.append(model)
            return False

        summary = self.control.solve(
            on_model=on_model,
            models=1,
            block=False,
            assumption_literals=[activation],
        )
        if summary.interrupted:
            self.interrupted = True
        if captured:
            self.models += 1
            return captured[0]
        return None

    def lex_minimize(
        self, upper_bounds: Dict[str, int]
    ) -> Optional[Tuple[Tuple[int, ...], Implementation]]:
        """Lexicographically minimize the objectives under ``upper_bounds``.

        Returns ``(vector, implementation)`` of the lexicographic optimum,
        or None when the bounds are infeasible (or the budget ran out).
        """
        bounds = dict(upper_bounds)
        best_model = None
        for index, name in enumerate(self.names):
            activation = self._new_epoch(bounds)
            incumbent: Optional[int] = None
            while True:
                model = self._solve_once(activation)
                if model is None:
                    break
                best_model = model
                incumbent = model.theory["objectives"][name]
                self.bound.bounds[name] = incumbent - 1
            if self.interrupted:
                return None
            if incumbent is None:
                return None  # infeasible under the given bounds
            bounds[name] = incumbent  # fix the optimum for later objectives
        assert best_model is not None
        vector = tuple(best_model.theory["objectives"][n] for n in self.names)
        implementation = decode_model(self.instance.specification, best_model)
        implementation.objectives = dict(zip(self.names, vector))
        return vector, implementation


def epsilon_constraint_front(
    instance: EncodedInstance,
    conflict_limit: Optional[int] = None,
    max_solves: Optional[int] = None,
) -> BaselineResult:
    """Exact Pareto front by epsilon-constraint splitting."""
    started = time.perf_counter()
    minimizer = BranchAndBoundMinimizer(instance, conflict_limit=conflict_limit)
    names = minimizer.names
    front: Dict[Tuple[int, ...], Implementation] = {}
    visited: Set[Tuple[Optional[int], ...]] = set()
    # Bounds apply to objectives 1..k-1 (the primary one is minimized).
    stack: List[Tuple[Optional[int], ...]] = [tuple([None] * (len(names) - 1))]
    truncated = False
    while stack:
        key = stack.pop()
        if key in visited:
            continue
        visited.add(key)
        if max_solves is not None and minimizer.solver_calls >= max_solves:
            truncated = True
            break
        bounds = {
            names[i + 1]: bound for i, bound in enumerate(key) if bound is not None
        }
        point = minimizer.lex_minimize(bounds)
        if minimizer.interrupted:
            truncated = True
            break
        if point is None:
            continue
        vector, implementation = point
        front.setdefault(vector, implementation)
        for i in range(len(names) - 1):
            child = list(key)
            new_bound = vector[i + 1] - 1
            if child[i] is None or new_bound < child[i]:
                child[i] = new_bound
            else:
                continue
            stack.append(tuple(child))
    filtered = dict(pareto_filter(front.items()))
    return BaselineResult(
        method="epsilon-constraint",
        objectives=names,
        front=filtered,
        exact=not truncated,
        models_enumerated=minimizer.models,
        solver_calls=minimizer.solver_calls,
        conflicts=minimizer.control.statistics.conflicts,
        wall_time=time.perf_counter() - started,
        interrupted=truncated,
    )
