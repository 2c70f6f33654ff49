"""Enumerate-and-filter baselines.

``exhaustive_front`` enumerates *every* answer set of the encoding (all
bindings x all routings), computes each objective vector, and filters the
non-dominated ones.  Exponential, but it is the independent ground truth
the exact DSE is validated against.

``solution_level_front`` is the intermediate point of the paper's
comparison: the same incremental ASPmT solver loop as the proposed
method, with the dominance check applied only to *total* assignments
(``partial_pruning=False``) — i.e. design points are still excluded
exactly, but subtrees are never cut early.  The gap between this and the
full method isolates the contribution of partial-assignment dominance
propagation (Fig. 3).
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from repro.asp.control import Control
from repro.dse.explorer import ExactParetoExplorer
from repro.dse.pareto import pareto_filter
from repro.synthesis.encoding import EncodedInstance
from repro.synthesis.solution import decode_model
from repro.theory.linear import LinearPropagator
from repro.baselines.result import BaselineResult

__all__ = ["exhaustive_front", "solution_level_front"]


def exhaustive_front(
    instance: EncodedInstance, conflict_limit: Optional[int] = None
) -> BaselineResult:
    """Enumerate all implementations, then Pareto-filter."""
    names = tuple(o.name for o in instance.objectives)
    spec = instance.specification
    started = time.perf_counter()

    control = Control()
    control.conflict_limit = conflict_limit
    linear = LinearPropagator()
    for part in instance.parts:
        control.add(part)
    control.register_propagator(linear)
    control.ground()

    points = []

    def on_model(model) -> None:
        implementation = decode_model(spec, model)
        vector = tuple(implementation.objectives[name] for name in names)
        implementation.objectives = dict(zip(names, vector))
        points.append((vector, implementation))

    summary = control.solve(on_model=on_model, models=0)
    front = dict(pareto_filter(points))
    return BaselineResult(
        method="exhaustive",
        objectives=names,
        front=front,
        exact=not summary.interrupted,
        models_enumerated=len(points),
        solver_calls=1,
        conflicts=control.statistics.conflicts,
        wall_time=time.perf_counter() - started,
        interrupted=summary.interrupted,
    )


def solution_level_front(
    instance: EncodedInstance, conflict_limit: Optional[int] = None
) -> BaselineResult:
    """ASPmT enumeration with dominance checks on total assignments only."""
    explorer = ExactParetoExplorer(
        instance,
        partial_pruning=False,
        conflict_limit=conflict_limit,
        validate_models=False,
    )
    result = explorer.run()
    front = {point.vector: point.implementation for point in result.front}
    return BaselineResult(
        method="solution-level",
        objectives=result.objectives,
        front=front,
        exact=not result.statistics.interrupted,
        models_enumerated=result.statistics.models_enumerated,
        solver_calls=1,
        conflicts=result.statistics.conflicts,
        wall_time=result.statistics.wall_time,
        interrupted=result.statistics.interrupted,
    )
