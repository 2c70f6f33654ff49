"""Exact multi-objective DSE with dominance propagation.

:class:`ExactParetoExplorer` wires the whole ASPmT stack together:

* the synthesis encoding (Boolean rules + scheduling theory atoms),
* the :class:`repro.theory.linear.LinearPropagator` (partial assignment
  evaluation of the timing constraints),
* optionally the specialized difference-logic propagator,
* the :class:`DominancePropagator` — the paper's contribution: on every
  propagation fixpoint it computes a lower bound of the objective vector
  of the *current partial assignment* (pseudo-Boolean sums of true
  literals; theory-variable lower bounds) and, when a point ``d`` in the
  Pareto archive weakly dominates that bound, adds the pruning nogood

      not (explanation of bound_i >= d_i, for every objective i)

  because every completion of the kept literals has bounds ``>= d`` and
  so cannot produce a *new* Pareto point.  Total assignments that survive
  are new non-dominated points by construction; enumeration runs until
  unsatisfiability, making the final archive the exact Pareto front.

:class:`ObjectiveBoundPropagator` is the single-objective sibling used by
the branch-and-bound / epsilon-constraint baselines: it prunes
assignments whose objective lower bound exceeds a (mutable) upper bound.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.asp.control import Control, Model
from repro.asp.flatsolver import FlatSolver
from repro.asp.propagator import PropagatorInit, TheoryPropagator
from repro.synthesis.encoding import EncodedInstance, ObjectiveSpec, encode
from repro.synthesis.model import Specification
from repro.synthesis.solution import Implementation, decode_model, validate
from repro.dse.pareto import ListArchive, non_dominated_union
from repro.dse.quadtree import QuadTreeArchive
from repro.dse.scheduler import ArchiveDelta, CubeScheduler
from repro.theory.difference import DifferenceLogicPropagator
from repro.theory.linear import LinearPropagator
from repro.theory.objective import IntVarObjective, Objective, PseudoBooleanObjective

__all__ = [
    "DominancePropagator",
    "ObjectiveBoundPropagator",
    "ExactParetoExplorer",
    "ParetoPoint",
    "DseResult",
    "DseStatistics",
]


def build_objectives(
    specs: Sequence[ObjectiveSpec],
    init: PropagatorInit,
    linear: LinearPropagator,
) -> List[Objective]:
    """Resolve symbolic objective declarations into literal-level objectives."""
    objectives: List[Objective] = []
    for spec in specs:
        if spec.kind == "pb":
            terms = []
            for weight, atom in spec.terms:
                lit = init.solver_literal(atom)
                if lit == init.true_lit:
                    terms.append((weight, lit))  # folded constant; kept simple
                elif lit == -init.true_lit:
                    continue
                else:
                    terms.append((weight, lit))
            objectives.append(PseudoBooleanObjective(spec.name, tuple(terms)))
        elif spec.kind == "var":
            assert spec.variable is not None
            # Make sure the variable exists even if no constraint mentions it.
            linear.var_id(spec.variable)
            objectives.append(IntVarObjective(spec.name, linear, spec.variable))
        else:
            raise ValueError(f"unknown objective kind {spec.kind!r}")
    return objectives


class DominancePropagator(TheoryPropagator):
    """Prunes partial assignments dominated by the Pareto archive."""

    def __init__(
        self,
        objective_specs: Sequence[ObjectiveSpec],
        linear: LinearPropagator,
        archive,
        partial_pruning: bool = True,
    ):
        self._specs = objective_specs
        self._linear = linear
        self.archive = archive
        self.objectives: List[Objective] = []
        self.partial_pruning = partial_pruning
        # An epsilon archive (dse/approximation.py) returns a point p with
        # p <= bounds + epsilon, so the bounds need only reach p - epsilon.
        self._epsilon = getattr(archive, "epsilon", 0)
        #: Pruning statistics for the ablation benchmarks.
        self.pruned_partial = 0
        self.pruned_total = 0
        #: Wall seconds spent in dominance checks (bounds + archive query).
        self.prune_time = 0.0
        # Cached bounds of the current assignment: the pseudo-Boolean
        # parts only move when a watched literal fires (invalidated in
        # propagate/undo) and the theory-variable parts only when the
        # linear store's bound revision changes.
        self._bound_cache: Optional[Tuple[int, ...]] = None
        self._cache_revision = -1

    # -- setup -------------------------------------------------------------------

    def init(self, init: PropagatorInit) -> None:
        self.objectives = build_objectives(self._specs, init, self._linear)
        watched = set()
        for objective in self.objectives:
            watched.update(objective.watch_literals())
        # Theory-variable bounds move without literal events of their own;
        # watching everything the linear propagator watches guarantees we
        # re-evaluate on the same fixpoints (we are registered after it).
        watched.update(self._linear.watches)
        watched.add(init.true_lit)
        watched.discard(-init.true_lit)
        for lit in sorted(watched):
            init.add_watch(lit, self)

    # -- pruning -----------------------------------------------------------------

    def bound_vector(self, solver: FlatSolver) -> Tuple[int, ...]:
        """Lower-bound vector of the current assignment."""
        revision = self._linear.store.revision
        if self._bound_cache is not None and revision == self._cache_revision:
            return self._bound_cache
        self._bound_cache = tuple(
            objective.bound(solver) for objective in self.objectives
        )
        self._cache_revision = revision
        return self._bound_cache

    def value_vector(self, solver: FlatSolver) -> Tuple[int, ...]:
        """Exact objective vector on a total assignment."""
        return tuple(objective.value(solver) for objective in self.objectives)

    def _prune(self, solver: FlatSolver, total: bool) -> bool:
        started = perf_counter()
        dominator = self.archive.find_weak_dominator(self.bound_vector(solver))
        if dominator is None:
            self.prune_time += perf_counter() - started
            return True
        if total:
            self.pruned_total += 1
        else:
            self.pruned_partial += 1
        clause = []
        for objective, point in zip(self.objectives, dominator):
            reason = objective.explain(solver, point - self._epsilon)
            clause.extend(-lit for lit in reason)
        solver.add_propagator_clause(clause)
        self.prune_time += perf_counter() - started
        return False

    def propagate(self, solver: FlatSolver, changes: Sequence[int]) -> bool:
        if changes:
            # A watched literal fired: the pseudo-Boolean bound parts may
            # have moved even when the linear store's revision did not.
            self._bound_cache = None
        if not self.partial_pruning:
            return True
        return self._prune(solver, total=False)

    def undo(self, solver: FlatSolver, level: int) -> None:
        self._bound_cache = None

    def check(self, solver: FlatSolver) -> bool:
        return self._prune(solver, total=True)

    def model_values(self, solver: FlatSolver) -> Dict[str, object]:
        return {
            "objectives": {
                objective.name: objective.value(solver)
                for objective in self.objectives
            }
        }


class ObjectiveBoundPropagator(TheoryPropagator):
    """Single-objective pruning: objective lower bounds vs. upper limits.

    ``bounds`` maps objective names to inclusive upper limits and may be
    *tightened* between solve calls (branch-and-bound); learned pruning
    clauses stay valid because limits only ever decrease.  To *relax*
    bounds (the epsilon-constraint driver does, between epsilon steps),
    set ``activation`` to a fresh solver variable and assume it during
    subsequent solves: every pruning clause carries ``-activation``, so
    clauses of a stale epoch are disabled by simply dropping its
    assumption.
    """

    def __init__(
        self,
        objective_specs: Sequence[ObjectiveSpec],
        linear: LinearPropagator,
    ):
        self._specs = objective_specs
        self._linear = linear
        self.objectives: List[Objective] = []
        self.bounds: Dict[str, int] = {}
        self.activation: Optional[int] = None
        self.pruned = 0

    def init(self, init: PropagatorInit) -> None:
        self.objectives = build_objectives(self._specs, init, self._linear)
        watched = set()
        for objective in self.objectives:
            watched.update(objective.watch_literals())
        watched.update(self._linear.watches)
        watched.add(init.true_lit)
        for lit in sorted(watched):
            init.add_watch(lit, self)

    def _prune(self, solver: FlatSolver) -> bool:
        if self.activation is not None and solver.value(self.activation) is not True:
            return True  # stale epoch (or activation not yet assumed)
        for objective in self.objectives:
            limit = self.bounds.get(objective.name)
            if limit is None:
                continue
            bound = objective.bound(solver)
            if bound > limit:
                self.pruned += 1
                clause = [-lit for lit in objective.explain(solver, bound)]
                if self.activation is not None:
                    clause.append(-self.activation)
                solver.add_propagator_clause(clause)
                return False
        return True

    def propagate(self, solver: FlatSolver, changes: Sequence[int]) -> bool:
        return self._prune(solver)

    def check(self, solver: FlatSolver) -> bool:
        return self._prune(solver)

    def model_values(self, solver: FlatSolver) -> Dict[str, object]:
        return {
            "objectives": {
                objective.name: objective.value(solver)
                for objective in self.objectives
            }
        }


@dataclass(frozen=True)
class ParetoPoint:
    """One point of the exact front with a witness implementation."""

    vector: Tuple[int, ...]
    implementation: Implementation


@dataclass
class DseStatistics:
    """Search effort metrics reported by the benchmarks (Table II)."""

    models_enumerated: int = 0
    pareto_points: int = 0
    pruned_partial: int = 0
    pruned_total: int = 0
    conflicts: int = 0
    decisions: int = 0
    #: Unit-propagation assignments made by the solver core.
    propagations: int = 0
    #: Luby restarts performed by the solver core.
    restarts: int = 0
    #: Clause store footprint at the end of the run (arena bytes).
    clause_db_bytes: int = 0
    archive_comparisons: int = 0
    wall_time: float = 0.0
    interrupted: bool = False
    #: Additive approximation factor (0 = exact).
    epsilon: int = 0
    #: Wall seconds spent in boolean (unit) propagation.
    time_boolean_propagation: float = 0.0
    #: Wall seconds spent in theory propagator callbacks.
    time_theory_propagation: float = 0.0
    #: Wall seconds spent in dominance checks (subset of theory time).
    time_dominance: float = 0.0
    #: Wall seconds spent instantiating the program (0 when a cached or
    #: shipped ground program was reused).
    grounding_seconds: float = 0.0
    #: Rule instantiations attempted while grounding this instance.
    instantiations: int = 0
    #: Semi-naive re-evaluation rounds beyond each batch's first pass.
    delta_rounds: int = 0
    #: Whether the shared ground-program cache answered this run.
    ground_cache_hit: bool = False
    #: How many times the instance was actually ground across the run
    #: (parallel exploration sums the parent and all workers; with the
    #: shipped artifact this stays at 1).
    grounds: int = 0
    #: Cubes stolen from other workers' deques (stealing scheduler).
    steals: int = 0
    #: Over-budget cubes split one binding level deeper and re-queued.
    resplits: int = 0
    #: Cubes executed across all workers: 1 for a sequential run (its
    #: root cube), >= the initial cube count when re-splitting fired.
    cubes_executed: int = 0
    #: Bytes of serialized archive deltas published by the workers (0
    #: for a sequential run, which has no one to publish to).
    archive_delta_bytes: int = 0
    #: Foreign points skipped by the injection hash-dedup (points the
    #: local archive had already seen; skipping avoids re-scanning).
    archive_dedup_skips: int = 0
    #: Symmetry analysis summary of the instance ("" when encode() ran
    #: with symmetry="off"; otherwise "auto").
    symmetry_mode: str = ""
    #: Whether lex-leader constraints were injected into the encoding.
    symmetry_applied: bool = False
    #: Generators / exact order / non-trivial orbit count of the
    #: platform automorphism group (all 0 when no analysis ran).
    symmetry_generators: int = 0
    symmetry_order: int = 0
    symmetry_orbits: int = 0
    #: Ground lex-leader integrity constraints added to the program.
    symmetry_constraints: int = 0
    #: Wall seconds of automorphism detection + constraint synthesis.
    symmetry_seconds: float = 0.0
    #: One breakdown per worker (a sequential run has one worker): the
    #: keys of ``WORKER_SUMS`` plus ``worker``, ``injected``,
    #: ``interrupted``, ``steals``, ``pareto_points_local``, ``grounds``,
    #: ``grounding_seconds`` and ``wall_time`` (seconds spent in solver
    #: calls).
    per_worker: List[Dict[str, object]] = field(default_factory=list)


#: ``per_worker`` keys a run sums into its statistics, mapped to the
#: :class:`DseStatistics` field each one adds to.
WORKER_SUMS = {
    **{
        name: name
        for name in (
            "models_enumerated",
            "conflicts",
            "decisions",
            "propagations",
            "restarts",
            "clause_db_bytes",
            "pruned_partial",
            "pruned_total",
            "archive_comparisons",
            "time_boolean_propagation",
            "time_theory_propagation",
            "time_dominance",
        )
    },
    "cubes": "cubes_executed",
    "delta_bytes": "archive_delta_bytes",
    "dedup_skips": "archive_dedup_skips",
}

#: Instance summary copied into the ``symmetry_*`` statistics.
_SYMMETRY_FIELDS = (
    "mode", "applied", "generators", "order", "orbits", "constraints", "seconds"
)

#: Points a worker buffers before publishing them as one archive delta;
#: a smaller batch goes out after the worker's next solver call that
#: ends without a model (a spent chunk, a closed cube or a spent budget).
DELTA_BATCH = 8


@dataclass
class DseResult:
    """The exact Pareto front plus search statistics."""

    objectives: Tuple[str, ...]
    front: List[ParetoPoint]
    statistics: DseStatistics

    def vectors(self) -> List[Tuple[int, ...]]:
        return sorted(point.vector for point in self.front)

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serializable representation of the front + statistics."""
        return {
            "objectives": list(self.objectives),
            "front": [
                {
                    "vector": list(point.vector),
                    "binding": dict(sorted(point.implementation.binding.items())),
                    "routes": {
                        m: list(r)
                        for m, r in sorted(point.implementation.routes.items())
                    },
                    "schedule": dict(sorted(point.implementation.schedule.items())),
                    "objective_values": dict(
                        sorted(point.implementation.objectives.items())
                    ),
                }
                for point in self.front
            ],
            "statistics": asdict(self.statistics),
        }

    def save(self, path) -> None:
        """Write the front as JSON."""
        import json
        from pathlib import Path

        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")


def pin_symmetry(symmetry: str, fixed_bindings) -> str:
    """The ``encode(symmetry=...)`` mode for exploring under ``fixed_bindings``.

    A pin can exclude an orbit's lex-minimal representative and lose
    front points, so pinned bindings mean encoding with
    ``symmetry="off"``.  :func:`explore` and ``python -m repro.dse``
    both decide it here.
    """
    return "off" if fixed_bindings else symmetry


def check_pins(instance: EncodedInstance, fixed_bindings) -> None:
    """Reject pinned bindings on an instance with lex-leader constraints.

    Guards instances encoded before the pins were known (see
    :func:`pin_symmetry`).  Guiding-path cubes are fine (they partition
    the full space, so every orbit's lex-minimal representative stays
    reachable) but a user pin can exclude it and lose front points.
    """
    symmetry = getattr(instance, "symmetry", None)
    if (
        fixed_bindings
        and symmetry is not None
        and symmetry.applied
        and symmetry.constraints > 0
    ):
        raise ValueError(
            "fixed_bindings cannot be combined with an instance that "
            "carries lex-leader symmetry constraints: a pin may exclude "
            "the orbit's lex-minimal representative and lose front "
            "points; re-encode with symmetry='off' to pin bindings"
        )


class ExactParetoExplorer:
    """The paper's exact multi-objective DSE driver.

    It is also the one kind of worker of the exploration loop
    (:func:`drive`): :meth:`begin` enters a cube of bindings,
    :meth:`step` advances it by one budgeted solver call, and
    :meth:`report` returns the worker's statistics.  A sequential
    :meth:`run` is the loop with this explorer as its only worker and
    ``fixed_bindings`` as its only cube.
    """

    def __init__(
        self,
        instance: EncodedInstance,
        archive: str = "list",
        partial_pruning: bool = True,
        use_difference_logic: bool = False,
        conflict_limit: Optional[int] = None,
        validate_models: bool = True,
        epsilon: int = 0,
        objective_phases: bool = False,
        fixed_bindings: Optional[Dict[str, str]] = None,
        ground_program=None,
        chunk_conflicts: Optional[int] = None,
    ):
        """Configure the explorer.

        ``conflict_limit`` caps the conflicts this explorer spends in one
        run; a run that hits it ends ``interrupted`` with the points found
        so far.  ``chunk_conflicts`` caps each solver call, so the loop
        gets control back at least that often (to poll ``should_stop`` or
        exchange archive deltas); the search resumes where it stopped.
        Every call gets ``min(chunk_conflicts, remaining budget)``.

        ``epsilon > 0`` switches to epsilon-dominance pruning (the
        CODES+ISSS'18 approximation: the result is an additive-epsilon
        approximate front).  ``objective_phases=True`` biases the
        solver's phase saving so decisions default to the
        objective-friendly polarity (domain-specific heuristics in the
        spirit of Andres et al., LPNMR 2015).  ``fixed_bindings`` pins
        tasks to resources (designer what-if exploration): the computed
        front is exact *for the pinned subspace*.

        ``ground_program`` accepts a pre-ground
        :class:`~repro.asp.ground.GroundProgram` of ``instance``
        (the parallel explorer grounds once and ships the artifact to
        every worker).
        """
        self.instance = instance
        self.epsilon = epsilon
        self.linear = LinearPropagator()
        archive_impl = QuadTreeArchive() if archive == "quadtree" else ListArchive()
        if epsilon:
            from repro.dse.approximation import EpsilonArchive

            archive_impl = EpsilonArchive(epsilon, base=archive_impl)
        self.dominance = DominancePropagator(
            instance.objectives,
            self.linear,
            archive_impl,
            partial_pruning=partial_pruning,
        )
        self.control = Control()
        self.control.conflict_limit = chunk_conflicts
        instance.add_to(self.control)
        self.control.register_propagator(self.linear)
        if use_difference_logic:
            self.control.register_propagator(DifferenceLogicPropagator())
        self.control.register_propagator(self.dominance)
        self._validate_models = validate_models
        self._objective_phases = objective_phases
        self._fixed_bindings = dict(fixed_bindings or {})
        check_pins(instance, self._fixed_bindings)
        self._conflict_limit = conflict_limit
        self._chunk_conflicts = chunk_conflicts
        self._ground_artifact = ground_program
        self._ground = False
        self.models_enumerated = 0
        self._pending_point: Optional[ParetoPoint] = None
        # Every vector this explorer has ever seen (enumerated or
        # injected) is hashed so foreign re-offers are skipped in O(1).
        self._known_vectors: set = set()
        self.dedup_skips = 0
        #: Foreign points the archive accepted (see inject_points).
        self.injected = 0
        #: Bytes of the archive deltas this worker published.
        self.delta_bytes = 0
        # Cube state (begin/step/abandon) and the counters of one run.
        self.current: Optional[Dict[str, str]] = None
        self._assumptions: list = []
        self._cube_mark = 0
        self._run_mark = 0
        self._models_mark = 0
        self.cubes_executed = 0
        self.interrupted = False
        self.solve_seconds = 0.0

    def ground(self) -> None:
        """Ground the instance (idempotent; run() calls this lazily).

        Call explicitly to tune solver knobs (``control.solver``) before
        the exploration starts.
        """
        if not self._ground:
            self.control.ground(program=self._ground_artifact)
            if self._objective_phases:
                self._apply_objective_phases()
            self._ground = True

    @property
    def objective_names(self) -> Tuple[str, ...]:
        return tuple(o.name for o in self.instance.objectives)

    @staticmethod
    def bind_assumptions(bindings: Dict[str, str]):
        """Solve assumptions pinning ``task -> resource`` bindings."""
        from repro.asp.syntax import Function

        return [
            (Function("bind", (Function(task), Function(resource))), True)
            for task, resource in sorted(bindings.items())
        ]

    def _on_model(self, model: Model) -> bool:
        spec = self.instance.specification
        names = self.objective_names
        self.models_enumerated += 1
        vector = tuple(model.theory["objectives"][name] for name in names)
        implementation = decode_model(spec, model)
        implementation.objectives = dict(zip(names, vector))
        if self._validate_models:
            problems = validate(
                spec,
                implementation,
                serialized=self.instance.serialize,
                link_contention=self.instance.link_contention,
            )
            if problems:
                raise AssertionError(
                    f"solver produced an infeasible implementation: {problems}"
                )
        added = self.dominance.archive.add(vector, implementation)
        assert added, (
            "dominance propagation admitted a dominated point "
            f"{vector} (archive: {self.dominance.archive.vectors()})"
        )
        self._pending_point = ParetoPoint(vector, implementation)
        self._known_vectors.add(vector)
        self.control.solver.requeue_watch(
            self.control.translation.true_lit, self.dominance
        )
        return True

    def solve_step(self, assumptions=()) -> Tuple[str, Optional[ParetoPoint]]:
        """One incremental solver call under binding ``assumptions``.

        Returns one of

        * ``("model", point)`` — a new non-dominated point was found (and
          added to the archive),
        * ``("interrupted", None)`` — the call's conflict limit (see
          ``chunk_conflicts``) ran out; calling again resumes the search
          (learned clauses and the archive persist), which is how the
          parallel workers interleave archive synchronization with long
          dominance proofs,
        * ``("exhausted", None)`` — the (sub)space holds no further
          non-dominated points.
        """
        self.ground()
        self._pending_point = None
        # No blocking clauses: the archive point just added prunes the
        # model (and its whole dominated region) via the propagator.
        summary = self.control.solve(
            on_model=self._on_model, models=1, block=False, assumptions=assumptions
        )
        if summary.satisfiable:
            return "model", self._pending_point
        if summary.interrupted:
            return "interrupted", None
        return "exhausted", None

    def inject_points(self, points: Iterable[Tuple[Tuple[int, ...], object]]) -> int:
        """Add foreign Pareto points (from other subspace searches).

        Points dominated by the archive are dropped; accepted points make
        the dominance propagator re-evaluate at the next fixpoint, so
        they prune this explorer's remaining search.  Returns the number
        of accepted points.  Sound for subspace exploration: pruning by a
        point of the *global* front only removes candidates that are
        weakly dominated globally.

        Vectors this explorer has already seen — enumerated locally or
        injected earlier — are skipped by hash before touching the
        archive (``dedup_skips`` counts them); re-offering such a point
        could only ever be dropped as weakly dominated anyway.
        """
        self.ground()
        accepted = 0
        for vector, payload in points:
            vector = tuple(vector)
            if vector in self._known_vectors:
                self.dedup_skips += 1
                continue
            self._known_vectors.add(vector)
            if self.dominance.archive.add(vector, payload):
                accepted += 1
        if accepted:
            self.control.solver.requeue_watch(
                self.control.translation.true_lit, self.dominance
            )
        self.injected += accepted
        return accepted

    def local_front(self) -> List[Tuple[Tuple[int, ...], object]]:
        """Archive restricted to locally enumerated survivors, sorted.

        Foreign injections carry no witness implementation; each vector
        of the global front is reported by the worker that enumerated it
        (see the merge argument in ``docs/PARALLEL.md``).
        """
        return [
            (vector, payload)
            for vector, payload in self.front()
            if payload is not None
        ]

    def conflict_mark(self) -> int:
        """Cumulative conflict count — the hook of both conflict budgets."""
        if self.control._solver is None:  # nothing solved yet
            return 0
        return self.control.solver.stats.conflicts

    def front(self) -> List[Tuple[Tuple[int, ...], object]]:
        """Current archive contents, sorted by vector."""
        return sorted(self.dominance.archive, key=lambda item: item[0])

    # -- the worker side of the exploration loop ------------------------------

    def begin(self, cube: Dict[str, str]) -> None:
        """Enter ``cube``: the following steps search its bindings only."""
        self.current = dict(cube)
        self._assumptions = self.bind_assumptions(self.current)
        self._cube_mark = self.conflict_mark()
        self.cubes_executed += 1

    def cube_conflicts(self) -> int:
        """Conflicts spent on the current cube (the re-split budget)."""
        return self.conflict_mark() - self._cube_mark

    def abandon(self) -> Dict[str, str]:
        """Hand the current cube back (for the scheduler to re-split)."""
        cube, self.current = self.current, None
        assert cube is not None
        return cube

    def cancel(self) -> None:
        """Drop the current cube mid-proof (cooperative cancellation)."""
        if self.current is not None:
            self.interrupted = True
            self.current = None

    def step(self) -> Tuple[str, Optional[ParetoPoint]]:
        """Advance the current cube by one solver call.

        The call gets ``min(chunk_conflicts, remaining budget)``
        conflicts.  Returns ``("model", point)`` for a new Pareto point,
        ``("chunk", None)`` when the call's slice ran out (call again),
        ``("cube_done", None)`` when the cube holds no further points, or
        ``("halt", None)`` when the run's ``conflict_limit`` is spent.
        """
        assert self.current is not None
        left = self._budget_left()
        if left is None or left > 0:
            chunk = self._chunk_conflicts
            if left is not None and (chunk is None or left < chunk):
                chunk = left
            self.control.conflict_limit = chunk
            started = perf_counter()
            status, point = self.solve_step(self._assumptions)
            self.solve_seconds += perf_counter() - started
            if status == "model":
                return status, point
            if status == "exhausted":
                self.current = None
                return "cube_done", None
            left = self._budget_left()
            if left is None or left > 0:
                return "chunk", None
        self.interrupted = True
        self.current = None
        return "halt", None

    def _budget_left(self) -> Optional[int]:
        if self._conflict_limit is None:
            return None
        return self._conflict_limit - (self.conflict_mark() - self._run_mark)

    def report(self, worker: int = 0) -> Dict[str, object]:
        """This worker's ``per_worker`` statistics entry for the run.

        Model counts are per run; solver counters are cumulative, so
        they include earlier runs of the same explorer.
        """
        self.ground()
        solver = self.control.solver
        return {
            "worker": worker,
            "cubes": self.cubes_executed,
            "injected": self.injected,
            "interrupted": self.interrupted,
            "delta_bytes": self.delta_bytes,
            "dedup_skips": self.dedup_skips,
            "models_enumerated": self.models_enumerated - self._models_mark,
            "pareto_points_local": len(self.local_front()),
            "conflicts": solver.stats.conflicts,
            "decisions": solver.stats.decisions,
            "propagations": solver.stats.propagations,
            "restarts": solver.stats.restarts,
            "clause_db_bytes": solver.clause_db_bytes(),
            "pruned_partial": self.dominance.pruned_partial,
            "pruned_total": self.dominance.pruned_total,
            "archive_comparisons": self.dominance.archive.comparisons,
            "time_boolean_propagation": solver.stats.time_boolean,
            "time_theory_propagation": solver.stats.time_theory,
            "time_dominance": self.dominance.prune_time,
            "grounds": self.control.grounds,
            "grounding_seconds": self.control.grounding_seconds,
            "wall_time": self.solve_seconds,
        }

    def run(self, on_points=None, should_stop=None) -> DseResult:
        """Enumerate the exact Pareto front.

        The explorer drives itself through the exploration loop
        (:func:`drive`) as its only worker over one cube, its
        ``fixed_bindings``: solve, archive the new point, let the
        dominance propagator prune, and repeat until the cube is
        exhausted.

        ``on_points`` is the anytime snapshot hook: it is called with
        each batch of newly enumerated objective vectors, so a serving
        layer can stream front snapshots while the search refines (the
        paper's dominance propagator tightens the front incrementally;
        the hook exposes exactly those increments).

        ``should_stop`` is polled before every solver call; returning a
        truthy value ends the run early with ``interrupted=True``
        statistics and the best front found so far — the cooperative
        cancellation/timeout primitive of ``repro.serve``.  Set
        ``chunk_conflicts`` to bound how long one call may run.
        """
        self.ground()
        started = perf_counter()
        self._run_mark = self.conflict_mark()
        self._models_mark = self.models_enumerated
        self.cubes_executed = 0
        self.interrupted = False
        scheduler = CubeScheduler([self._fixed_bindings], 1)
        cancelled = drive(
            [self], scheduler, on_points=on_points, should_stop=should_stop
        )
        return merge_run(
            self.instance,
            self.control,
            scheduler,
            [(self.local_front(), self.report())],
            cancelled,
            perf_counter() - started,
            self.epsilon,
        )

    def _apply_objective_phases(self) -> None:
        """Objective-aware decision heuristics (Andres et al., LPNMR'15).

        Pseudo-Boolean objective literals are decided *first* (heavier
        weights earlier) with the objective-friendly polarity: the first
        descents refuse the expensive options, which — through the
        exactly-one binding choices — lands on cheap corners of the
        design space and seeds the archive with strong points early.
        """
        solver = self.control.solver
        weights: Dict[int, int] = {}
        for objective in self.dominance.objectives:
            if isinstance(objective, PseudoBooleanObjective):
                for weight, lit in objective.terms:
                    if weight > 0:
                        var = abs(lit)
                        weights[var] = weights.get(var, 0) + weight
                        solver.set_phase(var, lit < 0)
        if not weights:
            return
        heaviest = max(weights.values())
        for var, weight in weights.items():
            solver.set_initial_activity(var, 1.0 + weight / heaviest)


def drive(
    workers: Sequence[ExactParetoExplorer],
    scheduler: CubeScheduler,
    share_archive: bool = True,
    resplit_conflicts: Optional[int] = None,
    on_points=None,
    should_stop=None,
) -> bool:
    """The exploration loop over in-process workers; True when cancelled.

    Workers take cubes from ``scheduler`` and are stepped round-robin,
    one solver call at a time, until every cube is exhausted or every
    worker has spent its conflict budget.  New points are buffered per
    worker and published in batches: to the scheduler's priorities, to
    ``on_points``, and (with ``share_archive``) into every other
    worker's archive before its next call.  A cube that spends
    ``resplit_conflicts`` without closing is handed back and split one
    binding level deeper.  ``should_stop`` is polled before every round;
    a truthy value flushes the buffers and drops every cube.
    """
    jobs = len(workers)
    pending: List[List[Tuple[int, ...]]] = [[] for _worker in workers]
    buffers: List[List[Tuple[int, ...]]] = [[] for _worker in workers]
    halted = set()

    def flush(wid: int) -> None:
        batch = buffers[wid]
        if not batch:
            return
        if jobs > 1:
            # Serialize even inline so archive_delta_bytes measures the
            # real wire cost of the protocol.
            workers[wid].delta_bytes += len(ArchiveDelta(batch).to_bytes())
        scheduler.observe(batch)
        if on_points is not None:
            on_points(list(batch))
        if share_archive:
            for other in range(jobs):
                if other != wid and other not in halted:
                    pending[other].extend(batch)
        buffers[wid] = []

    for wid, worker in enumerate(workers):
        cube = scheduler.next_cube(wid)
        if cube is not None:
            worker.begin(cube)
    while True:
        if should_stop is not None and should_stop():
            for wid, worker in enumerate(workers):
                flush(wid)
                worker.cancel()
            return True
        progressed = False
        for wid, worker in enumerate(workers):
            if wid in halted:
                continue
            if pending[wid]:
                worker.inject_points((vector, None) for vector in pending[wid])
                pending[wid] = []
            if worker.current is None:
                cube = scheduler.next_cube(wid)
                if cube is None:
                    continue
                worker.begin(cube)
            progressed = True
            status, point = worker.step()
            if status == "model":
                buffers[wid].append(point.vector)
                if len(buffers[wid]) < DELTA_BATCH:
                    continue
            flush(wid)
            if status == "halt":
                halted.add(wid)
            elif (
                status == "chunk"
                and resplit_conflicts
                and worker.cube_conflicts() >= resplit_conflicts
                and scheduler.splittable(worker.current)
            ):
                scheduler.resplit(wid, worker.abandon())
        if not progressed:
            return False


def merge_run(
    instance: EncodedInstance,
    grounder: Control,
    scheduler: CubeScheduler,
    reports: Sequence[Tuple[List[Tuple[Tuple[int, ...], object]], Dict[str, object]]],
    cancelled: bool,
    wall_time: float,
    epsilon: int = 0,
) -> DseResult:
    """The run's result: merged worker fronts plus its statistics.

    ``reports`` holds one ``(local front, per_worker entry)`` pair per
    worker, in worker order.  The front is the non-dominated union of
    the local fronts.  Instance-level statistics (symmetry, grounding)
    are filled once, from the instance and from ``grounder``, the
    :class:`Control` that ground the program; worker statistics are the
    sums of the ``per_worker`` entries.
    """
    merged = non_dominated_union(*(front for front, _entry in reports))
    stats = DseStatistics(
        wall_time=wall_time,
        interrupted=cancelled,
        epsilon=epsilon,
        pareto_points=len(merged),
        steals=sum(scheduler.steals),
        resplits=scheduler.resplits,
    )
    symmetry = getattr(instance, "symmetry", None)
    if symmetry is not None:
        for name in _SYMMETRY_FIELDS:
            setattr(stats, f"symmetry_{name}", getattr(symmetry, name))
    stats.grounds = grounder.grounds
    stats.ground_cache_hit = grounder.ground_cache_hit
    stats.grounding_seconds = grounder.grounding_seconds
    grounding = grounder.ground_program.grounding
    if grounding is not None:
        stats.instantiations = grounding.instantiations
        stats.delta_rounds = grounding.delta_rounds
    for _front, entry in reports:
        entry["steals"] = scheduler.steals[entry["worker"]]
        for key, name in WORKER_SUMS.items():
            setattr(stats, name, getattr(stats, name) + entry[key])
        stats.interrupted = stats.interrupted or entry["interrupted"]
        stats.per_worker.append(entry)
    names = tuple(objective.name for objective in instance.objectives)
    points = [ParetoPoint(tuple(vector), payload) for vector, payload in merged]
    return DseResult(names, points, stats)


def explore(
    spec: Specification,
    objectives: Sequence[str] = ("latency", "energy", "cost"),
    jobs: int = 1,
    split_depth: Optional[int] = None,
    symmetry: str = "auto",
    **kwargs,
) -> DseResult:
    """Convenience one-call API: encode and explore ``spec``.

    Builds a :class:`~repro.dse.parallel.ParallelParetoExplorer` for
    every ``jobs`` value; one job is the sequential explorer, and the
    front is identical either way (see :mod:`repro.dse.parallel`).
    Remaining keyword arguments configure the workers (see
    :class:`ExactParetoExplorer`).

    ``symmetry`` is forwarded to :func:`~repro.synthesis.encoding.encode`
    (``"auto"`` adds lex-leader platform symmetry breaking; the front of
    objective vectors is unchanged — see docs/SYMMETRY.md), except that
    pinned ``fixed_bindings`` encode with ``"off"`` (:func:`pin_symmetry`).
    """
    from repro.dse.parallel import ParallelParetoExplorer

    instance = encode(
        spec,
        objectives=objectives,
        symmetry=pin_symmetry(symmetry, kwargs.get("fixed_bindings")),
    )
    return ParallelParetoExplorer(
        instance, jobs=jobs, split_depth=split_depth, **kwargs
    ).run()
