"""Differential tests: the flat CDNL engine against the reference solver.

The flat engine (``repro.asp.flatsolver``) must be observably equivalent
to the object-based reference solver (``repro.asp.solver``): same model
sets under enumeration, same SAT/UNSAT answers and unsatisfiable cores
under assumptions, same Pareto fronts through the full DSE stack
(sequentially and with ``jobs=2``).  Search *trajectories* may differ —
the flat engine propagates binary clauses first, so reason clauses and
VSIDS bumps can diverge — but never the answers.  See docs/SOLVER.md.

Every :class:`Control` builds the flat engine; the tests that need the
reference solver behind a full ``Control`` substitute it with
:func:`controls_build`.
"""

import random
from contextlib import contextmanager

import pytest

import repro.asp.control as control_module
from repro.asp.completion import translate
from repro.asp.control import Control, ground_text
from repro.asp.flatsolver import FlatSolver
from repro.asp.solver import Solver
from repro.dse.explorer import ExactParetoExplorer
from repro.synthesis.encoding import encode
from repro.workloads.curated import curated


@contextmanager
def controls_build(engine):
    """Every :class:`Control` grounded inside the block runs ``engine``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(control_module, "FlatSolver", engine)
        yield


def random_clauses(rng, nvars, nclauses, max_width=4):
    return [
        [
            rng.choice([1, -1]) * rng.randint(1, nvars)
            for _ in range(rng.randint(1, max_width))
        ]
        for _ in range(nclauses)
    ]


def enumerate_models(solver_cls, nvars, clauses, **knobs):
    solver = solver_cls()
    for name, value in knobs.items():
        setattr(solver, name, value)
    for _ in range(nvars):
        solver.new_var()
    models = set()
    for clause in clauses:
        if not solver.add_clause(clause):
            return models
    while solver.solve().satisfiable:
        model = tuple(sorted(solver.model()))
        assert model not in models, "enumeration repeated a model"
        models.add(model)
        solver.reset_to_root()
        if not solver.add_clause([-lit for lit in model]):
            break
    return models


class TestModelEquivalence:
    @pytest.mark.parametrize("seed", range(25))
    def test_same_model_sets(self, seed):
        rng = random.Random(seed)
        nvars = rng.randint(3, 11)
        clauses = random_clauses(rng, nvars, rng.randint(2, 28))
        reference = enumerate_models(Solver, nvars, clauses)
        flat = enumerate_models(FlatSolver, nvars, clauses)
        assert reference == flat

    @pytest.mark.parametrize("seed", range(10))
    def test_same_model_sets_under_db_reduction(self, seed):
        """A tiny learned-clause budget forces _reduce_db + arena GC."""
        rng = random.Random(1000 + seed)
        nvars = rng.randint(6, 12)
        clauses = random_clauses(rng, nvars, rng.randint(10, 35))
        reference = enumerate_models(
            Solver, nvars, clauses, max_learned_base=5
        )
        flat = enumerate_models(
            FlatSolver, nvars, clauses, max_learned_base=5
        )
        assert reference == flat

    def test_same_answers_without_restarts_or_phase_saving(self):
        rng = random.Random(7)
        nvars, clauses = 9, random_clauses(rng, 9, 24)
        knobs = {"restart_base": None, "phase_saving": False}
        assert enumerate_models(Solver, nvars, clauses, **knobs) == (
            enumerate_models(FlatSolver, nvars, clauses, **knobs)
        )


class TestAssumptionEquivalence:
    @pytest.mark.parametrize("seed", range(20))
    def test_same_verdicts_and_models(self, seed):
        rng = random.Random(2000 + seed)
        nvars = rng.randint(3, 10)
        clauses = random_clauses(rng, nvars, rng.randint(2, 24), max_width=3)
        assumptions = [
            rng.choice([1, -1]) * var
            for var in rng.sample(range(1, nvars + 1), k=min(3, nvars))
        ]
        outcomes = {}
        for cls in (Solver, FlatSolver):
            solver = cls()
            for _ in range(nvars):
                solver.new_var()
            if not all(solver.add_clause(c) for c in clauses):
                outcomes[cls] = "root-unsat"
                continue
            result = solver.solve(assumptions)
            if result.satisfiable:
                outcomes[cls] = tuple(sorted(solver.model()))
            else:
                # Cores may differ in order but must both be valid
                # subsets of the assumptions that remain unsatisfiable.
                assert set(result.core) <= set(assumptions)
                check = cls()
                for _ in range(nvars):
                    check.new_var()
                assert all(check.add_clause(c) for c in clauses)
                assert not check.solve(list(result.core)).satisfiable
                outcomes[cls] = "unsat"
        assert outcomes[Solver] == outcomes[FlatSolver]


class TestFlatInternals:
    def test_bin_watch_refs_survive_arena_collection(self):
        """Learned binary clauses live in the static implication lists;
        arena compaction moves their records, so the refs must be
        remapped (regression: they once went stale after _reduce_db)."""
        rng = random.Random(99)
        solver = FlatSolver()
        solver.max_learned_base = 5
        nvars = 12
        for _ in range(nvars):
            solver.new_var()
        for clause in random_clauses(rng, nvars, 30):
            if not solver.add_clause(clause):
                break
        for _ in range(40):
            if not solver.solve().satisfiable:
                break
            model = solver.model()
            solver.reset_to_root()
            if not solver.add_clause([-lit for lit in model]):
                break
        arena = solver._arena
        for code, watch_list in enumerate(solver._bin_watches):
            for i in range(1, len(watch_list), 2):
                ref = watch_list[i]
                assert arena[ref] == 2, "bin watch ref points at a non-binary record"
                lits = arena[ref + 1 : ref + 3]
                assert watch_list[i - 1] in lits

    def test_clause_db_bytes_matches_arena(self):
        solver = FlatSolver()
        for _ in range(4):
            solver.new_var()
        solver.add_clause([1, 2, 3])
        solver.add_clause([-1, 4])
        assert solver.clause_db_bytes() == 4 * len(solver._arena)


class TestOrderHeapBounded:
    """Satellite regression: lazy-deletion heaps must be compacted.

    Long enumeration runs perform thousands of assign/backtrack cycles;
    without compaction the stale (activity, var) tuples grow the heap
    without bound (the bug fixed in Solver._backtrack)."""

    @pytest.mark.parametrize("cls,heap_attr", [
        (Solver, "_order_heap"),
        (FlatSolver, "_heap"),
    ])
    def test_heap_stays_bounded_over_many_cycles(self, cls, heap_attr):
        rng = random.Random(5)
        nvars = 20
        solver = cls()
        for _ in range(nvars):
            solver.new_var()
        for clause in random_clauses(rng, nvars, 30, max_width=3):
            solver.add_clause(clause)
        bound = 2 * nvars + 16
        for cycle in range(300):
            if not solver.solve().satisfiable:
                break
            model = solver.model()
            solver.reset_to_root()
            assert len(getattr(solver, heap_attr)) <= bound, (
                f"heap grew unboundedly after {cycle} cycles"
            )
            if not solver.add_clause([-lit for lit in model]):
                break
        assert len(getattr(solver, heap_attr)) <= bound


THEORY_PROGRAM = """
{use(a); use(b)}.
&dom { 1..4 } = w(a).
&dom { 1..4 } = w(b).
&sum { w(a) - w(b) } <= 1 :- use(a), use(b).
:- not use(a), not use(b).
"""


class TestControlEquivalence:
    def collect(self, engine):
        from repro.theory import LinearPropagator

        ctl = Control()
        ctl.add(THEORY_PROGRAM)
        ctl.register_propagator(LinearPropagator())
        with controls_build(engine):
            ctl.ground()
        assert type(ctl.solver) is engine
        models = set()

        def on_model(model):
            atoms = tuple(sorted(str(a) for a in model.symbols))
            ints = tuple(sorted((str(k), v) for k, v in model.theory["ints"].items()))
            models.add((atoms, ints))

        ctl.solve(on_model=on_model, models=0)
        return models

    def test_theory_models_match(self):
        assert self.collect(Solver) == self.collect(FlatSolver)


class TestDseEquivalence:
    @pytest.mark.parametrize("name", ["auto_engine", "telecom_modem"])
    def test_curated_front_matches_sequentially(self, name):
        fronts = {}
        for engine in (Solver, FlatSolver):
            explorer = ExactParetoExplorer(encode(curated(name)))
            with controls_build(engine):
                result = explorer.run()
            assert type(explorer.control.solver) is engine
            fronts[engine] = [point.vector for point in result.front]
        assert fronts[Solver] == fronts[FlatSolver]
        assert result.statistics.clause_db_bytes > 0

    def test_curated_front_matches_with_two_jobs(self):
        from repro.dse.parallel import ParallelParetoExplorer

        fronts = {}
        for engine in (Solver, FlatSolver):
            with controls_build(engine):
                result = ParallelParetoExplorer(
                    encode(curated("auto_engine")), jobs=2, backend="inline"
                ).run()
            fronts[engine] = [point.vector for point in result.front]
        assert fronts[Solver] == fronts[FlatSolver]


class TestRawEnumeration:
    """Without propagators the two engines take the same trajectory.

    The ground network_firewall program is translated into each engine
    and 2000 models are enumerated with blocking clauses.  Decisions and
    conflicts must agree exactly.  Propagation counts may differ by a
    few: the flat engine drains binary implications before long clauses,
    so it can enqueue some extra literals just before a conflict is
    detected.
    """

    MODEL_CAP = 2000

    def enumerate(self, engine, program):
        solver = engine()
        translate(program, solver)
        models = 0
        while models < self.MODEL_CAP and solver.solve().satisfiable:
            models += 1
            blocking = [-lit for lit in solver.model()]
            solver.reset_to_root()
            if not blocking or not solver.add_clause(blocking):
                break
        return models, solver.stats

    def test_network_firewall_trajectories_match(self):
        program = ground_text(encode(curated("network_firewall")).program)
        models, reference = self.enumerate(Solver, program)
        flat_models, flat = self.enumerate(FlatSolver, program)
        assert models == flat_models == self.MODEL_CAP
        assert (reference.conflicts, reference.decisions) == (
            flat.conflicts,
            flat.decisions,
        )
        assert flat.conflicts > 0
        assert abs(reference.propagations - flat.propagations) <= flat.conflicts
