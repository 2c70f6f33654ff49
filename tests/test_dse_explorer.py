"""Integration tests for the exact multi-objective DSE.

The headline correctness property: the dominance-propagating explorer
returns exactly the Pareto front that exhaustive enumerate-and-filter
computes — for every archive implementation and with partial pruning on
or off.
"""

from dataclasses import fields

import pytest

from repro.asp.flatsolver import FlatSolver
from repro.baselines import exhaustive_front
from repro.dse import explorer as explorer_module
from repro.dse.explorer import (
    DominancePropagator,
    DseStatistics,
    ExactParetoExplorer,
    explore,
)
from repro.synthesis.encoding import encode
from repro.synthesis.model import (
    Application,
    Architecture,
    Link,
    MappingOption,
    Message,
    Resource,
    Specification,
    Task,
)
from repro.theory.objective import PseudoBooleanObjective
from repro.workloads import WorkloadConfig, generate_specification, suite
from repro.workloads.curated import curated


def tradeoff_spec():
    """Two tasks, two resources with a clean latency/energy trade-off."""
    app = Application(
        tasks=(Task("a"), Task("b")), messages=(Message("m", "a", "b"),)
    )
    arch = Architecture(
        resources=(Resource("fast", cost=8), Resource("slow", cost=2)),
        links=(
            Link("fs", "fast", "slow", delay=1, energy=1),
            Link("sf", "slow", "fast", delay=1, energy=1),
        ),
    )
    mappings = (
        MappingOption("a", "fast", wcet=1, energy=6),
        MappingOption("a", "slow", wcet=4, energy=2),
        MappingOption("b", "fast", wcet=1, energy=6),
        MappingOption("b", "slow", wcet=4, energy=2),
    )
    return Specification(app, arch, mappings)


class TestExactness:
    def test_matches_exhaustive_on_tradeoff(self):
        spec = tradeoff_spec()
        truth = exhaustive_front(encode(spec, symmetry="off")).vectors()
        assert explore(spec).vectors() == truth

    @pytest.mark.parametrize("archive", ["list", "quadtree"])
    @pytest.mark.parametrize("partial", [True, False])
    def test_matches_exhaustive_on_suite(self, archive, partial):
        for instance in suite("tiny"):
            spec = instance.specification
            truth = exhaustive_front(encode(spec, symmetry="off")).vectors()
            result = explore(spec, archive=archive, partial_pruning=partial)
            assert result.vectors() == truth, instance.name

    def test_front_is_mutually_nondominated(self):
        from repro.dse.pareto import weakly_dominates

        result = explore(tradeoff_spec())
        vectors = result.vectors()
        for a in vectors:
            for b in vectors:
                if a != b:
                    assert not weakly_dominates(a, b)

    def test_two_objectives(self):
        spec = tradeoff_spec()
        truth = exhaustive_front(
            encode(spec, objectives=("latency", "energy"), symmetry="off")
        ).vectors()
        result = explore(spec, objectives=("latency", "energy"))
        assert result.vectors() == truth

    def test_single_objective_gives_optimum(self):
        spec = tradeoff_spec()
        result = explore(spec, objectives=("energy",))
        truth = exhaustive_front(
            encode(spec, objectives=("energy",), symmetry="off")
        ).vectors()
        assert result.vectors() == truth
        assert len(result.front) == 1


class TestWitnesses:
    def test_witnesses_are_feasible(self):
        from repro.synthesis.solution import validate

        spec = generate_specification(WorkloadConfig(tasks=5, seed=2))
        result = explore(spec)
        assert result.front
        for point in result.front:
            assert validate(spec, point.implementation) == []

    def test_witness_objectives_match_vector(self):
        result = explore(tradeoff_spec())
        for point in result.front:
            values = tuple(
                point.implementation.objectives[name] for name in result.objectives
            )
            assert values == point.vector


class TestStatistics:
    def test_pruning_counted(self):
        spec = generate_specification(WorkloadConfig(tasks=6, seed=2))
        result = explore(spec)
        stats = result.statistics
        assert stats.models_enumerated >= stats.pareto_points
        assert stats.pruned_partial > 0
        assert stats.wall_time > 0

    def test_partial_pruning_prunes_before_total_assignments(self):
        spec = generate_specification(WorkloadConfig(tasks=5, seed=1))
        with_pruning = explore(spec)
        without = explore(spec, partial_pruning=False)
        assert with_pruning.vectors() == without.vectors()
        # Partial pruning cuts every dominated branch at a propagation
        # fixpoint, so no total assignment is left to the final check ...
        assert with_pruning.statistics.pruned_partial > 0
        assert with_pruning.statistics.pruned_total == 0
        # ... while without it only total assignments are checked.
        assert without.statistics.pruned_partial == 0
        assert without.statistics.pruned_total > 0

    def test_conflict_limit_interrupts(self):
        spec = generate_specification(
            WorkloadConfig(tasks=10, seed=2, platform_size=(3, 2))
        )
        result = explore(spec, conflict_limit=50)
        assert result.statistics.interrupted

    def test_rerun_not_allowed_semantics(self):
        # run() on a fresh explorer twice continues (idempotent front).
        instance = encode(tradeoff_spec())
        explorer = ExactParetoExplorer(instance)
        first = explorer.run()
        second = explorer.run()  # already exhausted: nothing new
        assert second.statistics.models_enumerated == 0
        assert [p.vector for p in second.front] == [p.vector for p in first.front]

    def test_to_dict_statistics_has_every_field_in_order(self):
        result = explore(tradeoff_spec())
        keys = list(result.to_dict()["statistics"])
        assert keys == [field.name for field in fields(DseStatistics)]


class _CheckedDominance(DominancePropagator):
    """Checks each pruning nogood, as it is added, against its dominator."""

    epsilon = 0
    nogoods = 0

    def _prune(self, solver, total):
        found = []
        find = self.archive.find_weak_dominator

        def find_and_record(vector):
            found.append(find(vector))
            return found[-1]

        def check_then_add(lits):
            self.check_nogood(solver, found[-1], lits)
            return FlatSolver.add_propagator_clause(solver, lits)

        self.archive.find_weak_dominator = find_and_record
        solver.add_propagator_clause = check_then_add
        try:
            return super()._prune(solver, total)
        finally:
            del self.archive.find_weak_dominator
            del solver.add_propagator_clause

    def check_nogood(self, solver, dominator, lits):
        kept = {-lit for lit in lits}
        assert all(solver.value(lit) is True for lit in kept)
        for objective, point in zip(self.objectives, dominator):
            target = point - self.epsilon
            if isinstance(objective, PseudoBooleanObjective):
                reached = objective.offset + sum(
                    weight for weight, lit in objective.terms if lit in kept
                )
                assert reached >= target, (objective.name, reached, target)
            else:
                store = objective.propagator.store
                var = store.var(objective.variable)
                reason = store.lb_reason_at_least(var, target)
                assert objective.explain(solver, target) == reason
                assert set(reason) <= kept
        type(self).nogoods += 1


class TestDominanceNogoods:
    """Every nogood forces bounds >= the dominator (minus epsilon)."""

    @pytest.mark.parametrize(
        "name, epsilon",
        [("network_firewall", 0), ("mesh_symmetric", 0), ("consumer_jpeg", 2)],
    )
    def test_kept_literals_reach_the_dominator(self, monkeypatch, name, epsilon):
        monkeypatch.setattr(explorer_module, "DominancePropagator", _CheckedDominance)
        monkeypatch.setattr(_CheckedDominance, "epsilon", epsilon)
        monkeypatch.setattr(_CheckedDominance, "nogoods", 0)
        result = explore(curated(name), epsilon=epsilon)
        assert not result.statistics.interrupted
        assert _CheckedDominance.nogoods == (
            result.statistics.pruned_partial + result.statistics.pruned_total
        )
        assert _CheckedDominance.nogoods > 0
