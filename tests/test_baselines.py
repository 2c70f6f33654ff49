"""Tests for the baseline explorers (exhaustive, epsilon-constraint, NSGA-II)."""

import pytest

from repro.baselines import (
    epsilon_constraint_front,
    exhaustive_front,
    nsga2_front,
    solution_level_front,
)
from repro.dse.pareto import weakly_dominates
from repro.synthesis.encoding import encode
from repro.workloads import WorkloadConfig, generate_specification, suite
from repro.workloads.curated import CURATED_NAMES, curated


@pytest.fixture(scope="module")
def tiny_instances():
    return [
        (
            instance.name,
            instance.specification,
            encode(instance.specification, symmetry="off"),
        )
        for instance in suite("tiny")
    ]


class TestExhaustive:
    def test_counts_every_model(self, tiny_instances):
        _name, spec, instance = tiny_instances[0]
        result = exhaustive_front(instance)
        assert result.models_enumerated >= len(result.front)
        assert result.exact

    def test_front_nondominated(self, tiny_instances):
        _name, _spec, instance = tiny_instances[1]
        result = exhaustive_front(instance)
        vectors = result.vectors()
        for a in vectors:
            for b in vectors:
                if a != b:
                    assert not weakly_dominates(a, b)


class TestSolutionLevel:
    def test_matches_exhaustive(self, tiny_instances):
        for name, _spec, instance in tiny_instances:
            truth = exhaustive_front(instance).vectors()
            result = solution_level_front(instance)
            assert result.vectors() == truth, name

    def test_never_enumerates_more_than_exhaustive(self, tiny_instances):
        for _name, _spec, instance in tiny_instances:
            exhaustive = exhaustive_front(instance)
            solution = solution_level_front(instance)
            assert solution.models_enumerated <= exhaustive.models_enumerated


class TestEpsilonConstraint:
    def test_matches_exhaustive(self, tiny_instances):
        for name, _spec, instance in tiny_instances:
            truth = exhaustive_front(instance).vectors()
            result = epsilon_constraint_front(instance)
            assert result.vectors() == truth, name
            assert result.exact

    def test_two_objectives(self, tiny_instances):
        _name, spec, _inst = tiny_instances[0]
        instance = encode(spec, objectives=("latency", "energy"), symmetry="off")
        truth = exhaustive_front(instance).vectors()
        result = epsilon_constraint_front(instance)
        assert result.vectors() == truth

    def test_needs_many_solver_calls(self, tiny_instances):
        _name, _spec, instance = tiny_instances[1]
        result = epsilon_constraint_front(instance)
        # One descent per front point per bound split, at minimum.
        assert result.solver_calls > len(result.front)

    def test_max_solves_truncates(self, tiny_instances):
        _name, _spec, instance = tiny_instances[1]
        result = epsilon_constraint_front(instance, max_solves=1)
        assert result.interrupted or result.exact  # tiny may finish in 1


class TestCuratedEquivalence:
    """Exhaustive vs solution-level fronts on *all* curated workloads.

    The two baselines reach the front through independent machinery
    (enumerate-then-filter vs incremental ASPmT with total-assignment
    dominance), so identical fronts on every curated instance is a
    strong end-to-end exactness check.  network_firewall's free-routing
    space is too large to enumerate in a unit test, so it runs with
    deterministic routing and a hard deadline — a design-constrained
    but still multi-point design space (front of 4).
    """

    ENCODE_OPTIONS = {
        "network_firewall": {"routing": "fixed", "latency_bound": 33},
    }

    @pytest.mark.parametrize("name", CURATED_NAMES)
    def test_exhaustive_matches_solution_level(self, name):
        instance = encode(
            curated(name), symmetry="off", **self.ENCODE_OPTIONS.get(name, {})
        )
        truth = exhaustive_front(instance)
        result = solution_level_front(instance)
        assert truth.exact and result.exact, name
        assert truth.vectors() == result.vectors(), name
        assert truth.front, name  # a trivially-empty front proves nothing


class TestNsga2:
    def test_front_is_feasible_and_consistent(self):
        from repro.synthesis.solution import validate

        spec = generate_specification(WorkloadConfig(tasks=6, seed=3))
        result = nsga2_front(spec, generations=8, seed=1)
        assert result.front
        for vector, implementation in result.front.items():
            assert validate(spec, implementation) == []
            assert tuple(
                implementation.objectives[n] for n in result.objectives
            ) == vector

    def test_never_better_than_exact(self, tiny_instances):
        for name, spec, instance in tiny_instances:
            truth = exhaustive_front(instance).vectors()
            result = nsga2_front(spec, generations=10, seed=0)
            for vector in result.vectors():
                assert any(
                    weakly_dominates(true_vector, vector) for true_vector in truth
                ), (name, vector)

    def test_deterministic_for_seed(self):
        spec = generate_specification(WorkloadConfig(tasks=5, seed=0))
        a = nsga2_front(spec, generations=5, seed=7)
        b = nsga2_front(spec, generations=5, seed=7)
        assert a.vectors() == b.vectors()

    def test_marked_inexact(self):
        spec = generate_specification(WorkloadConfig(tasks=4, seed=0))
        assert not nsga2_front(spec, generations=3).exact
