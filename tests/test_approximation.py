"""Tests for epsilon-dominance approximation (repro.dse.approximation)."""

import pytest

from repro.baselines import exhaustive_front
from repro.dse.approximation import EpsilonArchive
from repro.dse.explorer import ExactParetoExplorer, explore
from repro.dse.pareto import ListArchive, weakly_dominates
from repro.dse.quadtree import QuadTreeArchive
from repro.synthesis.encoding import encode
from repro.workloads import WorkloadConfig, generate_specification, suite


class TestEpsilonArchive:
    def test_relaxed_dominance(self):
        archive = EpsilonArchive(2)
        archive.add((5, 5), None)
        assert archive.find_weak_dominator((4, 4)) == (5, 5)  # within eps
        assert archive.find_weak_dominator((2, 6)) is None

    def test_zero_epsilon_is_exact(self):
        exact = ListArchive()
        relaxed = EpsilonArchive(0)
        for point in [(3, 4), (4, 3), (2, 9)]:
            assert exact.add(point, None) == relaxed.add(point, None)
        assert exact.find_weak_dominator((3, 5)) == relaxed.find_weak_dominator((3, 5))

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            EpsilonArchive(-1)

    def test_wraps_quadtree(self):
        archive = EpsilonArchive(1, base=QuadTreeArchive())
        archive.add((4, 4), None)
        assert archive.find_weak_dominator((3, 3)) == (4, 4)
        assert archive.comparisons > 0


class TestApproximateDse:
    def test_guarantee_on_suite(self):
        """Every exact Pareto point is epsilon-covered by the result."""
        for epsilon in (1, 3):
            for instance in suite("tiny"):
                spec = instance.specification
                truth = exhaustive_front(encode(spec, symmetry="off")).vectors()
                result = explore(spec, epsilon=epsilon)
                approx = result.vectors()
                assert approx, instance.name
                for p in truth:
                    shifted = tuple(x + epsilon for x in p)
                    assert any(
                        weakly_dominates(a, shifted) for a in approx
                    ), (instance.name, epsilon, p, approx)

    def test_epsilon_zero_equals_exact(self):
        spec = generate_specification(WorkloadConfig(tasks=5, seed=3))
        assert explore(spec, epsilon=0).vectors() == explore(spec).vectors()

    def test_front_never_larger_than_exact(self):
        spec = generate_specification(WorkloadConfig(tasks=6, seed=2))
        exact = explore(spec)
        approx = explore(spec, epsilon=4)
        assert len(approx.front) <= len(exact.front)

    def test_effort_never_higher(self):
        """Fewer models on this one instance; not a general bound.

        Epsilon bounds the front's error, not the effort: sequential
        network_firewall takes 1559/1802/1624/1571 conflicts and
        19/23/14/13 models at epsilon 0/1/2/3 (see
        ``repro.dse.approximation``).
        """
        spec = generate_specification(WorkloadConfig(tasks=6, seed=3))
        exact = explore(spec)
        approx = explore(spec, epsilon=5)
        assert approx.statistics.models_enumerated <= exact.statistics.models_enumerated

    def test_epsilon_recorded_in_stats(self):
        spec = generate_specification(WorkloadConfig(tasks=4, seed=0))
        assert explore(spec, epsilon=2).statistics.epsilon == 2


class TestObjectivePhases:
    def test_same_front_with_phase_heuristic(self):
        spec = generate_specification(WorkloadConfig(tasks=6, seed=2))
        plain = explore(spec)
        biased = explore(spec, objective_phases=True)
        assert plain.vectors() == biased.vectors()

    def test_phase_setting_api(self):
        from repro.asp.flatsolver import FlatSolver

        solver = FlatSolver()
        v = solver.new_var()
        solver.set_phase(v, True)
        solver.add_clause([v, -v])
        assert solver.solve().satisfiable
        assert solver.value(v) is True  # decision followed the phase

    def test_phase_rejects_unknown_var(self):
        from repro.asp.flatsolver import FlatSolver

        with pytest.raises(ValueError):
            FlatSolver().set_phase(3, True)
