"""Tests for pinned-binding (what-if) exploration."""

import pytest

from repro.dse.explorer import ExactParetoExplorer
from repro.dse.pareto import weakly_dominates
from repro.synthesis.encoding import encode
from repro.workloads import WorkloadConfig, generate_specification


@pytest.fixture(scope="module")
def spec():
    return generate_specification(WorkloadConfig(tasks=5, seed=1))


def explore_pinned(spec, pins, **kwargs):
    instance = encode(spec)
    return ExactParetoExplorer(instance, fixed_bindings=pins, **kwargs).run()


class TestPinnedExploration:
    def test_pin_respected_in_every_witness(self, spec):
        task = spec.application.tasks[0].name
        resource = spec.options_of(task)[0].resource
        result = explore_pinned(spec, {task: resource})
        assert result.front
        for point in result.front:
            assert point.implementation.binding[task] == resource

    def test_pinned_front_dominated_by_free_front(self, spec):
        free = explore_pinned(spec, {})
        task = spec.application.tasks[1].name
        resource = spec.options_of(task)[-1].resource
        pinned = explore_pinned(spec, {task: resource})
        # Every pinned-optimal point is weakly dominated by the free front.
        for vector in pinned.vectors():
            assert any(weakly_dominates(v, vector) for v in free.vectors())

    def test_pin_to_invalid_resource_is_unsat(self, spec):
        task = spec.application.tasks[0].name
        valid = {o.resource for o in spec.options_of(task)}
        invalid = next(
            r.name
            for r in spec.architecture.resources
            if r.name not in valid
        )
        result = explore_pinned(spec, {task: invalid})
        assert result.front == []

    def test_pin_matches_restricted_exhaustive(self, spec):
        from repro.baselines import exhaustive_front
        from repro.synthesis.model import Specification

        task = spec.application.tasks[0].name
        resource = spec.options_of(task)[0].resource
        # Ground truth: drop the other mapping options of that task.
        restricted = Specification(
            spec.application,
            spec.architecture,
            tuple(
                o
                for o in spec.mappings
                if o.task != task or o.resource == resource
            ),
        )
        truth = exhaustive_front(encode(restricted, symmetry="off")).vectors()
        pinned = explore_pinned(spec, {task: resource})
        assert pinned.vectors() == truth

    def test_cli_pin_flag(self, spec, tmp_path, capsys):
        from repro.dse.__main__ import main
        from repro.synthesis.io import save_specification

        path = tmp_path / "spec.json"
        save_specification(spec, path)
        task = spec.application.tasks[0].name
        resource = spec.options_of(task)[0].resource
        assert (
            main(["--spec", str(path), "--pin", f"{task}={resource}"]) == 0
        )
        out = capsys.readouterr().out
        assert "Pareto front" in out
