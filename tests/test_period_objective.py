"""Tests for the period (pipelined throughput) objective."""

from repro.baselines import exhaustive_front
from repro.dse.explorer import explore
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
from repro.workloads import WorkloadConfig, generate_specification


def two_task_spec():
    app = Application(tasks=(Task("a"), Task("b")), messages=())
    arch = Architecture(
        resources=(Resource("r0", cost=4), Resource("r1", cost=4)),
        links=(
            Link("f", "r0", "r1", delay=1, energy=1),
            Link("b_", "r1", "r0", delay=1, energy=1),
        ),
    )
    mappings = (
        MappingOption("a", "r0", wcet=3, energy=1),
        MappingOption("a", "r1", wcet=3, energy=1),
        MappingOption("b", "r0", wcet=4, energy=1),
        MappingOption("b", "r1", wcet=4, energy=1),
    )
    return Specification(app, arch, mappings)


class TestPeriodSemantics:
    def test_period_is_bottleneck_load(self):
        spec = two_task_spec()
        result = explore(spec, objectives=("period", "cost"))
        # Spreading the tasks gives period 4 (the longer wcet); stacking
        # both on one core gives 7 but identical cost (both cores cost 4
        # only when allocated) -> cheaper single-core design has cost 4.
        vectors = result.vectors()
        assert (4, 8) in vectors  # spread: period 4, both resources
        assert (7, 4) in vectors  # stacked: period 7, one resource

    def test_matches_exhaustive(self):
        spec = generate_specification(WorkloadConfig(tasks=5, seed=4))
        instance = encode(spec, objectives=("period", "energy"), symmetry="off")
        truth = exhaustive_front(instance).vectors()
        result = explore(spec, objectives=("period", "energy"))
        assert result.vectors() == truth

    def test_recompute_matches_theory(self):
        spec = generate_specification(WorkloadConfig(tasks=6, seed=1))
        result = explore(spec, objectives=("period", "cost"))
        for point in result.front:
            impl = point.implementation
            load = {}
            for task, resource in impl.binding.items():
                load[resource] = load.get(resource, 0) + spec.option(task, resource).wcet
            assert point.vector[0] == max(load.values())

    def test_period_with_latency_tradeoff(self):
        # Four objectives at once still works end to end.
        spec = generate_specification(WorkloadConfig(tasks=4, seed=2))
        result = explore(
            spec, objectives=("latency", "energy", "cost", "period")
        )
        assert result.front
        assert len(result.objectives) == 4
