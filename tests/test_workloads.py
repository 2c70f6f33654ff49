"""Tests for the synthetic instance generator."""

import pytest

from repro.graphs import topological_order
from repro.synthesis.model import Specification
from repro.workloads import SUITES, WorkloadConfig, generate_application, generate_specification, suite


class TestApplicationGenerator:
    def test_task_count(self):
        app = generate_application(tasks=7, seed=3)
        assert len(app.tasks) == 7

    def test_deterministic(self):
        a = generate_application(tasks=6, seed=5)
        b = generate_application(tasks=6, seed=5)
        assert a == b

    def test_seeds_differ(self):
        a = generate_application(tasks=6, seed=1)
        b = generate_application(tasks=6, seed=2)
        assert a != b

    def test_acyclic_by_construction(self):
        for seed in range(5):
            app = generate_application(tasks=10, seed=seed)
            assert len(topological_order(app.graph())) == len(app.tasks)

    def test_connected_dependencies(self):
        # Every non-first-layer task has at least one predecessor; overall
        # there is at least one message once tasks span multiple layers.
        app = generate_application(tasks=9, seed=0)
        assert app.messages

    def test_single_task(self):
        app = generate_application(tasks=1, seed=0)
        assert len(app.tasks) == 1
        assert app.messages == ()


class TestSpecificationGenerator:
    def test_valid_specification(self):
        config = WorkloadConfig(tasks=6, seed=4)
        spec = generate_specification(config)
        assert isinstance(spec, Specification)

    def test_options_within_range(self):
        config = WorkloadConfig(tasks=5, seed=1, options_per_task=(2, 3))
        spec = generate_specification(config)
        for task in spec.application.tasks:
            assert 2 <= len(spec.options_of(task.name)) <= 3

    def test_deterministic(self):
        config = WorkloadConfig(tasks=5, seed=9)
        assert generate_specification(config) == generate_specification(config)

    def test_bus_platform_excludes_hub_from_mappings(self):
        config = WorkloadConfig(tasks=4, seed=0, platform="bus", platform_size=(3, 0))
        spec = generate_specification(config)
        assert all(o.resource != "bus" for o in spec.mappings)

    def test_ring_platform(self):
        config = WorkloadConfig(tasks=4, seed=0, platform="ring", platform_size=(4, 0))
        spec = generate_specification(config)
        assert len(spec.architecture.links) == 4

    def test_unknown_platform(self):
        with pytest.raises(ValueError):
            generate_specification(WorkloadConfig(platform="torus"))


class TestConfigValidation:
    """WorkloadConfig rejects degenerate inputs with a clear message."""

    def test_zero_tasks(self):
        with pytest.raises(ValueError, match="at least one task"):
            WorkloadConfig(tasks=0)

    def test_negative_tasks(self):
        with pytest.raises(ValueError, match="at least one task"):
            WorkloadConfig(tasks=-3)

    def test_zero_resources_mesh(self):
        with pytest.raises(ValueError, match="mesh needs positive"):
            WorkloadConfig(platform="mesh", platform_size=(0, 2))

    def test_zero_resources_bus(self):
        with pytest.raises(ValueError, match="at least one processing"):
            WorkloadConfig(platform="bus", platform_size=(0, 0))

    def test_bad_options_range(self):
        with pytest.raises(ValueError, match="options_per_task"):
            WorkloadConfig(options_per_task=(0, 2))
        with pytest.raises(ValueError, match="options_per_task"):
            WorkloadConfig(options_per_task=(3, 2))

    def test_bad_message_probability(self):
        with pytest.raises(ValueError, match="message_probability"):
            WorkloadConfig(message_probability=1.5)

    def test_bad_message_size(self):
        with pytest.raises(ValueError, match="max_message_size"):
            WorkloadConfig(max_message_size=0)

    def test_valid_config_passes(self):
        WorkloadConfig(tasks=1, platform="ring", platform_size=(2, 0)).validate()


class TestSuites:
    def test_known_suites(self):
        assert {"tiny", "small", "medium", "large", "bus"} <= set(SUITES)

    def test_suite_instantiation(self):
        instances = suite("tiny")
        assert len(instances) == 3
        names = [inst.name for inst in instances]
        assert len(set(names)) == len(names)

    def test_unknown_suite(self):
        with pytest.raises(KeyError):
            suite("gigantic")

    def test_suite_sizes_increase(self):
        small = suite("small")
        medium = suite("medium")
        assert max(i.config.tasks for i in small) <= min(
            i.config.tasks for i in medium
        )

    def test_summaries_match_configs(self):
        for instance in suite("small"):
            summary = instance.specification.summary()
            assert summary["tasks"] == instance.config.tasks
