"""Tests for multicast messages (route trees)."""

import pytest

from repro.asp import Control
from repro.baselines import exhaustive_front, nsga2_front
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
    SpecificationError,
    Task,
)
from repro.synthesis.solution import decode_model, validate
from repro.theory.linear import LinearPropagator


def multicast_spec():
    """One producer, two readers on opposite ends of a path platform."""
    app = Application(
        tasks=(Task("p"), Task("c1"), Task("c2")),
        messages=(Message("m", "p", "c1", size=1, extra_targets=("c2",)),),
    )
    resources = tuple(Resource(f"r{i}", cost=1) for i in range(3))
    links = (
        Link("ab", "r0", "r1", delay=1, energy=1),
        Link("ba", "r1", "r0", delay=1, energy=1),
        Link("bc", "r1", "r2", delay=1, energy=1),
        Link("cb", "r2", "r1", delay=1, energy=1),
    )
    mappings = (
        MappingOption("p", "r1", wcet=1, energy=1),
        MappingOption("c1", "r0", wcet=1, energy=1),
        MappingOption("c2", "r2", wcet=1, energy=1),
    )
    return Specification(app, Architecture(resources, links), mappings)


class TestModel:
    def test_targets_property(self):
        message = Message("m", "a", "b", extra_targets=("c", "d"))
        assert message.targets == ("b", "c", "d")

    def test_duplicate_target_rejected(self):
        with pytest.raises(SpecificationError):
            Message("m", "a", "b", extra_targets=("b",))

    def test_duplicate_extra_targets_rejected(self):
        with pytest.raises(SpecificationError):
            Message("m", "a", "b", extra_targets=("c", "c"))

    def test_source_in_targets_rejected(self):
        app_tasks = (Task("a"), Task("b"))
        with pytest.raises(SpecificationError):
            Application(
                tasks=app_tasks,
                messages=(Message("m", "a", "b", extra_targets=("a",)),),
            )

    def test_graph_has_edge_per_target(self):
        spec = multicast_spec()
        graph = spec.application.graph()
        assert ("p", "c1") in graph.edges
        assert ("p", "c2") in graph.edges


class TestEncoding:
    def solve_impls(self, spec):
        instance = encode(spec)
        ctl = Control()
        ctl.add(instance.program)
        ctl.register_propagator(LinearPropagator())
        ctl.ground()
        impls = []

        def on_model(model):
            impl = decode_model(spec, model)
            problems = validate(spec, impl)
            assert not problems, problems
            impls.append(impl)

        ctl.solve(on_model=on_model, models=0)
        return impls

    def test_tree_reaches_both_readers(self):
        impls = self.solve_impls(multicast_spec())
        assert impls
        for impl in impls:
            assert set(impl.routes["m"]) == {"ba", "bc"}

    def test_latency_uses_tree_weight(self):
        (impl,) = self.solve_impls(multicast_spec())
        # Conservative store-and-forward model: delay = full tree weight.
        assert impl.objectives["latency"] == 1 + 2 + 1

    def test_reader_on_source_resource(self):
        spec = multicast_spec()
        mappings = tuple(
            MappingOption("c1", "r1", wcet=1, energy=1) if m.task == "c1" else m
            for m in spec.mappings
        )
        spec = Specification(spec.application, spec.architecture, mappings)
        impls = self.solve_impls(spec)
        for impl in impls:
            assert set(impl.routes["m"]) == {"bc"}


class TestValidation:
    def test_dead_branch_rejected(self):
        spec = multicast_spec()
        from repro.synthesis.solution import Implementation

        impl = Implementation(
            binding={"p": "r1", "c1": "r0", "c2": "r2"},
            routes={"m": ["ba", "bc", "cb"]},  # cb re-enters r1
        )
        problems = validate(spec, impl)
        assert problems

    def test_missing_target_rejected(self):
        spec = multicast_spec()
        from repro.synthesis.solution import Implementation

        impl = Implementation(
            binding={"p": "r1", "c1": "r0", "c2": "r2"},
            routes={"m": ["ba"]},
        )
        assert any("not reached" in p for p in validate(spec, impl))


class TestDse:
    def test_exact_front_matches_exhaustive(self):
        app = Application(
            tasks=(Task("p"), Task("c1"), Task("c2")),
            messages=(Message("m", "p", "c1", size=2, extra_targets=("c2",)),),
        )
        resources = tuple(Resource(f"r{i}", cost=2 + i) for i in range(3))
        links = tuple(
            Link(f"l{i}{j}", f"r{i}", f"r{j}", delay=1, energy=1)
            for i in range(3)
            for j in range(3)
            if i != j
        )
        mappings = (
            MappingOption("p", "r0", wcet=1, energy=2),
            MappingOption("p", "r1", wcet=2, energy=1),
            MappingOption("c1", "r1", wcet=1, energy=1),
            MappingOption("c1", "r2", wcet=2, energy=1),
            MappingOption("c2", "r2", wcet=1, energy=2),
        )
        spec = Specification(app, Architecture(resources, links), mappings)
        truth = exhaustive_front(encode(spec, symmetry="off")).vectors()
        assert explore(spec).vectors() == truth

    def test_nsga2_trees_validate(self):
        spec = multicast_spec()
        result = nsga2_front(spec, generations=5, seed=0)
        assert result.front
        for _vector, impl in result.front.items():
            assert validate(spec, impl) == []
