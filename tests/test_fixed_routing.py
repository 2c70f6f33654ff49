"""Tests for the fixed (deterministic) routing mode."""

import pytest

from repro.asp import Control
from repro.baselines import exhaustive_front
from repro.dse.explorer import ExactParetoExplorer
from repro.dse.pareto import weakly_dominates
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
from repro.synthesis.solution import decode_model, validate
from repro.theory.linear import LinearPropagator
from repro.workloads import WorkloadConfig, generate_specification


def diamond_spec():
    """Two disjoint paths r0->r3; the upper one is shorter."""
    app = Application(
        tasks=(Task("a"), Task("b")), messages=(Message("m", "a", "b"),)
    )
    resources = tuple(Resource(f"r{i}", cost=1) for i in range(4))
    links = (
        Link("u1", "r0", "r1", delay=1, energy=5),
        Link("u2", "r1", "r3", delay=1, energy=5),
        Link("d1", "r0", "r2", delay=3, energy=1),
        Link("d2", "r2", "r3", delay=3, energy=1),
    )
    mappings = (
        MappingOption("a", "r0", wcet=1, energy=1),
        MappingOption("b", "r3", wcet=1, energy=1),
    )
    return Specification(app, Architecture(resources, links), mappings)


def solve_impls(spec, **encode_kwargs):
    instance = encode(spec, **encode_kwargs)
    ctl = Control()
    ctl.add(instance.program)
    ctl.register_propagator(LinearPropagator())
    ctl.ground()
    impls = []

    def on_model(model):
        impl = decode_model(spec, model)
        assert validate(spec, impl) == [], validate(spec, impl)
        impls.append(impl)

    ctl.solve(on_model=on_model, models=0)
    return impls


class TestFixedRouting:
    def test_only_shortest_path_used(self):
        impls = solve_impls(diamond_spec(), routing="fixed")
        assert len(impls) == 1
        assert impls[0].routes["m"] == ["u1", "u2"]

    def test_free_routing_explores_both(self):
        impls = solve_impls(diamond_spec(), routing="free")
        assert sorted(tuple(i.routes["m"]) for i in impls) == [
            ("d1", "d2"),
            ("u1", "u2"),
        ]

    def test_fixed_front_is_dominated_or_equal(self):
        """Restricting routing can only lose Pareto points."""
        spec = generate_specification(WorkloadConfig(tasks=5, seed=1))
        free = exhaustive_front(encode(spec, routing="free", symmetry="off"))
        fixed = exhaustive_front(encode(spec, routing="fixed", symmetry="off"))
        for vector in fixed.vectors():
            assert any(
                weakly_dominates(true_vector, vector)
                for true_vector in free.vectors()
            )

    def test_fixed_design_space_smaller(self):
        spec = generate_specification(WorkloadConfig(tasks=5, seed=1))
        free = exhaustive_front(encode(spec, routing="free", symmetry="off"))
        fixed = exhaustive_front(encode(spec, routing="fixed", symmetry="off"))
        assert fixed.models_enumerated <= free.models_enumerated

    def test_unroutable_binding_rejected(self):
        # Only a wrong-direction link exists.
        app = Application(
            tasks=(Task("a"), Task("b")), messages=(Message("m", "a", "b"),)
        )
        arch = Architecture(
            (Resource("r0"), Resource("r1")), (Link("back", "r1", "r0"),)
        )
        mappings = (
            MappingOption("a", "r0", wcet=1, energy=1),
            MappingOption("b", "r1", wcet=1, energy=1),
        )
        spec = Specification(app, arch, mappings)
        impls = solve_impls(spec, routing="fixed")
        assert impls == []

    def test_multicast_union_is_tree(self):
        app = Application(
            tasks=(Task("p"), Task("c1"), Task("c2")),
            messages=(Message("m", "p", "c1", extra_targets=("c2",)),),
        )
        resources = tuple(Resource(f"r{i}") for i in range(4))
        links = []
        for i, j in [(0, 1), (1, 2), (1, 3)]:
            links.append(Link(f"l{i}{j}", f"r{i}", f"r{j}", delay=1, energy=1))
        mappings = (
            MappingOption("p", "r0", wcet=1, energy=1),
            MappingOption("c1", "r2", wcet=1, energy=1),
            MappingOption("c2", "r3", wcet=1, energy=1),
        )
        spec = Specification(app, Architecture(resources, tuple(links)), mappings)
        impls = solve_impls(spec, routing="fixed")
        assert len(impls) == 1
        assert sorted(impls[0].routes["m"]) == ["l01", "l12", "l13"]

    def test_explorer_with_fixed_routing(self):
        spec = generate_specification(WorkloadConfig(tasks=5, seed=2))
        instance = encode(spec, routing="fixed")
        result = ExactParetoExplorer(instance).run()
        truth = exhaustive_front(encode(spec, routing="fixed", symmetry="off"))
        assert result.vectors() == truth.vectors()

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            encode(diamond_spec(), routing="adaptive")
