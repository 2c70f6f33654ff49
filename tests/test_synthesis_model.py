"""Tests for the specification data model and platform generators."""

import pytest

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
from repro.synthesis.platforms import TILE_CLASSES, bus, heterogeneous_resources, mesh, ring


def tiny_spec():
    app = Application(
        tasks=(Task("a"), Task("b")),
        messages=(Message("m", "a", "b", size=2),),
    )
    arch = Architecture(
        resources=(Resource("r1", cost=3), Resource("r2", cost=5)),
        links=(Link("l12", "r1", "r2", delay=2, energy=1),
               Link("l21", "r2", "r1", delay=2, energy=1)),
    )
    mappings = (
        MappingOption("a", "r1", wcet=2, energy=4),
        MappingOption("a", "r2", wcet=1, energy=6),
        MappingOption("b", "r2", wcet=3, energy=2),
    )
    return Specification(app, arch, mappings)


class TestValidation:
    def test_valid_spec(self):
        spec = tiny_spec()
        assert spec.summary()["tasks"] == 2

    def test_duplicate_tasks_rejected(self):
        with pytest.raises(SpecificationError):
            Application(tasks=(Task("a"), Task("a")), messages=())

    def test_unknown_message_endpoint(self):
        with pytest.raises(SpecificationError):
            Application(tasks=(Task("a"),), messages=(Message("m", "a", "zz"),))

    def test_cyclic_application_rejected(self):
        with pytest.raises(SpecificationError):
            Application(
                tasks=(Task("a"), Task("b")),
                messages=(Message("m1", "a", "b"), Message("m2", "b", "a")),
            )

    def test_self_loop_link_rejected(self):
        with pytest.raises(SpecificationError):
            Link("l", "r", "r")

    def test_task_without_mapping_rejected(self):
        app = Application(tasks=(Task("a"), Task("b")), messages=())
        arch = Architecture(resources=(Resource("r"),), links=())
        with pytest.raises(SpecificationError):
            Specification(app, arch, (MappingOption("a", "r", wcet=1, energy=0),))

    def test_duplicate_mapping_rejected(self):
        app = Application(tasks=(Task("a"),), messages=())
        arch = Architecture(resources=(Resource("r"),), links=())
        with pytest.raises(SpecificationError):
            Specification(
                app,
                arch,
                (
                    MappingOption("a", "r", wcet=1, energy=0),
                    MappingOption("a", "r", wcet=2, energy=0),
                ),
            )

    def test_non_identifier_task_name(self):
        with pytest.raises(SpecificationError):
            Task("not valid")

    # Every name becomes an ASP constant: the parser's IDENT token
    # ([a-z][A-Za-z0-9_]*), and not the horizon constant h.
    BAD_NAMES = ["T0", "_t0", "pe-0", "pe 0", "l.f", "h", ""]

    @pytest.mark.parametrize("name", BAD_NAMES)
    def test_task_name_must_be_an_asp_constant(self, name):
        with pytest.raises(SpecificationError, match="^task name"):
            Task(name)

    @pytest.mark.parametrize("name", BAD_NAMES + ["M0"])
    def test_message_name_must_be_an_asp_constant(self, name):
        with pytest.raises(SpecificationError, match="^message name"):
            Message(name, "a", "b")

    @pytest.mark.parametrize("name", BAD_NAMES + ["PE0"])
    def test_resource_name_must_be_an_asp_constant(self, name):
        with pytest.raises(SpecificationError, match="^resource name"):
            Resource(name)

    @pytest.mark.parametrize("name", BAD_NAMES + ["Lf"])
    def test_link_name_must_be_an_asp_constant(self, name):
        with pytest.raises(SpecificationError, match="^link name"):
            Link(name, "r1", "r2")

    def test_bad_name_in_a_dict_is_rejected_on_load(self):
        import json

        from repro.synthesis.io import specification_from_dict, specification_to_dict

        data = json.loads(
            json.dumps(specification_to_dict(tiny_spec())).replace('"r1"', '"PE0"')
        )
        with pytest.raises(SpecificationError, match="resource name 'PE0'"):
            specification_from_dict(data)

    def test_nonpositive_wcet(self):
        with pytest.raises(SpecificationError):
            MappingOption("a", "r", wcet=0, energy=0)


class TestDerivedViews:
    def test_options_of(self):
        spec = tiny_spec()
        assert {o.resource for o in spec.options_of("a")} == {"r1", "r2"}

    def test_binding_space_size(self):
        assert tiny_spec().binding_space_size() == 2

    def test_horizon_covers_serial_execution(self):
        spec = tiny_spec()
        assert spec.horizon() >= 2 + 3  # worst wcets back to back

    def test_max_energy_upper_bounds(self):
        spec = tiny_spec()
        assert spec.max_energy() >= 6 + 2

    def test_graphs(self):
        spec = tiny_spec()
        assert set(spec.application.graph().edges) == {("a", "b")}
        assert ("r1", "r2") in spec.architecture.graph().edges


class TestPlatforms:
    def test_mesh_dimensions(self):
        arch = mesh(3, 2, seed=0)
        assert len(arch.resources) == 6
        # 2*( (3-1)*2 + (2-1)*3 ) directed links
        assert len(arch.links) == 2 * ((3 - 1) * 2 + (2 - 1) * 3)

    def test_mesh_is_strongly_connected(self):
        import networkx as nx

        arch = mesh(3, 3, seed=1)
        assert nx.is_strongly_connected(arch.graph())

    def test_bus_star_topology(self):
        arch = bus(4, seed=0)
        names = {r.name for r in arch.resources}
        assert "bus" in names
        assert len(arch.links) == 8

    def test_ring_cycle(self):
        import networkx as nx

        arch = ring(5, seed=0)
        assert nx.is_strongly_connected(arch.graph())
        assert len(arch.links) == 5

    def test_heterogeneous_deterministic(self):
        a = heterogeneous_resources(6, seed=42)
        b = heterogeneous_resources(6, seed=42)
        assert [(r.name, r.cost) for r, _ in a] == [(r.name, r.cost) for r, _ in b]

    def test_tile_costs_are_distinct(self):
        costs = [cost for _name, cost, _w, _e in TILE_CLASSES]
        assert len(set(costs)) == len(costs)
