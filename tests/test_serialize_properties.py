"""Property tests for the serialized-scheduling encoding.

With ``serialize=True`` tasks sharing a resource are totally ordered;
exactness of the DSE and validity of every schedule must survive the
extra disjunctive constraints.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import exhaustive_front
from repro.dse.explorer import ExactParetoExplorer
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
from repro.synthesis.solution import validate


@st.composite
def shared_resource_spec(draw):
    """2-3 tasks, 2 resources, mapping tables that force sharing often."""
    n_tasks = draw(st.integers(2, 3))
    tasks = tuple(Task(f"t{i}") for i in range(n_tasks))
    messages = []
    if n_tasks >= 2 and draw(st.booleans()):
        messages.append(Message("m0", "t0", "t1", size=1))
    if n_tasks == 3 and draw(st.booleans()):
        messages.append(Message("m1", "t0", "t2", size=1))
    resources = (Resource("r0", cost=2), Resource("r1", cost=3))
    links = (
        Link("f", "r0", "r1", delay=1, energy=1),
        Link("b", "r1", "r0", delay=1, energy=1),
    )
    mappings = []
    for task in tasks:
        count = draw(st.integers(1, 2))
        chosen = ["r0", "r1"][:count] if draw(st.booleans()) else ["r1", "r0"][:count]
        for resource in chosen:
            mappings.append(
                MappingOption(
                    task.name,
                    resource,
                    wcet=draw(st.integers(1, 3)),
                    energy=draw(st.integers(1, 3)),
                )
            )
    return Specification(
        Application(tasks, tuple(messages)), Architecture(resources, links), tuple(mappings)
    )


@settings(max_examples=20, deadline=None)
@given(shared_resource_spec())
def test_serialized_dse_matches_exhaustive(spec):
    instance = encode(spec, serialize=True)
    truth = exhaustive_front(encode(spec, serialize=True, symmetry="off"))
    result = ExactParetoExplorer(instance).run()
    assert result.vectors() == truth.vectors()


@settings(max_examples=20, deadline=None)
@given(shared_resource_spec())
def test_serialized_witnesses_have_valid_schedules(spec):
    instance = encode(spec, serialize=True)
    result = ExactParetoExplorer(instance).run()
    for point in result.front:
        problems = validate(spec, point.implementation, serialized=True)
        assert problems == [], problems


@settings(max_examples=15, deadline=None)
@given(shared_resource_spec())
def test_serialization_never_improves_latency(spec):
    """Serial execution can only be as fast or slower than pipelined."""
    pipelined = ExactParetoExplorer(encode(spec, objectives=("latency",))).run()
    serialized = ExactParetoExplorer(
        encode(spec, objectives=("latency",), serialize=True)
    ).run()
    if pipelined.front and serialized.front:
        assert serialized.front[0].vector[0] >= pipelined.front[0].vector[0]
