"""Interplay tests: encoding options combined.

Each encoding option is individually tested elsewhere; these tests
combine them (multicast + fixed routing + contention + deadlines +
serialization + period) and check that exactness and validation still
hold end to end.
"""

import pytest

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


@pytest.fixture(scope="module")
def rich_spec():
    """Multicast + deadline on a small mesh-like platform."""
    app = Application(
        tasks=(
            Task("src"),
            Task("mid"),
            Task("c1", deadline=25),
            Task("c2"),
        ),
        messages=(
            Message("m0", "src", "mid", size=1),
            Message("m1", "mid", "c1", size=1, extra_targets=("c2",)),
        ),
    )
    resources = tuple(Resource(f"r{i}", cost=2 + i) for i in range(3))
    links = tuple(
        Link(f"l{i}{j}", f"r{i}", f"r{j}", delay=1, energy=1)
        for i in range(3)
        for j in range(3)
        if i != j
    )
    mappings = (
        MappingOption("src", "r0", wcet=2, energy=2),
        MappingOption("mid", "r0", wcet=3, energy=1),
        MappingOption("mid", "r1", wcet=2, energy=3),
        MappingOption("c1", "r1", wcet=1, energy=1),
        MappingOption("c1", "r2", wcet=2, energy=1),
        MappingOption("c2", "r2", wcet=1, energy=2),
    )
    return Specification(app, Architecture(resources, links), mappings)


OPTION_SETS = [
    {"link_contention": True},
    {"routing": "fixed"},
    {"serialize": True},
    {"link_contention": True, "serialize": True},
    {"routing": "fixed", "link_contention": True},
]


@pytest.mark.parametrize(
    "options", OPTION_SETS, ids=lambda o: "+".join(sorted(map(str, o)))
)
def test_combined_options_match_exhaustive(rich_spec, options):
    instance = encode(rich_spec, **options)
    truth = exhaustive_front(encode(rich_spec, symmetry="off", **options))
    result = ExactParetoExplorer(instance).run()
    assert result.vectors() == truth.vectors()
    assert not result.statistics.interrupted


@pytest.mark.parametrize(
    "options", OPTION_SETS, ids=lambda o: "+".join(sorted(map(str, o)))
)
def test_combined_options_witnesses_validate(rich_spec, options):
    instance = encode(rich_spec, **options)
    result = ExactParetoExplorer(instance, validate_models=False).run()
    for point in result.front:
        problems = validate(
            rich_spec,
            point.implementation,
            serialized=instance.serialize,
            link_contention=instance.link_contention,
        )
        assert problems == [], (options, problems)


def test_period_with_contention(rich_spec):
    instance = encode(
        rich_spec,
        objectives=("period", "cost"),
        link_contention=True,
    )
    result = ExactParetoExplorer(instance).run()
    truth = exhaustive_front(
        encode(
            rich_spec,
            objectives=("period", "cost"),
            link_contention=True,
            symmetry="off",
        )
    )
    assert result.vectors() == truth.vectors()
