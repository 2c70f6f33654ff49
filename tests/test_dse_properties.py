"""Property-based end-to-end test: exact DSE vs. exhaustive ground truth.

Random miniature synthesis instances (random DAGs, random platforms,
random mapping tables) go through the whole vertical — encoding,
grounding, CDNL + theories, dominance propagation — and the resulting
front must equal exhaustive enumerate-and-filter; the epsilon variant
must honour its approximation guarantee.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import exhaustive_front
from repro.dse.explorer import explore
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


@st.composite
def tiny_specification(draw):
    n_tasks = draw(st.integers(2, 3))
    n_resources = draw(st.integers(2, 3))
    tasks = tuple(Task(f"t{i}") for i in range(n_tasks))
    messages = []
    for i in range(1, n_tasks):
        source = draw(st.integers(0, i - 1))
        if draw(st.booleans()):
            messages.append(
                Message(f"m{i}", f"t{source}", f"t{i}", size=draw(st.integers(1, 2)))
            )
    resources = tuple(
        Resource(f"r{i}", cost=draw(st.integers(0, 5))) for i in range(n_resources)
    )
    links = []
    for i in range(n_resources):
        j = (i + 1) % n_resources
        delay = draw(st.integers(1, 2))
        links.append(Link(f"l{i}f", f"r{i}", f"r{j}", delay=delay, energy=1))
        links.append(Link(f"l{i}b", f"r{j}", f"r{i}", delay=delay, energy=1))
    # Dedupe: with 2 resources the ring creates parallel duplicate links.
    seen = set()
    unique_links = []
    for link in links:
        key = (link.source, link.target, link.name)
        pair = (link.source, link.target)
        if pair in seen:
            continue
        seen.add(pair)
        unique_links.append(link)
    mappings = []
    for task in tasks:
        count = draw(st.integers(1, min(2, n_resources)))
        chosen = draw(
            st.lists(
                st.integers(0, n_resources - 1),
                min_size=count,
                max_size=count,
                unique=True,
            )
        )
        for r in chosen:
            mappings.append(
                MappingOption(
                    task.name,
                    f"r{r}",
                    wcet=draw(st.integers(1, 4)),
                    energy=draw(st.integers(1, 4)),
                )
            )
    return Specification(
        Application(tasks, tuple(messages)),
        Architecture(resources, tuple(unique_links)),
        tuple(mappings),
    )


@settings(max_examples=25, deadline=None)
@given(tiny_specification())
def test_exact_dse_equals_exhaustive(spec):
    truth = exhaustive_front(encode(spec, symmetry="off"))
    result = explore(spec)
    assert result.vectors() == truth.vectors()


@settings(max_examples=15, deadline=None)
@given(tiny_specification(), st.integers(1, 3))
def test_epsilon_guarantee(spec, epsilon):
    truth = exhaustive_front(encode(spec, symmetry="off")).vectors()
    approx = explore(spec, epsilon=epsilon).vectors()
    if not truth:
        assert not approx
        return
    for p in truth:
        shifted = tuple(x + epsilon for x in p)
        assert any(weakly_dominates(a, shifted) for a in approx)


@settings(max_examples=15, deadline=None)
@given(tiny_specification())
def test_witnesses_always_validate(spec):
    from repro.synthesis.solution import validate

    result = explore(spec)
    for point in result.front:
        assert validate(spec, point.implementation) == []
