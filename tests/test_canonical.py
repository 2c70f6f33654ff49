"""Property tests for renaming-invariant spec canonicalization.

The cache-soundness contract (docs/SERVING.md): the canonical digest is
invariant under entity renaming and listing reordering (no missed
hits), and distinguishes structurally different specifications (no
false hits — equal digests imply isomorphic specs, which imply equal
Pareto fronts).
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.canonical import (
    canonical_digest,
    canonicalize_specification,
    invert_name_map,
    remap_front_entry,
)
from repro.dse.explorer import explore
from repro.fuzz.oracles import _rename_spec
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

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def specifications(draw) -> Specification:
    """Small random specs: full-mesh platforms, chain-ish task graphs."""
    n_resources = draw(st.integers(2, 3))
    resources = tuple(
        Resource(f"r{i}", cost=draw(st.integers(0, 6)))
        for i in range(n_resources)
    )
    links = tuple(
        Link(
            f"l{i}_{j}",
            f"r{i}",
            f"r{j}",
            delay=draw(st.integers(1, 3)),
            energy=draw(st.integers(1, 3)),
        )
        for i in range(n_resources)
        for j in range(n_resources)
        if i != j
    )
    n_tasks = draw(st.integers(1, 3))
    tasks = tuple(
        Task(
            f"t{i}",
            deadline=draw(st.one_of(st.none(), st.integers(20, 60))),
        )
        for i in range(n_tasks)
    )
    messages = tuple(
        Message(f"m{i}", f"t{i}", f"t{i + 1}", size=draw(st.integers(1, 2)))
        for i in range(n_tasks - 1)
        if draw(st.booleans())
    )
    mappings = []
    for i in range(n_tasks):
        hosts = draw(
            st.lists(
                st.integers(0, n_resources - 1),
                min_size=1,
                max_size=n_resources,
                unique=True,
            )
        )
        for r in hosts:
            mappings.append(
                MappingOption(
                    f"t{i}",
                    f"r{r}",
                    wcet=draw(st.integers(1, 5)),
                    energy=draw(st.integers(0, 4)),
                )
            )
    return Specification(
        Application(tasks, messages), Architecture(resources, links), tuple(mappings)
    )


def _reorder_spec(spec: Specification, seed: int) -> Specification:
    """Permute every listing without touching any entity."""
    rng = random.Random(seed)

    def shuffled(items):
        out = list(items)
        rng.shuffle(out)
        return tuple(out)

    return Specification(
        Application(
            shuffled(spec.application.tasks), shuffled(spec.application.messages)
        ),
        Architecture(
            shuffled(spec.architecture.resources),
            shuffled(spec.architecture.links),
        ),
        shuffled(spec.mappings),
    )


@SETTINGS
@given(spec=specifications(), tag=st.sampled_from(["x", "yy", "zq"]))
def test_digest_invariant_under_renaming(spec, tag):
    assert canonical_digest(_rename_spec(spec, tag)) == canonical_digest(spec)


@SETTINGS
@given(spec=specifications(), seed=st.integers(0, 1000))
def test_digest_invariant_under_field_reordering(spec, seed):
    assert canonical_digest(_reorder_spec(spec, seed)) == canonical_digest(spec)


@SETTINGS
@given(spec=specifications(), tag=st.sampled_from(["p", "qq"]), seed=st.integers(0, 1000))
def test_digest_invariant_under_rename_plus_reorder(spec, tag, seed):
    twin = _reorder_spec(_rename_spec(spec, tag), seed)
    assert canonical_digest(twin) == canonical_digest(spec)


@SETTINGS
@given(spec=specifications())
def test_canonicalization_is_deterministic(spec):
    first = canonicalize_specification(spec)
    second = canonicalize_specification(spec)
    assert first.digest == second.digest
    assert first.certificate == second.certificate
    assert first.task_map == second.task_map


def _assert_maps_cover(spec, canonical):
    assert set(canonical.task_map) == {t.name for t in spec.application.tasks}
    assert set(canonical.resource_map) == {
        r.name for r in spec.architecture.resources
    }
    assert set(canonical.message_map) == {
        m.name for m in spec.application.messages
    }
    assert set(canonical.link_map) == {l.name for l in spec.architecture.links}
    # Canonical names are a bijection (invert_name_map validates).
    for mapping in (
        canonical.task_map,
        canonical.resource_map,
        canonical.message_map,
        canonical.link_map,
    ):
        invert_name_map(mapping)


@SETTINGS
@given(spec=specifications())
def test_maps_cover_every_entity(spec):
    _assert_maps_cover(spec, canonicalize_specification(spec))


def _interchangeable_tasks_spec(cost: int = 2) -> Specification:
    """Two interchangeable tasks on two identical, linked resources."""
    return Specification(
        Application(tasks=(Task("a"), Task("b")), messages=()),
        Architecture(
            resources=(Resource("r1", cost=cost), Resource("r2", cost=cost)),
            links=(Link("l12", "r1", "r2"), Link("l21", "r2", "r1")),
        ),
        (
            MappingOption("a", "r1", wcet=2, energy=1),
            MappingOption("a", "r2", wcet=2, energy=1),
            MappingOption("b", "r1", wcet=2, energy=1),
            MappingOption("b", "r2", wcet=2, energy=1),
        ),
    )


def test_leaf_budget_fallback_is_deterministic_and_collision_free():
    """Past ``max_leaves`` ties break by name (``exact=False``), but the
    certificate still describes the whole spec, so the serve cache keyed
    on it can miss a twin and never conflate two specs."""
    spec = _interchangeable_tasks_spec()
    assert canonicalize_specification(spec).exact
    capped = canonicalize_specification(spec, max_leaves=1)
    assert not capped.exact
    _assert_maps_cover(spec, capped)
    assert canonicalize_specification(spec, max_leaves=1) == capped
    changed = canonicalize_specification(
        _interchangeable_tasks_spec(cost=3), max_leaves=1
    )
    assert not changed.exact
    assert changed.digest != capped.digest


@SETTINGS
@given(spec=specifications(), bump=st.integers(1, 3))
def test_attribute_perturbations_change_the_digest(spec, bump):
    """No false cache hits: changing one WCET always changes the digest
    (the perturbation changes the mapping-edge attribute multiset, so
    the graphs cannot be isomorphic)."""
    first = spec.mappings[0]
    mutated = Specification(
        spec.application,
        spec.architecture,
        (
            MappingOption(
                first.task,
                first.resource,
                wcet=first.wcet + bump,
                energy=first.energy,
            ),
        )
        + spec.mappings[1:],
    )
    assert canonical_digest(mutated) != canonical_digest(spec)


@SETTINGS
@given(spec=specifications(), tag=st.sampled_from(["w", "vv"]))
def test_renamed_twins_share_consistent_maps(spec, tag):
    """original -> canonical -> twin renaming sends each entity to its
    isomorphic image: round-tripping an entity through both maps lands
    on an entity of the same kind, and the composed map is a bijection."""
    twin = _rename_spec(spec, tag)
    original = canonicalize_specification(spec)
    renamed = canonicalize_specification(twin)
    assert original.digest == renamed.digest
    composed = {
        task: invert_name_map(renamed.task_map)[canon]
        for task, canon in original.task_map.items()
    }
    assert sorted(composed.values()) == sorted(
        t.name for t in twin.application.tasks
    )


def test_equal_digest_implies_equal_front():
    """The end-to-end soundness direction on a concrete tradeoff spec:
    a digest match between distinct inputs (here: a renamed twin) means
    the fronts agree vector-for-vector, and witnesses translate."""
    spec = Specification(
        Application(
            tasks=(Task("a"), Task("b")),
            messages=(Message("m", "a", "b", size=2),),
        ),
        Architecture(
            resources=(Resource("fast", cost=8), Resource("slow", cost=2)),
            links=(Link("f2s", "fast", "slow"), Link("s2f", "slow", "fast")),
        ),
        (
            MappingOption("a", "fast", wcet=2, energy=4),
            MappingOption("a", "slow", wcet=5, energy=1),
            MappingOption("b", "fast", wcet=3, energy=6),
            MappingOption("b", "slow", wcet=7, energy=2),
        ),
    )
    twin = _rename_spec(spec, "k")
    original = canonicalize_specification(spec)
    renamed = canonicalize_specification(twin)
    assert original.digest == renamed.digest
    assert explore(spec).vectors() == explore(twin).vectors()


def test_remap_front_entry_round_trips():
    spec = Specification(
        Application(tasks=(Task("a"), Task("b")), messages=(Message("m", "a", "b"),)),
        Architecture(
            resources=(Resource("r1", cost=1), Resource("r2", cost=2)),
            links=(Link("l12", "r1", "r2"), Link("l21", "r2", "r1")),
        ),
        (
            MappingOption("a", "r1", wcet=1, energy=1),
            MappingOption("b", "r2", wcet=2, energy=2),
        ),
    )
    canonical = canonicalize_specification(spec)
    entry = {
        "vector": [3, 4],
        "binding": {"a": "r1", "b": "r2"},
        "routes": {"m": ["l12"]},
        "schedule": {"a": 0, "b": 2},
        "objective_values": {"latency": 3, "energy": 4},
    }
    forward = (
        canonical.task_map,
        canonical.resource_map,
        canonical.message_map,
        canonical.link_map,
    )
    inverse = tuple(invert_name_map(m) for m in forward)
    assert remap_front_entry(remap_front_entry(entry, *forward), *inverse) == entry
