"""Elastic cube scheduler: deques, stealing, priorities, re-splits, deltas."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dse.parallel import binding_choices, derive_cubes
from repro.dse.scheduler import ArchiveDelta, CubeScheduler, cube_objective_box
from repro.synthesis.encoding import encode
from repro.workloads.curated import curated


def _scheduler(name="consumer_jpeg", jobs=2, depth=2):
    spec = curated(name)
    instance = encode(spec)
    cubes = derive_cubes(spec, depth)
    return (
        CubeScheduler(
            cubes,
            jobs,
            choices=binding_choices(spec),
            objectives=instance.objectives,
        ),
        cubes,
    )


class TestArchiveDelta:
    @given(
        vectors=st.lists(
            st.tuples(*(st.integers(-(2**40), 2**40) for _ in range(3))),
            max_size=20,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, vectors):
        delta = ArchiveDelta(vectors)
        assert ArchiveDelta.from_bytes(delta.to_bytes()) == delta
        assert list(delta) == [tuple(v) for v in vectors]

    def test_wire_size_is_compact(self):
        # 8-byte header + 8 bytes per component: deltas stay far below
        # what pickling whole archives (vector + implementation payload)
        # costs per sync.
        delta = ArchiveDelta([(1, 2, 3)] * 5)
        assert len(delta.to_bytes()) == 8 + 5 * 3 * 8

    def test_empty_delta(self):
        assert list(ArchiveDelta.from_bytes(ArchiveDelta([]).to_bytes())) == []


class TestObjectiveBox:
    def test_box_brackets_every_front_point(self):
        spec = curated("consumer_jpeg")
        instance = encode(spec)
        from repro.dse.explorer import ExactParetoExplorer

        front = ExactParetoExplorer(instance).run()
        for depth in (0, 1, 2):
            for cube in derive_cubes(spec, depth):
                low, high = cube_objective_box(instance.objectives, cube)
                for point in front.front:
                    binding = point.implementation.binding
                    if all(binding.get(t) == r for t, r in cube.items()):
                        assert all(
                            l <= v <= h
                            for l, v, h in zip(low, point.vector, high)
                        )

    def test_pinning_tightens_the_box(self):
        spec = curated("consumer_jpeg")
        instance = encode(spec)
        base_low, base_high = cube_objective_box(instance.objectives, {})
        for cube in derive_cubes(spec, 2):
            low, high = cube_objective_box(instance.objectives, cube)
            assert all(l >= bl for l, bl in zip(low, base_low))
            assert all(h <= bh for h, bh in zip(high, base_high))


class TestScheduling:
    def test_stealing_drains_every_cube_exactly_once(self):
        scheduler, cubes = _scheduler(jobs=2)
        seen = []
        while True:  # worker 0 hogs the scheduler and steals the rest
            cube = scheduler.next_cube(0)
            if cube is None:
                break
            seen.append(tuple(sorted(cube.items())))
        assert sorted(seen) == sorted(
            tuple(sorted(c.items())) for c in cubes
        )
        assert len(seen) == len(set(seen))
        assert scheduler.steals[0] == len(cubes) - len(cubes[0::2])

    def test_stealing_is_deterministic(self):
        runs = []
        for _repeat in range(2):
            scheduler, _cubes = _scheduler(jobs=3, depth=3)
            trace = []
            while True:
                cube = scheduler.next_cube(2)  # always idle → always steals
                if cube is None:
                    break
                trace.append(tuple(sorted(cube.items())))
            runs.append(trace)
        assert runs[0] == runs[1]

    def test_busiest_victim_has_the_deepest_queue(self):
        scheduler, _cubes = _scheduler(jobs=3, depth=3)
        # Drain worker 1 so queue depths differ.
        while scheduler._queues[1]:
            scheduler.next_cube(1)
        sizes = scheduler.queue_sizes()
        victim = scheduler._pick_victim(1)
        assert sizes[victim] == max(sizes[w] for w in (0, 2))

    def test_observe_reorders_queues_by_hypervolume(self):
        scheduler, cubes = _scheduler(jobs=1, depth=2)
        first_before = scheduler.next_cube(0)
        # A utopia archive point dominates every cube's box, so all
        # priorities collapse to 0 and the (lazily re-sorted) queue falls
        # back to deterministic sequence order.
        scheduler.observe([tuple(0 for _ in scheduler._profiles)])
        remaining = []
        while True:
            cube = scheduler.next_cube(0)
            if cube is None:
                break
            remaining.append(cube)
        assert first_before not in remaining
        assert remaining == [cube for cube in cubes if cube != first_before]

    def test_resplit_children_partition_the_parent(self):
        scheduler, _cubes = _scheduler(jobs=1, depth=1)
        parent = scheduler.next_cube(0)
        before = sum(scheduler.queue_sizes())
        spec = curated("consumer_jpeg")
        choices = binding_choices(spec)
        task, options = next(
            (t, o) for t, o in choices if t not in parent
        )
        children = scheduler.resplit(0, parent)
        assert children == len(options)
        assert sum(scheduler.queue_sizes()) == before + children
        assert scheduler.resplits == 1
        got = []
        while True:
            cube = scheduler.next_cube(0)
            if cube is None:
                break
            if all(cube.get(t) == r for t, r in parent.items()):
                got.append(cube[task])
        assert sorted(got) == sorted(options)

    def test_resplit_exhausted_cube_returns_zero(self):
        spec = curated("consumer_jpeg")
        full_depth = len(binding_choices(spec))
        scheduler, cubes = _scheduler(jobs=1, depth=full_depth)
        assert not scheduler.splittable(cubes[0])
        assert scheduler.resplit(0, cubes[0]) == 0

    def test_invalid_parameters_are_rejected(self):
        from repro.dse.parallel import ParallelParetoExplorer

        instance = encode(curated("consumer_jpeg"))
        with pytest.raises(ValueError, match="jobs"):
            ParallelParetoExplorer(instance, jobs=0)
        with pytest.raises(ValueError, match="backend"):
            ParallelParetoExplorer(instance, backend="threads")


class TestRelay:
    """The scheduler relays published points between workers."""

    def test_publish_queues_points_for_the_other_running_workers(self):
        streamed = []
        scheduler = CubeScheduler([{}], 3, on_points=streamed.append)
        scheduler.halt(2)
        assert scheduler.publish(0, [(1, 2, 3)]) == 8 + 3 * 8  # wire size
        assert streamed == [[(1, 2, 3)]]
        assert scheduler.foreign(1) == [(1, 2, 3)]
        assert scheduler.foreign(1) == []  # handed out once
        assert scheduler.foreign(0) == scheduler.foreign(2) == []

    def test_isolated_and_lone_workers_receive_nothing(self):
        isolated = CubeScheduler([{}], 2, share_archive=False)
        assert isolated.publish(0, [(1, 2)]) == 8 + 2 * 8
        assert isolated.foreign(1) == []
        assert CubeScheduler([{}], 1).publish(0, [(1, 2)]) == 0
