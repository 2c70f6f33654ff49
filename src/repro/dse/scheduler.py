"""Elastic cube scheduling: work-stealing, hypervolume order, re-splits.

Fixed shares of the guiding-path cubes (``cubes[w::jobs]``) balance
badly: background theory pruning makes cube hardness wildly uneven, so
one hard cube routinely idles every other worker.  The scheduler here is
*elastic*:

1. **Work-stealing deques** — every worker owns a deque of cubes; an
   idle worker steals from the tail of the busiest victim's deque
   instead of finishing early.  The owner consumes its head.
2. **Hypervolume ordering** — each queued cube carries a priority: the
   exact hypervolume its objective bounding box could still contribute
   against the current archive (:func:`repro.dse.pareto.hypervolume_box`
   of the cube's lower-bound corner vs. the objectives' reference
   point).  Queues are re-sorted lazily whenever archive deltas arrive,
   so fat, unexplored objective regions run first and the strong points
   they produce prune everything behind them.
3. **Adaptive re-splitting** — a cube that burns through its conflict
   budget without closing is split one binding level deeper and its
   children are returned to the deque, so no single cube can occupy a
   worker for the whole run.
4. **Archive deltas** — workers publish *increments* of new
   non-dominated points through :meth:`CubeScheduler.publish`, which
   relays each batch to every other worker (:meth:`CubeScheduler.foreign`)
   instead of re-publishing whole archives; across processes a batch
   travels as an :class:`ArchiveDelta`, a compact struct-packed batch of
   objective vectors.

None of this touches exactness: scheduling decisions only change *when*
dominance pruning happens, never *what* the merged front contains.  A
steal moves a cube between solvers whose learned state is sound for
every cube; a re-split replaces a cube by a partition of itself; a delta
only injects objective vectors of feasible implementations.  The
bit-identical-front guarantee of ``docs/PARALLEL.md`` therefore survives
every combination (property-tested in ``tests/test_parallel.py``).
"""

from __future__ import annotations

import struct
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.dse.pareto import dominates, hypervolume_box, weakly_dominates
from repro.synthesis.encoding import ObjectiveSpec

__all__ = [
    "ArchiveDelta",
    "CubeScheduler",
    "cube_objective_box",
    "DEFAULT_RESPLIT_CONFLICTS",
    "TARGET_CUBE_FACTOR",
    "MAX_STEALING_CUBES",
]

#: Conflicts a cube may burn before it is split one level deeper.
DEFAULT_RESPLIT_CONFLICTS = 1_000

#: The scheduler over-partitions to ``TARGET_CUBE_FACTOR * jobs``
#: cubes so the deques stay deep enough to steal from.
TARGET_CUBE_FACTOR = 8

#: Hard cap on the initial cube count: grounding is shared, but every
#: cube costs a dispatch round-trip and an assumption-based solver
#: restart, so past this point scheduling overhead rivals what the
#: shared ground program saved.
MAX_STEALING_CUBES = 512


class ArchiveDelta:
    """A compact batch of newly archived objective vectors.

    Wire format (little-endian): ``<II`` header with the point count and
    the objective dimension, then one ``<q`` per component, row-major.
    8 bytes + 8·n·d total — process workers exchange these increments
    instead of whole archives.
    """

    __slots__ = ("vectors",)

    _HEADER = struct.Struct("<II")

    def __init__(self, vectors: Iterable[Sequence[int]]):
        self.vectors: List[Tuple[int, ...]] = [
            tuple(vector) for vector in vectors
        ]

    def __len__(self) -> int:
        return len(self.vectors)

    def __iter__(self):
        return iter(self.vectors)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ArchiveDelta) and self.vectors == other.vectors

    def to_bytes(self) -> bytes:
        dimension = len(self.vectors[0]) if self.vectors else 0
        flat = [component for vector in self.vectors for component in vector]
        return self._HEADER.pack(len(self.vectors), dimension) + struct.pack(
            f"<{len(flat)}q", *flat
        )

    @classmethod
    def from_bytes(cls, blob: bytes) -> "ArchiveDelta":
        count, dimension = cls._HEADER.unpack_from(blob)
        flat = struct.unpack_from(f"<{count * dimension}q", blob, cls._HEADER.size)
        return cls(
            flat[row * dimension : (row + 1) * dimension]
            for row in range(count)
        )


class _ObjectiveProfile:
    """Weight maps of one objective, for cube bound estimation."""

    def __init__(self, spec: ObjectiveSpec):
        self.name = spec.name
        self.kind = spec.kind
        self.max_value = spec.max_value
        self.bind: Dict[str, Dict[str, int]] = {}
        self.alloc: Dict[str, int] = {}
        self.other_max = 0
        for weight, atom in spec.terms:
            name = getattr(atom, "name", None)
            arguments = getattr(atom, "arguments", ())
            if name == "bind" and len(arguments) == 2:
                task = str(arguments[0])
                resource = str(arguments[1])
                self.bind.setdefault(task, {})[resource] = (
                    self.bind.get(task, {}).get(resource, 0) + weight
                )
            elif name == "alloc" and len(arguments) == 1:
                resource = str(arguments[0])
                self.alloc[resource] = self.alloc.get(resource, 0) + weight
            else:
                self.other_max += max(weight, 0)

    def bounds(self, cube: Dict[str, str]) -> Tuple[int, int]:
        """Inclusive ``(lower, upper)`` objective bounds for ``cube``."""
        if self.kind != "pb":
            return 0, self.max_value
        low = high = 0
        for task, options in self.bind.items():
            pinned = cube.get(task)
            if pinned is not None:
                weight = options.get(pinned, 0)
                low += weight
                high += weight
            else:
                low += min(options.values(), default=0)
                high += max(options.values(), default=0)
        pinned_resources = {cube[task] for task in cube}
        for resource, weight in self.alloc.items():
            if resource in pinned_resources:
                low += weight
                high += weight
            else:
                high += weight
        high += self.other_max
        return low, high


def cube_objective_box(
    objectives: Sequence[ObjectiveSpec], cube: Dict[str, str]
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Estimated objective bounding box of a cube's subspace.

    Pseudo-Boolean objectives sum the pinned ``bind``/``alloc`` weights
    exactly and bracket the unpinned tasks by their cheapest/costliest
    mapping option; theory-variable objectives span ``[0, max_value]``.
    A heuristic for scheduling only — never consulted for pruning.
    """
    profiles = [_ObjectiveProfile(spec) for spec in objectives]
    bounds = [profile.bounds(cube) for profile in profiles]
    return (
        tuple(low for low, _high in bounds),
        tuple(high for _low, high in bounds),
    )


class _QueuedCube:
    __slots__ = ("bindings", "sequence", "priority")

    def __init__(self, bindings: Dict[str, str], sequence: int):
        self.bindings = bindings
        self.sequence = sequence
        self.priority = 0


class CubeScheduler:
    """The coordinator of the exploration loop (:func:`~repro.dse.explorer.drive`).

    It hands out cubes from per-worker deques (with stealing, priorities
    and re-splits) and relays published points between workers.  The
    scheduler is the single source of truth for cube ownership.  It
    lives in the coordinating process (the inline loop or the process
    backend's parent); workers only ever hold the one cube they are
    executing, so stealing and re-prioritisation never race with a
    solver.  Without ``objectives`` there are no priorities (cubes run
    in queue order), and without ``choices`` no cube is splittable.
    """

    def __init__(
        self,
        cubes: Sequence[Dict[str, str]],
        jobs: int,
        choices: Sequence[Tuple[str, List[str]]] = (),
        objectives: Sequence[ObjectiveSpec] = (),
        share_archive: bool = True,
        on_points=None,
    ):
        self.jobs = jobs
        self.share_archive = share_archive
        self.on_points = on_points
        self._choices = [(task, list(options)) for task, options in choices]
        self._profiles = [_ObjectiveProfile(spec) for spec in objectives]
        self._sequence = 0
        # Deterministic round-robin starting ownership.
        self._queues: List[List[_QueuedCube]] = [
            [self._make(cube) for cube in cubes[worker::jobs]]
            for worker in range(jobs)
        ]
        self._archive: List[Tuple[int, ...]] = []
        self._revision = 0
        self._sorted_revision = [-1] * jobs
        self._foreign: List[List[Tuple[int, ...]]] = [[] for _worker in range(jobs)]
        #: Workers that spent their budget or finished (see :meth:`halt`).
        self.halted: Set[int] = set()
        #: Telemetry the parent merges into the run statistics.
        self.steals = [0] * jobs
        self.resplits = 0

    # -- queue plumbing ----------------------------------------------------------

    def _make(self, bindings: Dict[str, str]) -> _QueuedCube:
        cube = _QueuedCube(dict(bindings), self._sequence)
        self._sequence += 1
        return cube

    def _priority(self, cube: _QueuedCube) -> int:
        lower = []
        upper = []
        for profile in self._profiles:
            low, high = profile.bounds(cube.bindings)
            lower.append(low)
            # Reference point: one past the objective's declared maximum
            # (so a front point at the maximum still bounds volume).
            upper.append(max(profile.max_value, high) + 1)
        return hypervolume_box(lower, upper, self._archive)

    def _refresh(self, worker: int) -> None:
        """Re-sort a queue by descending priority (lazily, per revision)."""
        if not self._profiles:
            return
        if self._sorted_revision[worker] == self._revision:
            return
        queue = self._queues[worker]
        for cube in queue:
            cube.priority = self._priority(cube)
        # Stable + sequence tie-break keeps the order deterministic.
        queue.sort(key=lambda cube: (-cube.priority, cube.sequence))
        self._sorted_revision[worker] = self._revision

    def queue_sizes(self) -> List[int]:
        return [len(queue) for queue in self._queues]

    # -- the scheduling decisions ------------------------------------------------

    def next_cube(self, worker: int) -> Optional[Dict[str, str]]:
        """Pop the next cube for ``worker`` — own head first, then steal.

        The owner consumes the head of its deque (the fattest remaining
        region under the current archive); an idle worker steals from
        the *tail* of the busiest victim (deepest deque, lowest id on
        ties).  Returns ``None`` when every deque is empty.
        """
        self._refresh(worker)
        queue = self._queues[worker]
        if queue:
            return queue.pop(0).bindings
        victim = self._pick_victim(worker)
        if victim is None:
            return None
        self._refresh(victim)
        stolen = self._queues[victim].pop()
        self.steals[worker] += 1
        return stolen.bindings

    def _pick_victim(self, thief: int) -> Optional[int]:
        candidates = [
            worker
            for worker in range(self.jobs)
            if worker != thief and self._queues[worker]
        ]
        if not candidates:
            return None
        return max(candidates, key=lambda w: (len(self._queues[w]), -w))

    def splittable(self, bindings: Dict[str, str]) -> bool:
        """Whether a cube has an unpinned branching task left."""
        return any(task not in bindings for task, _options in self._choices)

    def resplit(self, worker: int, bindings: Dict[str, str]) -> int:
        """Split an over-budget cube one binding level deeper.

        The children (one per mapping option of the first unpinned
        branching task) partition the abandoned cube exactly, so
        exploring them instead of their parent preserves exactness.
        They enter the abandoning worker's own deque — idle workers pick
        them up through the regular stealing path.  Returns the number
        of children enqueued; 0 when the cube has no binding level left
        (the caller must then finish the cube itself).
        """
        for task, options in self._choices:
            if task not in bindings:
                children = []
                for option in options:
                    child = dict(bindings)
                    child[task] = option
                    children.append(self._make(child))
                self._queues[worker].extend(children)
                self._sorted_revision[worker] = -1
                self.resplits += 1
                return len(children)
        return 0

    def halt(self, worker: int) -> None:
        """Mark ``worker`` done (budget spent or finished): no more points."""
        self.halted.add(worker)

    # -- archive feedback --------------------------------------------------------

    def publish(self, worker: int, batch: Sequence[Tuple[int, ...]]) -> int:
        """Relay ``worker``'s new points; returns the batch's wire size.

        The points feed the priorities (:meth:`observe`) and
        ``on_points``; with ``share_archive`` they are queued for every
        other worker that has not halted.  The wire size is the batch's
        as an :class:`ArchiveDelta`, 0 with one worker (no one to
        publish to).
        """
        self.observe(batch)
        if self.on_points is not None:
            self.on_points(list(batch))
        if self.share_archive:
            for other in range(self.jobs):
                if other != worker and other not in self.halted:
                    self._foreign[other].extend(batch)
        if self.jobs == 1:
            return 0
        return len(ArchiveDelta(batch).to_bytes())

    def foreign(self, worker: int) -> List[Tuple[int, ...]]:
        """Return and clear the points queued for ``worker``."""
        points, self._foreign[worker] = self._foreign[worker], []
        return points

    def observe(self, vectors: Iterable[Sequence[int]]) -> None:
        """Fold freshly published points into the priority archive.

        The scheduler keeps its own non-dominated view purely for
        hypervolume priorities; the revision bump makes every queue
        re-sort lazily on its next access.
        """
        if not self._profiles:
            return
        changed = False
        for vector in vectors:
            vector = tuple(vector)
            if any(weakly_dominates(point, vector) for point in self._archive):
                continue
            self._archive = [
                point
                for point in self._archive
                if not dominates(vector, point)
            ]
            self._archive.append(vector)
            changed = True
        if changed:
            self._archive.sort()
            self._revision += 1
