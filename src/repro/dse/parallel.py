"""Parallel exact Pareto enumeration: subspace splitting + shared archive.

The sequential :class:`~repro.dse.explorer.ExactParetoExplorer` already
enumerates the exact front; it is the one-worker, one-cube case of the
exploration loop this module scales out.  The design space is split
into disjoint subspaces explored by cooperating workers:

1. **Guiding-path partition** — the encoding introduces an exactly-one
   ``bind(T, R)`` choice per task, so fixing the bindings of the first
   ``k`` branching tasks yields a partition of the design space into
   disjoint *cubes* (:func:`derive_cubes`).  Every implementation lies in
   exactly one cube, hence the union of the per-cube Pareto fronts,
   filtered for dominance (:func:`~repro.dse.pareto.non_dominated_union`),
   is the exact global front regardless of how cubes are distributed.

2. **Elastic scheduling** — cubes live in per-worker deques managed by
   :class:`~repro.dse.scheduler.CubeScheduler`: idle workers steal from
   the busiest deque, queues are ordered by estimated hypervolume
   contribution against the current archive, and cubes that exceed a
   conflict budget are split one binding level deeper and re-queued.

3. **Workers** — each worker is an :class:`ExactParetoExplorer` that
   reuses the parent's ground program and explores the cubes it is
   handed through assumption-based incremental solving; learned clauses,
   dominance-pruning clauses, and the Pareto archive all remain sound
   across cubes because they are consequences of the (cube independent)
   program plus archive points.

4. **Archive deltas** — workers publish incremental batches of new
   non-dominated points (:class:`~repro.dse.scheduler.ArchiveDelta`, a
   compact struct-packed vector batch); foreign deltas are injected into
   the local :class:`~repro.dse.explorer.DominancePropagator` archive
   between solver calls, after an O(1) hash dedup of vectors the worker
   has already seen.  Injection can only *prune*: a partial assignment
   is cut exactly when an archive point weakly dominates its objective
   lower bound, and archive points are objective vectors of feasible
   implementations, so anything pruned is weakly dominated globally and
   cannot contribute a new front vector.  Because weak dominance
   includes equality, a worker whose candidate ties a foreign vector
   skips a duplicate, never a missing vector.  Solving is *chunked* by a
   per-call conflict budget so workers deep in an UNSAT proof still
   synchronize.

Exactness therefore does not depend on scheduling: stealing, priority
reordering, re-splitting, and delta injection may only change *when*
pruning happens, never *what* the merged front contains, so the merged
front is bit-for-bit the sequential front for any worker count, split
depth, re-split budget, or interleaving (property-tested in
``tests/test_parallel.py``; exactness argument in ``docs/PARALLEL.md``).
"""

from __future__ import annotations

import queue
import traceback
from itertools import product
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.asp.control import Control
from repro.asp.ground import GroundProgram
from repro.dse.explorer import (
    DseResult,
    ExactParetoExplorer,
    check_pins,
    drive,
    merge_run,
)
from repro.dse.scheduler import (
    ArchiveDelta,
    CubeScheduler,
    DEFAULT_RESPLIT_CONFLICTS,
    MAX_STEALING_CUBES,
    TARGET_CUBE_FACTOR,
)
from repro.synthesis.encoding import EncodedInstance
from repro.synthesis.model import Specification

__all__ = [
    "binding_choices",
    "auto_split_depth",
    "derive_cubes",
    "ParallelParetoExplorer",
]

#: Default per-solver-call conflict budget of the workers of a
#: multi-worker run: how often they synchronize archives.
DEFAULT_CHUNK_CONFLICTS = 200


def binding_choices(
    spec: Specification, fixed_bindings: Optional[Dict[str, str]] = None
) -> List[Tuple[str, List[str]]]:
    """Splittable binding decisions as ``(task, resource options)`` pairs.

    Mirrors the encoding's exactly-one ``bind/2`` choice rules, in task
    declaration order; pinned tasks (``fixed_bindings``) and tasks with a
    single mapping option carry no branching and are skipped.
    """
    pinned = frozenset(fixed_bindings or ())
    choices: List[Tuple[str, List[str]]] = []
    for task in spec.application.tasks:
        if task.name in pinned:
            continue
        options = [option.resource for option in spec.options_of(task.name)]
        if len(options) > 1:
            choices.append((task.name, options))
    return choices


def auto_split_depth(
    spec: Specification,
    jobs: int,
    fixed_bindings: Optional[Dict[str, str]] = None,
) -> int:
    """Split depth derived from the worker count.

    One job needs no split (depth 0: the root cube).  Otherwise the
    depth targets ``TARGET_CUBE_FACTOR * jobs`` cubes: the deques must
    stay deep enough to steal from and to re-order as archive deltas
    arrive, and fine cubes keep the critical path short.  The count is
    capped at ``MAX_STEALING_CUBES`` — the ground program is shared, but
    every cube still costs a dispatch round-trip and an
    assumption-based solver restart, so past the cap the scheduling
    overhead rivals what the shared grounding saved (a cube over-running
    its budget is re-split adaptively anyway).
    """
    if jobs <= 1:
        return 0
    target = TARGET_CUBE_FACTOR * jobs
    cubes = 1
    choices = binding_choices(spec, fixed_bindings)
    for depth, (_task, options) in enumerate(choices, start=1):
        if cubes * len(options) > MAX_STEALING_CUBES:
            return depth - 1
        cubes *= len(options)
        if cubes >= target:
            return depth
    return len(choices)


def derive_cubes(
    spec: Specification,
    depth: int,
    fixed_bindings: Optional[Dict[str, str]] = None,
) -> List[Dict[str, str]]:
    """Disjoint guiding-path cubes over the first ``depth`` binding choices.

    Each cube is a ``task -> resource`` dict extending ``fixed_bindings``.
    Because every task's binding choice is exactly-one, the cubes of a
    given depth partition the design space (restricted to the pinned
    bindings): each implementation satisfies exactly one cube.  Depth 0
    (or no branching tasks) yields the single cube ``fixed_bindings``.
    """
    base = dict(fixed_bindings or {})
    choices = binding_choices(spec, fixed_bindings)[: max(depth, 0)]
    if not choices:
        return [base]
    tasks = [task for task, _options in choices]
    cubes: List[Dict[str, str]] = []
    for combo in product(*(options for _task, options in choices)):
        cube = dict(base)
        cube.update(zip(tasks, combo))
        cubes.append(cube)
    return cubes


class _RemoteScheduler:
    """A process worker's view of the parent's :class:`CubeScheduler`.

    It implements the calls :func:`~repro.dse.explorer.drive` makes on
    its scheduler over two queues; ``worker`` arguments are the loop's
    index of its one explorer and are not sent.  Worker to parent:

    * ``("next", wid)`` — idle; asks for a cube,
    * ``("delta", wid, blob)`` — publishes new points (an :class:`ArchiveDelta`),
    * ``("resplit", wid, cube)`` — hands an over-budget cube back,
    * ``("halt", wid)`` — the worker spent its conflict budget,
    * ``("done", wid, front, entry)`` — the loop ended; the worker's
      local front and ``per_worker`` entry,
    * ``("error", wid, traceback)`` — the worker failed.

    Parent to worker:

    * ``("cube", bindings)`` — the answer to ``next``,
    * ``("stop",)`` — the answer to ``next`` once no cube is left,
    * ``("delta", blob)`` — points other workers published,
    * ``("cancel",)`` — the run is cancelled.

    :meth:`next_cube` blocks until its answer arrives; :meth:`poll`, the
    loop's ``should_stop``, collects deltas and a cancel without blocking.
    """

    def __init__(self, wid: int, branch_tasks: Sequence[str], commands, results):
        self.wid = wid
        self.halted = set()
        self._branch_tasks = branch_tasks
        self._commands = commands
        self._results = results
        self._foreign: List[Tuple[int, ...]] = []
        self._ended: Optional[str] = None  # "stop" or "cancel"

    def _receive(self, command) -> None:
        if command[0] == "delta":
            self._foreign.extend(ArchiveDelta.from_bytes(command[1]))
        else:
            self._ended = command[0]

    def next_cube(self, worker: int) -> Optional[Dict[str, str]]:
        if self._ended is None:
            self._results.put(("next", self.wid))
        while self._ended is None:
            command = self._commands.get()
            if command[0] == "cube":
                return command[1]
            self._receive(command)
        return None

    def poll(self) -> bool:
        while True:
            try:
                self._receive(self._commands.get_nowait())
            except queue.Empty:
                return self._ended == "cancel"

    def foreign(self, worker: int) -> List[Tuple[int, ...]]:
        points, self._foreign = self._foreign, []
        return points

    def publish(self, worker: int, batch: Sequence[Tuple[int, ...]]) -> int:
        blob = ArchiveDelta(batch).to_bytes()
        self._results.put(("delta", self.wid, blob))
        return len(blob)

    def splittable(self, bindings: Dict[str, str]) -> bool:
        return any(task not in bindings for task in self._branch_tasks)

    def resplit(self, worker: int, bindings: Dict[str, str]) -> None:
        self._results.put(("resplit", self.wid, bindings))

    def halt(self, worker: int) -> None:
        self.halted.add(worker)
        self._results.put(("halt", self.wid))


def _worker_main(
    worker_id: int,
    instance: EncodedInstance,
    explorer_options: Dict[str, object],
    resplit_conflicts: Optional[int],
    branch_tasks: Sequence[str],
    command_queue,
    result_queue,
    ground_program: GroundProgram,
) -> None:
    """Process entry point: the exploration loop against the parent."""
    try:
        explorer = ExactParetoExplorer(
            instance, ground_program=ground_program, **explorer_options
        )
        remote = _RemoteScheduler(
            worker_id, branch_tasks, command_queue, result_queue
        )
        drive([explorer], remote, resplit_conflicts, remote.poll)
        result_queue.put(
            ("done", worker_id, explorer.local_front(), explorer.report(worker_id))
        )
    except Exception:  # surfaced in the parent as a RuntimeError
        result_queue.put(("error", worker_id, traceback.format_exc()))


class ParallelParetoExplorer:
    """Exact Pareto enumeration over elastically scheduled workers.

    Produces the same front as :class:`ExactParetoExplorer` — identical
    vectors and count — for every ``jobs``/``split_depth`` combination
    (witness implementations per vector may differ, as in any exact
    enumerator).  One job *is* the sequential explorer: it explores the
    root cube in-process with no split and no re-splits, because one
    worker has no one to hand work to.  Several jobs run the loop a
    sequential run uses (:func:`~repro.dse.explorer.drive`) against one
    :class:`~repro.dse.scheduler.CubeScheduler`, on one of two backends:

    * ``"process"`` (default) — one OS process per worker
      (``multiprocessing``), each running the loop with its one
      explorer; the parent serves the scheduler over queues;
    * ``"inline"`` — one loop steps every worker round-robin in-process;
      deterministic, for debugging and reproducible tests.

    Idle workers steal cubes from the busiest deque, queues follow the
    hypervolume priorities, and a cube re-splits after
    ``resplit_conflicts`` conflicts (``None`` disables re-splitting).

    ``share_archive=False`` isolates the workers' archives (merge still
    restores exactness); the ablation benchmark uses it to measure how
    much cross-worker pruning saves.  Remaining keyword arguments
    configure each worker's :class:`ExactParetoExplorer` (``archive``,
    ``partial_pruning``, ``conflict_limit``, ...).  ``conflict_limit``
    caps each worker's conflicts.  The workers of a multi-worker run
    default to ``chunk_conflicts=DEFAULT_CHUNK_CONFLICTS`` so they
    synchronize archives mid-proof; a lone worker runs unchunked unless
    a chunk size is given.  ``epsilon > 0`` is forwarded too, but only
    ``epsilon=0`` guarantees a bit-identical front; the parallel epsilon
    front is still a valid additive-epsilon approximation (see
    ``docs/PARALLEL.md``).
    """

    def __init__(
        self,
        instance: EncodedInstance,
        jobs: int = 2,
        split_depth: Optional[int] = None,
        backend: str = "process",
        resplit_conflicts: Optional[int] = DEFAULT_RESPLIT_CONFLICTS,
        share_archive: bool = True,
        fixed_bindings: Optional[Dict[str, str]] = None,
        **explorer_options,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if backend not in ("process", "inline"):
            raise ValueError(f"unknown backend {backend!r}")
        self.instance = instance
        self.jobs = jobs
        self.split_depth = split_depth
        self.backend = backend
        self.resplit_conflicts = resplit_conflicts
        self.share_archive = share_archive
        self.fixed_bindings = dict(fixed_bindings or {})
        check_pins(instance, self.fixed_bindings)
        self.explorer_options = dict(explorer_options)

    def cubes(self) -> List[Dict[str, str]]:
        """The guiding-path cubes this run initially partitions into."""
        spec = self.instance.specification
        depth = self.split_depth
        if depth is None:
            depth = auto_split_depth(spec, self.jobs, self.fixed_bindings)
        return derive_cubes(spec, depth, self.fixed_bindings)

    def run(self, on_points=None, should_stop=None) -> DseResult:
        """Run the exploration; returns the merged exact front.

        ``on_points`` is the anytime snapshot hook of the serving
        layer: it is called (in the coordinating process) with every
        batch of objective vectors a worker publishes.
        ``should_stop`` is polled between scheduling steps; returning a
        truthy value cancels the run cooperatively — workers abandon
        their cubes within one solver call, partial fronts are merged,
        and the result reports ``interrupted=True``.
        """
        cubes = self.cubes() if self.jobs > 1 else []
        jobs = min(self.jobs, len(cubes))
        if jobs <= 1:
            return ExactParetoExplorer(
                self.instance,
                fixed_bindings=self.fixed_bindings,
                **self.explorer_options,
            ).run(on_points=on_points, should_stop=should_stop)
        started = perf_counter()
        options = dict(self.explorer_options)
        options.setdefault("chunk_conflicts", DEFAULT_CHUNK_CONFLICTS)
        choices = binding_choices(self.instance.specification, self.fixed_bindings)
        scheduler = CubeScheduler(
            cubes,
            jobs,
            choices=choices,
            objectives=self.instance.objectives,
            share_archive=self.share_archive,
            on_points=on_points,
        )
        # The one grounding step: the workers reuse the artifact instead
        # of re-instantiating the same program each.
        grounder = Control()
        self.instance.add_to(grounder)
        ground = grounder.instantiate()
        if self.backend == "inline":
            workers = [
                ExactParetoExplorer(self.instance, ground_program=ground, **options)
                for _worker in range(jobs)
            ]
            cancelled = drive(
                workers, scheduler, self.resplit_conflicts, should_stop
            )
            reports = [
                (worker.local_front(), worker.report(wid))
                for wid, worker in enumerate(workers)
            ]
        else:
            branch_tasks = tuple(task for task, _options in choices)
            cancelled, reports = self._run_processes(
                scheduler, jobs, ground, options, branch_tasks, should_stop
            )
        return merge_run(
            self.instance,
            grounder,
            scheduler,
            reports,
            cancelled,
            perf_counter() - started,
            int(options.get("epsilon") or 0),
        )

    def _run_processes(
        self,
        scheduler: CubeScheduler,
        jobs: int,
        ground: GroundProgram,
        options: Dict[str, object],
        branch_tasks: Tuple[str, ...],
        should_stop=None,
    ):
        """One process per worker; the parent serves the scheduler.

        Each worker runs :func:`~repro.dse.explorer.drive` against a
        :class:`_RemoteScheduler`, whose docstring lists the messages.
        A worker that asks for a cube and gets none is parked; once every
        worker is parked or halted, the parked ones are stopped.  Returns
        ``(cancelled, reports)`` with reports in worker order.
        """
        import multiprocessing

        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        result_queue = context.Queue()
        command_queues = [context.Queue() for _worker in range(jobs)]
        # Every worker reuses the parent's ground program instead of
        # grounding the instance again: a forked worker inherits it, a
        # spawned one unpickles it.
        processes = [
            context.Process(
                target=_worker_main,
                args=(
                    wid,
                    self.instance,
                    options,
                    self.resplit_conflicts,
                    branch_tasks,
                    command_queues[wid],
                    result_queue,
                    ground,
                ),
                daemon=True,
            )
            for wid in range(jobs)
        ]
        for process in processes:
            process.start()

        reports: Dict[int, Tuple[list, Dict[str, object]]] = {}
        parked: List[int] = []
        cancelled = False
        try:
            while len(reports) < jobs:
                if not cancelled and should_stop is not None and should_stop():
                    cancelled = True
                    parked.clear()  # every worker ends on its ("cancel",)
                    for wid in range(jobs):
                        if wid not in reports:
                            command_queues[wid].put(("cancel",))
                try:
                    timeout = 0.1 if should_stop is not None else 1.0
                    message = result_queue.get(timeout=timeout)
                except queue.Empty:
                    for wid, process in enumerate(processes):
                        if wid not in reports and not process.is_alive():
                            raise RuntimeError(
                                f"parallel DSE worker {wid} died "
                                f"(exit code {process.exitcode})"
                            )
                    continue
                kind, wid = message[0], message[1]
                if kind == "next":
                    if not cancelled:
                        # The asking worker first, then the other parked
                        # ones (a re-split may have refilled the deques).
                        parked.insert(0, wid)
                        for waiting in list(parked):
                            cube = scheduler.next_cube(waiting)
                            if cube is not None:
                                parked.remove(waiting)
                                command_queues[waiting].put(("cube", cube))
                elif kind == "delta":
                    vectors = ArchiveDelta.from_bytes(message[2]).vectors
                    scheduler.publish(wid, vectors)
                    for other in range(jobs):
                        points = scheduler.foreign(other)
                        if points and not cancelled:
                            blob = ArchiveDelta(points).to_bytes()
                            command_queues[other].put(("delta", blob))
                elif kind == "resplit":
                    scheduler.resplit(wid, message[2])
                elif kind in ("halt", "done"):
                    scheduler.halt(wid)
                    if kind == "done":
                        reports[wid] = (message[2], message[3])
                else:  # "error"
                    raise RuntimeError(
                        f"parallel DSE worker {wid} failed:\n{message[2]}"
                    )
                if parked and all(
                    w in parked or w in scheduler.halted for w in range(jobs)
                ):
                    for waiting in parked:
                        command_queues[waiting].put(("stop",))
                    parked.clear()
        finally:
            for process in processes:
                if process.is_alive():
                    process.terminate()
            for process in processes:
                process.join()
            for q in [result_queue, *command_queues]:
                q.close()
                q.cancel_join_thread()
        return cancelled, [reports[wid] for wid in sorted(reports)]
