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
    DELTA_BATCH,
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


def _worker_main(
    worker_id: int,
    instance: EncodedInstance,
    explorer_options: Dict[str, object],
    resplit_conflicts: Optional[int],
    branch_tasks: Sequence[str],
    share: bool,
    command_queue,
    result_queue,
    ground_blob: bytes,
) -> None:
    """Process entry point: execute cubes the parent hands over.

    Commands: ``("cube", bindings)`` begins a cube, ``("delta", blob)``
    injects a foreign archive delta, ``("cancel",)`` abandons the
    current cube and ends the loop (cooperative cancellation),
    ``("stop",)`` ends the loop once the current cube finishes.
    Results: ``("delta", wid, blob)`` publishes new points,
    ``("next", wid)`` requests another cube, ``("resplit", wid, cube)``
    hands an over-budget cube back, ``("halt", wid)`` reports an
    exhausted conflict budget, ``("done", wid, front, entry)`` closes
    the worker with its local front and ``per_worker`` entry.
    """
    try:
        explorer = ExactParetoExplorer(
            instance,
            ground_program=GroundProgram.from_bytes(ground_blob),
            **explorer_options,
        )
        buffer: List[Tuple[int, ...]] = []
        stopping = False

        def flush() -> None:
            if buffer:
                blob = ArchiveDelta(buffer).to_bytes()
                explorer.delta_bytes += len(blob)
                result_queue.put(("delta", worker_id, blob))
                del buffer[:]

        while True:
            block = explorer.current is None and not stopping
            while True:
                try:
                    if block:
                        command = command_queue.get(timeout=0.05)
                        block = False
                    else:
                        command = command_queue.get_nowait()
                except queue.Empty:
                    break
                kind = command[0]
                if kind == "cube":
                    explorer.begin(command[1])
                elif kind == "delta":
                    if share:
                        explorer.inject_points(
                            (vector, None)
                            for vector in ArchiveDelta.from_bytes(command[1])
                        )
                elif kind == "cancel":
                    # Its points so far are already flushed or buffered.
                    explorer.cancel()
                    stopping = True
                else:  # "stop"
                    stopping = True
            if explorer.current is None:
                if stopping:
                    break
                continue
            status, point = explorer.step()
            if status == "model":
                buffer.append(point.vector)
                if len(buffer) < DELTA_BATCH:
                    continue
            flush()
            if status == "cube_done":
                result_queue.put(("next", worker_id))
            elif status == "halt":
                result_queue.put(("halt", worker_id))
            elif (
                status == "chunk"
                and resplit_conflicts
                and explorer.cube_conflicts() >= resplit_conflicts
                and any(task not in explorer.current for task in branch_tasks)
            ):
                result_queue.put(("resplit", worker_id, explorer.abandon()))
        flush()
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
    worker has no one to hand work to.  Several jobs run on one of two
    backends:

    * ``"process"`` (default) — one OS process per worker
      (``multiprocessing``); the parent hosts the cube scheduler and
      brokers cube dispatch and archive deltas over queues;
    * ``"inline"`` — deterministic in-process round-robin over the same
      workers and the same scheduler (:func:`~repro.dse.explorer.drive`,
      the loop a sequential run uses); useful for debugging and
      reproducible tests.

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
        layer: it is called (in the coordinating process/loop) with
        every batch of newly published objective vectors, i.e. exactly
        the :class:`ArchiveDelta` increments the workers exchange.
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
            cubes, jobs, choices=choices, objectives=self.instance.objectives
        )
        # The one grounding step: the workers reuse the artifact instead
        # of re-instantiating the same program each.
        grounder = Control()
        for part in self.instance.parts:
            grounder.add(part)
        ground = grounder.instantiate()
        if self.backend == "inline":
            workers = [
                ExactParetoExplorer(self.instance, ground_program=ground, **options)
                for _worker in range(jobs)
            ]
            cancelled = drive(
                workers,
                scheduler,
                self.share_archive,
                self.resplit_conflicts,
                on_points,
                should_stop,
            )
            reports = [
                (worker.local_front(), worker.report(wid))
                for wid, worker in enumerate(workers)
            ]
        else:
            branch_tasks = tuple(task for task, _options in choices)
            cancelled, reports = self._run_processes(
                scheduler, jobs, ground, options, branch_tasks, on_points, should_stop
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
        on_points=None,
        should_stop=None,
    ):
        """One process per worker; the parent schedules and brokers.

        Returns ``(cancelled, reports)`` with reports in worker order.
        """
        import multiprocessing

        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        result_queue = context.Queue()
        command_queues = [context.Queue() for _worker in range(jobs)]
        # Serialized once here; every worker deserializes the same blob
        # instead of grounding the instance again.
        ground_blob = ground.to_bytes()
        processes = [
            context.Process(
                target=_worker_main,
                args=(
                    wid,
                    self.instance,
                    options,
                    self.resplit_conflicts,
                    branch_tasks,
                    self.share_archive,
                    command_queues[wid],
                    result_queue,
                    ground_blob,
                ),
                daemon=True,
            )
            for wid in range(jobs)
        ]
        for process in processes:
            process.start()

        pending = set(range(jobs))
        reports: Dict[int, Tuple[list, Dict[str, object]]] = {}
        executing = [False] * jobs
        waiting = set()
        stopped = set()
        halted = set()
        cancelled = False

        def dispatch(wid: int) -> None:
            if wid in stopped:
                return
            cube = scheduler.next_cube(wid)
            if cube is not None:
                command_queues[wid].put(("cube", cube))
                executing[wid] = True
            else:
                waiting.add(wid)

        def fill_waiting() -> None:
            # Re-splits refill the deques after workers went idle; hand
            # the new cubes out instead of letting them starve.
            for wid in sorted(waiting):
                if scheduler.outstanding() == 0:
                    break
                waiting.discard(wid)
                dispatch(wid)

        def maybe_stop() -> None:
            if any(executing):
                return
            active = [wid for wid in range(jobs) if wid not in halted]
            if scheduler.outstanding() and active:
                return
            for wid in range(jobs):
                if wid not in stopped:
                    command_queues[wid].put(("stop",))
                    stopped.add(wid)

        for wid in range(jobs):
            dispatch(wid)
        maybe_stop()
        try:
            while pending:
                if not cancelled and should_stop is not None and should_stop():
                    cancelled = True
                    for wid in range(jobs):
                        if wid not in stopped:
                            command_queues[wid].put(("cancel",))
                            stopped.add(wid)
                try:
                    timeout = 0.1 if should_stop is not None else 1.0
                    message = result_queue.get(timeout=timeout)
                except queue.Empty:
                    for wid in pending:
                        if not processes[wid].is_alive():
                            raise RuntimeError(
                                f"parallel DSE worker {wid} died "
                                f"(exit code {processes[wid].exitcode})"
                            )
                    continue
                kind, wid = message[0], message[1]
                if kind == "delta":
                    blob = message[2]
                    vectors = ArchiveDelta.from_bytes(blob).vectors
                    scheduler.observe(vectors)
                    if on_points is not None:
                        on_points(list(vectors))
                    if self.share_archive and not cancelled:
                        for other in pending:
                            if other != wid and other not in stopped:
                                command_queues[other].put(("delta", blob))
                    # Fresh priorities may not add cubes, so no refill.
                elif kind == "next":
                    executing[wid] = False
                    dispatch(wid)
                    fill_waiting()
                    maybe_stop()
                elif kind == "resplit":
                    executing[wid] = False
                    if not cancelled:  # else the worker is winding down
                        scheduler.resplit(wid, message[2])
                        dispatch(wid)
                    fill_waiting()
                    maybe_stop()
                elif kind == "halt":
                    executing[wid] = False
                    halted.add(wid)
                    command_queues[wid].put(("stop",))
                    stopped.add(wid)
                    fill_waiting()
                    maybe_stop()
                elif kind == "done":
                    reports[wid] = (message[2], message[3])
                    pending.discard(wid)
                else:  # "error"
                    raise RuntimeError(
                        f"parallel DSE worker {wid} failed:\n{message[2]}"
                    )
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
