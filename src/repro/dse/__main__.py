"""CLI: run the exact multi-objective DSE on an instance.

Usage::

    python -m repro.dse --tasks 8 --seed 1 --platform mesh --size 3x2
    python -m repro.dse --spec my_instance.json --objectives latency,energy
    python -m repro.dse --tasks 6 --epsilon 2 --archive quadtree
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.bench.render import render_table
from repro.dse.explorer import pin_symmetry
from repro.dse.parallel import ParallelParetoExplorer
from repro.dse.scheduler import DEFAULT_RESPLIT_CONFLICTS
from repro.synthesis.encoding import encode
from repro.synthesis.io import load_specification
from repro.workloads import WorkloadConfig, generate_specification


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.dse", description=__doc__)
    source = parser.add_argument_group("instance")
    source.add_argument("--spec", help="JSON specification file")
    source.add_argument("--tasks", type=int, default=6, help="generator: #tasks")
    source.add_argument("--seed", type=int, default=0, help="generator seed")
    source.add_argument(
        "--fuzz-replay",
        type=int,
        default=None,
        metavar="SEED",
        help="rebuild the fuzzer's spec input for SEED (from a "
        "'python -m repro.fuzz' finding's seed line) and explore it; "
        "overrides --spec/--tasks/--objectives/--latency-bound",
    )
    source.add_argument(
        "--platform", choices=("mesh", "bus", "ring"), default="mesh"
    )
    source.add_argument("--size", default="2x2", help="mesh COLSxROWS or node count")

    options = parser.add_argument_group("exploration")
    options.add_argument(
        "--objectives",
        default="latency,energy,cost",
        help="comma-separated subset of latency,energy,cost",
    )
    options.add_argument("--epsilon", type=int, default=0, help="approximation factor")
    options.add_argument("--archive", choices=("list", "quadtree"), default="list")
    options.add_argument(
        "--budget", type=int, default=None, help="conflict budget per worker"
    )
    options.add_argument(
        "--latency-bound", type=int, default=None, help="hard deadline"
    )
    options.add_argument(
        "--serialize", action="store_true", help="serialize shared resources"
    )
    options.add_argument(
        "--heuristics", action="store_true", help="objective-aware decision phases"
    )
    options.add_argument(
        "--output", default=None, help="write the front as JSON to this file"
    )
    options.add_argument(
        "--lint",
        action="store_true",
        help="validate the spec and lint the encoding before exploring "
        "(exit 1 on error-severity diagnostics)",
    )
    options.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="lint diagnostic output format (with --lint)",
    )
    options.add_argument(
        "--pin",
        action="append",
        default=[],
        metavar="TASK=RESOURCE",
        help="pin a task to a resource (repeatable; what-if exploration)",
    )
    options.add_argument(
        "--symmetry",
        choices=("auto", "off"),
        default="auto",
        help="lex-leader platform symmetry breaking: auto = apply when the "
        "platform has non-trivial automorphisms (default; declined under "
        "--pin), off = never (the front of vectors is identical either "
        "way; see docs/SYMMETRY.md)",
    )

    par = parser.add_argument_group("parallel exploration")
    par.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker count; >1 splits the design space into cubes",
    )
    par.add_argument(
        "--split-depth",
        type=int,
        default=None,
        help="binding decisions to split on (default: derived from --jobs)",
    )
    par.add_argument(
        "--chunk-conflicts",
        type=int,
        default=None,
        help="conflicts per solver call between archive syncs (default: "
        "200 with several workers, unchunked with one)",
    )
    par.add_argument(
        "--no-share",
        action="store_true",
        help="isolate worker archives (ablation; front stays exact)",
    )
    par.add_argument(
        "--backend",
        choices=("process", "inline"),
        default="process",
        help="parallel backend (inline = deterministic in-process)",
    )
    par.add_argument(
        "--resplit-budget",
        type=int,
        default=DEFAULT_RESPLIT_CONFLICTS,
        metavar="CONFLICTS",
        help="conflicts a cube may burn before it is split one binding "
        "level deeper (several workers; 0 disables re-splitting)",
    )
    args = parser.parse_args(argv)

    if args.fuzz_replay is not None:
        from repro.fuzz.generators import generate_spec

        fuzz_input = generate_spec(args.fuzz_replay)
        spec = fuzz_input.specification
        args.objectives = ",".join(fuzz_input.objectives)
        args.latency_bound = fuzz_input.latency_bound
        print(
            f"fuzz replay: seed {args.fuzz_replay}, "
            f"notes: {', '.join(fuzz_input.notes) or 'none'}"
        )
    elif args.spec:
        spec = load_specification(args.spec)
    else:
        if args.platform == "mesh":
            cols, _, rows = args.size.partition("x")
            size = (int(cols), int(rows or cols))
        else:
            size = (int(args.size.split("x")[0]), 0)
        spec = generate_specification(
            WorkloadConfig(
                tasks=args.tasks,
                seed=args.seed,
                platform=args.platform,
                platform_size=size,
            )
        )

    print("instance:", spec.summary())
    pins = {}
    for entry in args.pin:
        task, _, resource = entry.partition("=")
        if not task or not resource:
            parser.error(f"malformed --pin {entry!r}")
        pins[task] = resource
    symmetry = pin_symmetry(args.symmetry, pins)
    if symmetry != args.symmetry:
        print("symmetry: declined (pinned bindings)")
    objectives = tuple(name.strip() for name in args.objectives.split(","))
    instance = encode(
        spec,
        objectives=objectives,
        serialize=args.serialize,
        latency_bound=args.latency_bound,
        symmetry=symmetry,
    )
    lint_report = None
    if args.lint:
        from repro.analysis import lint_instance

        lint_report = lint_instance(instance)
        if lint_report.diagnostics or args.format == "json":
            print(lint_report.render(args.format))
        if lint_report.errors:
            print(f"lint: {lint_report.errors} error(s), aborting")
            return 1
    chunk = {"chunk_conflicts": args.chunk_conflicts} if args.chunk_conflicts else {}
    result = ParallelParetoExplorer(
        instance,
        jobs=max(args.jobs, 1),
        split_depth=args.split_depth,
        backend=args.backend,
        resplit_conflicts=args.resplit_budget or None,
        share_archive=not args.no_share,
        conflict_limit=args.budget,
        fixed_bindings=pins,
        archive=args.archive,
        epsilon=args.epsilon,
        objective_phases=args.heuristics,
        **chunk,
    ).run()
    stats = result.statistics

    rows = []
    for point in result.front:
        row = dict(zip(result.objectives, point.vector))
        row["binding"] = ", ".join(
            f"{t}:{r}" for t, r in sorted(point.implementation.binding.items())
        )
        rows.append(row)
    title = (
        f"{'Exact' if args.epsilon == 0 else f'{args.epsilon}-approximate'} "
        f"Pareto front ({len(rows)} points)"
    )
    print()
    print(render_table(title, list(result.objectives) + ["binding"], rows))
    print(
        f"\n{stats.models_enumerated} models, {stats.conflicts} conflicts, "
        f"{stats.pruned_partial}+{stats.pruned_total} prunings, "
        f"{stats.wall_time:.2f}s"
        + (", INTERRUPTED (budget)" if stats.interrupted else "")
    )
    print(
        f"grounding: {stats.grounds} ground(s), {stats.grounding_seconds:.3f}s, "
        f"{stats.instantiations} instantiations, {stats.delta_rounds} delta rounds"
        + (", cache hit" if stats.ground_cache_hit else "")
    )
    print(
        f"solver: {stats.propagations} propagations, {stats.restarts} restarts, "
        f"{stats.clause_db_bytes} clause db bytes"
    )
    if instance.symmetry is not None:
        info = instance.symmetry
        if info.applied:
            print(
                f"symmetry: group order {info.order}, {info.generators} "
                f"generator(s), {info.orbits} non-trivial orbit(s), "
                f"{info.constraints} lex-leader constraint(s), "
                f"{info.seconds:.3f}s"
            )
        else:
            print(f"symmetry: declined ({info.declined})")
    if lint_report is not None:
        print(
            f"lint: {lint_report.errors} error(s), {lint_report.warnings} "
            f"warning(s), {lint_report.infos} info(s), "
            f"{lint_report.seconds:.3f}s"
        )
    if len(stats.per_worker) > 1:
        print(
            f"scheduler: stealing, {stats.cubes_executed} cubes "
            f"executed, {stats.steals} steals, {stats.resplits} resplits, "
            f"{stats.archive_delta_bytes} delta bytes, "
            f"{stats.archive_dedup_skips} dedup skips"
        )
        for worker in stats.per_worker:
            print(
                f"  worker {worker['worker']}: {worker['cubes']} cubes, "
                f"{worker['steals']} steals, "
                f"{worker['models_enumerated']} models, "
                f"{worker['conflicts']} conflicts, "
                f"{worker['injected']} foreign points, "
                f"{worker['delta_bytes']} delta bytes, "
                f"{worker['wall_time']:.2f}s"
            )
    if args.output:
        result.save(args.output)
        print(f"front written to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
