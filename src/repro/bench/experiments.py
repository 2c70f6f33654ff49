"""The experiments behind every table and figure (see DESIGN.md).

Every function is pure computation over the seeded workloads: it returns
``(columns, rows)`` or series dictionaries that the CLI renders and the
pytest benchmarks time.  Budgets (``conflict_limit``) substitute for the
paper's wall-clock timeouts so results are hardware-independent.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.baselines import (
    epsilon_constraint_front,
    exhaustive_front,
    nsga2_front,
    solution_level_front,
)
from repro.dse.explorer import ExactParetoExplorer
from repro.dse.pareto import ListArchive
from repro.dse.quadtree import QuadTreeArchive
from repro.synthesis.encoding import encode
from repro.workloads import WorkloadConfig, generate_specification, suite

__all__ = [
    "table1_instances",
    "table2_dse",
    "table3_curated",
    "fig1_front",
    "fig2_scaling",
    "fig3_pruning_ablation",
    "fig4_archive_ablation",
    "fig5_approximation",
    "fig6_heuristics",
    "fig7_routing",
    "fig8_solver_ablation",
    "fig9_contention",
    "fig10_parallel",
]

Rows = List[Dict[str, object]]

#: Default per-run conflict budget (stands in for the paper's timeout).
DEFAULT_BUDGET = 20_000


def table1_instances(suites: Sequence[str] = ("small", "medium")) -> Tuple[List[str], Rows]:
    """Table I: benchmark instance characteristics."""
    columns = [
        "instance",
        "tasks",
        "messages",
        "resources",
        "links",
        "mapping_options",
        "binding_space",
        "horizon",
    ]
    rows: Rows = []
    for name in suites:
        for instance in suite(name):
            summary = instance.specification.summary()
            summary["instance"] = instance.name
            summary["horizon"] = instance.specification.horizon()
            rows.append(summary)
    return columns, rows


def table2_dse(
    suites: Sequence[str] = ("small",),
    conflict_limit: Optional[int] = DEFAULT_BUDGET,
    objectives: Sequence[str] = ("latency", "energy", "cost"),
    methods: Sequence[str] = ("aspmt-dse", "solution-level", "epsilon"),
) -> Tuple[List[str], Rows]:
    """Table II: exact multi-objective DSE, proposed vs. baselines."""
    columns = [
        "instance",
        "method",
        "pareto",
        "models",
        "solves",
        "conflicts",
        "time_s",
        "exact",
    ]
    rows: Rows = []
    for suite_name in suites:
        for instance in suite(suite_name):
            spec = instance.specification
            encoded = encode(spec, objectives=objectives)
            if "aspmt-dse" in methods:
                explorer = ExactParetoExplorer(
                    encoded, conflict_limit=conflict_limit, validate_models=False
                )
                result = explorer.run()
                rows.append(
                    {
                        "instance": instance.name,
                        "method": "aspmt-dse",
                        "pareto": result.statistics.pareto_points,
                        "models": result.statistics.models_enumerated,
                        "solves": 1,
                        "conflicts": result.statistics.conflicts,
                        "time_s": result.statistics.wall_time,
                        "exact": not result.statistics.interrupted,
                    }
                )
            if "solution-level" in methods:
                baseline = solution_level_front(encoded, conflict_limit=conflict_limit)
                rows.append(_baseline_row(instance.name, baseline))
            if "epsilon" in methods:
                baseline = epsilon_constraint_front(
                    encoded, conflict_limit=conflict_limit
                )
                rows.append(_baseline_row(instance.name, baseline))
            if "exhaustive" in methods:
                baseline = exhaustive_front(encoded, conflict_limit=conflict_limit)
                rows.append(_baseline_row(instance.name, baseline))
    return columns, rows


def _baseline_row(instance_name: str, baseline) -> Dict[str, object]:
    return {
        "instance": instance_name,
        "method": baseline.method,
        "pareto": len(baseline.front),
        "models": baseline.models_enumerated,
        "solves": baseline.solver_calls,
        "conflicts": baseline.conflicts,
        "time_s": baseline.wall_time,
        "exact": baseline.exact,
    }


def table3_curated(
    conflict_limit: Optional[int] = DEFAULT_BUDGET,
) -> Tuple[List[str], Rows]:
    """Table III (extension): curated E3S-style domain instances.

    Exact fronts over the three realistic application domains, per
    objective pair — the 'does it work on something that looks like a
    product' table.
    """
    from repro.workloads.curated import curated_instances

    columns = [
        "instance",
        "objectives",
        "pareto",
        "models",
        "conflicts",
        "time_s",
        "exact",
    ]
    rows: Rows = []
    for instance in curated_instances():
        for objectives in (("latency", "cost"), ("latency", "energy", "cost")):
            encoded = encode(instance.specification, objectives=objectives)
            result = ExactParetoExplorer(
                encoded, conflict_limit=conflict_limit, validate_models=False
            ).run()
            stats = result.statistics
            rows.append(
                {
                    "instance": instance.name,
                    "objectives": "/".join(o[:3] for o in objectives),
                    "pareto": stats.pareto_points,
                    "models": stats.models_enumerated,
                    "conflicts": stats.conflicts,
                    "time_s": stats.wall_time,
                    "exact": not stats.interrupted,
                }
            )
    return columns, rows


def fig1_front(
    tasks: int = 8,
    seed: int = 1,
    objectives: Sequence[str] = ("latency", "energy"),
    conflict_limit: Optional[int] = DEFAULT_BUDGET,
) -> Dict[str, List[Tuple[int, ...]]]:
    """Fig. 1: exact front vs. the NSGA-II approximation (2-D projection)."""
    spec = generate_specification(
        WorkloadConfig(tasks=tasks, seed=seed, platform_size=(3, 2))
    )
    encoded = encode(spec, objectives=objectives)
    exact = ExactParetoExplorer(
        encoded, conflict_limit=conflict_limit, validate_models=False
    ).run()
    heuristic = nsga2_front(spec, objectives=objectives, generations=25, seed=seed)
    return {
        "exact": [tuple(v) for v in exact.vectors()],
        "nsga2": [tuple(v) for v in heuristic.vectors()],
    }


def fig2_scaling(
    task_counts: Sequence[int] = (4, 5, 6, 7, 8),
    seed: int = 0,
    conflict_limit: Optional[int] = DEFAULT_BUDGET,
) -> Dict[str, List[Tuple[int, float]]]:
    """Fig. 2: search effort vs. instance size, proposed vs. solution-level."""
    conflicts_dse: List[Tuple[int, float]] = []
    conflicts_solution: List[Tuple[int, float]] = []
    time_dse: List[Tuple[int, float]] = []
    time_solution: List[Tuple[int, float]] = []
    for tasks in task_counts:
        platform = (2, 2) if tasks <= 6 else (3, 2)
        spec = generate_specification(
            WorkloadConfig(tasks=tasks, seed=seed, platform_size=platform)
        )
        encoded = encode(spec)
        result = ExactParetoExplorer(
            encoded, conflict_limit=conflict_limit, validate_models=False
        ).run()
        conflicts_dse.append((tasks, float(result.statistics.conflicts)))
        time_dse.append((tasks, result.statistics.wall_time))
        baseline = solution_level_front(encoded, conflict_limit=conflict_limit)
        conflicts_solution.append((tasks, float(baseline.conflicts)))
        time_solution.append((tasks, baseline.wall_time))
    return {
        "aspmt-dse conflicts": conflicts_dse,
        "solution-level conflicts": conflicts_solution,
        "aspmt-dse time_s": time_dse,
        "solution-level time_s": time_solution,
    }


def fig3_pruning_ablation(
    suites: Sequence[str] = ("small",),
    conflict_limit: Optional[int] = DEFAULT_BUDGET,
) -> Tuple[List[str], Rows]:
    """Fig. 3: effect of partial-assignment dominance propagation."""
    columns = [
        "instance",
        "partial_pruning",
        "pareto",
        "models",
        "conflicts",
        "pruned_partial",
        "pruned_total",
        "time_s",
    ]
    rows: Rows = []
    for suite_name in suites:
        for instance in suite(suite_name):
            encoded = encode(instance.specification)
            for partial in (True, False):
                result = ExactParetoExplorer(
                    encoded,
                    partial_pruning=partial,
                    conflict_limit=conflict_limit,
                    validate_models=False,
                ).run()
                stats = result.statistics
                rows.append(
                    {
                        "instance": instance.name,
                        "partial_pruning": partial,
                        "pareto": stats.pareto_points,
                        "models": stats.models_enumerated,
                        "conflicts": stats.conflicts,
                        "pruned_partial": stats.pruned_partial,
                        "pruned_total": stats.pruned_total,
                        "time_s": stats.wall_time,
                    }
                )
    return columns, rows


def fig4_archive_ablation(
    sizes: Sequence[int] = (100, 400, 1600),
    dimensions: int = 3,
    seed: int = 7,
    dse_tasks: int = 6,
) -> Tuple[List[str], Rows]:
    """Fig. 4: dominance-check effort, list vs. quad-tree archive.

    Two parts: synthetic insertion workloads of growing size, plus one
    real DSE run per archive.
    """
    columns = ["workload", "archive", "points_kept", "comparisons", "time_s"]
    rows: Rows = []
    rng = random.Random(seed)
    for size in sizes:
        # Well-spread random vectors: many mutually non-dominated points.
        points = [
            tuple(rng.randint(0, 1000) for _ in range(dimensions))
            for _ in range(size)
        ]
        for name, archive in (("list", ListArchive()), ("quadtree", QuadTreeArchive())):
            started = time.perf_counter()
            for point in points:
                archive.add(point, None)
                archive.find_weak_dominator(point)
            rows.append(
                {
                    "workload": f"synthetic_n{size}",
                    "archive": name,
                    "points_kept": len(archive),
                    "comparisons": archive.comparisons,
                    "time_s": time.perf_counter() - started,
                }
            )
    spec = generate_specification(WorkloadConfig(tasks=dse_tasks, seed=seed))
    encoded = encode(spec)
    for name in ("list", "quadtree"):
        result = ExactParetoExplorer(
            encoded, archive=name, validate_models=False
        ).run()
        rows.append(
            {
                "workload": f"dse_t{dse_tasks}",
                "archive": name,
                "points_kept": result.statistics.pareto_points,
                "comparisons": result.statistics.archive_comparisons,
                "time_s": result.statistics.wall_time,
            }
        )
    return columns, rows


def fig5_approximation(
    epsilons: Sequence[int] = (0, 1, 2, 4, 8),
    tasks: int = 8,
    seed: int = 0,
    conflict_limit: Optional[int] = DEFAULT_BUDGET,
) -> Tuple[List[str], Rows]:
    """Fig. 5 (extension): epsilon-dominance approximation trade-off.

    The CODES+ISSS'18 follow-up idea: relaxing the dominance check by an
    additive epsilon shrinks the archive while guaranteeing every exact
    point is epsilon-covered; the search effort may rise or fall (see
    :mod:`repro.dse.approximation`).  The quality
    column reports the measured additive-epsilon indicator against the
    exact front (never exceeding the configured epsilon).
    """
    from repro.dse.indicators import additive_epsilon, front_coverage

    spec = generate_specification(
        WorkloadConfig(tasks=tasks, seed=seed, platform_size=(3, 2))
    )
    encoded = encode(spec)
    columns = [
        "epsilon",
        "front",
        "models",
        "conflicts",
        "time_s",
        "measured_eps",
        "coverage",
    ]
    rows: Rows = []
    exact_vectors: List[Tuple[int, ...]] = []
    for epsilon in sorted(set(epsilons)):
        result = ExactParetoExplorer(
            encoded,
            epsilon=epsilon,
            conflict_limit=conflict_limit,
            validate_models=False,
        ).run()
        vectors = result.vectors()
        if epsilon == 0:
            exact_vectors = vectors
        stats = result.statistics
        rows.append(
            {
                "epsilon": epsilon,
                "front": len(vectors),
                "models": stats.models_enumerated,
                "conflicts": stats.conflicts,
                "time_s": stats.wall_time,
                "measured_eps": (
                    additive_epsilon(vectors, exact_vectors) if exact_vectors else 0
                ),
                "coverage": (
                    front_coverage(vectors, exact_vectors) if exact_vectors else 1.0
                ),
            }
        )
    return columns, rows


def fig7_routing(
    suites: Sequence[str] = ("small",),
    conflict_limit: Optional[int] = DEFAULT_BUDGET,
) -> Tuple[List[str], Rows]:
    """Fig. 7 (extension): routing freedom vs. fixed shortest-path routing.

    Fixing the routes (dimension-ordered-style deterministic routing)
    shrinks the design space dramatically, but the exact front over the
    restricted space can lose Pareto points that need detour routes; the
    `front_coverage` column quantifies the loss.
    """
    from repro.dse.indicators import front_coverage

    columns = [
        "instance",
        "routing",
        "pareto",
        "coverage",
        "models",
        "conflicts",
        "time_s",
    ]
    rows: Rows = []
    cases = [
        (instance.name, instance.specification)
        for suite_name in suites
        for instance in suite(suite_name)
    ]
    cases.append(("detour_links", _detour_instance()))
    for name, spec in cases:
        results = {}
        for routing in ("free", "fixed"):
            encoded = encode(spec, routing=routing)
            results[routing] = ExactParetoExplorer(
                encoded, conflict_limit=conflict_limit, validate_models=False
            ).run()
        free_front = results["free"].vectors()
        for routing in ("free", "fixed"):
            result = results[routing]
            stats = result.statistics
            rows.append(
                {
                    "instance": name,
                    "routing": routing,
                    "pareto": stats.pareto_points,
                    "coverage": front_coverage(result.vectors(), free_front),
                    "models": stats.models_enumerated,
                    "conflicts": stats.conflicts,
                    "time_s": stats.wall_time,
                }
            )
    return columns, rows


def _detour_instance():
    """A platform with a fast/hungry and a slow/frugal route: fixed
    (shortest-delay) routing cannot express the energy-optimal detour."""
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

    application = Application(
        tasks=(Task("a"), Task("b")),
        messages=(Message("m", "a", "b", size=2),),
    )
    resources = tuple(Resource(f"r{i}", cost=1) for i in range(4))
    links = (
        Link("u1", "r0", "r1", delay=1, energy=6),
        Link("u2", "r1", "r3", delay=1, energy=6),
        Link("d1", "r0", "r2", delay=3, energy=1),
        Link("d2", "r2", "r3", delay=3, energy=1),
    )
    mappings = (
        MappingOption("a", "r0", wcet=1, energy=2),
        MappingOption("b", "r3", wcet=1, energy=2),
    )
    return Specification(application, Architecture(resources, links), mappings)


def fig8_solver_ablation(
    suites: Sequence[str] = ("small",),
    conflict_limit: Optional[int] = DEFAULT_BUDGET,
) -> Tuple[List[str], Rows]:
    """Fig. 8 (extension): CDNL solver knobs on the DSE workload.

    The two remaining ablation targets of DESIGN.md: Luby restarts and
    phase saving in the solver, plus the specialized difference-logic
    propagator stacked onto the generic linear theory.
    """
    variants = (
        ("default", {}),
        ("no-restarts", {"restart_base": None}),
        ("no-phase-saving", {"phase_saving": False}),
        ("with-dl", {"use_difference_logic": True}),
    )
    columns = [
        "instance",
        "variant",
        "pareto",
        "models",
        "conflicts",
        "restarts",
        "time_s",
    ]
    rows: Rows = []
    for suite_name in suites:
        for instance in suite(suite_name):
            encoded = encode(instance.specification)
            for name, options in variants:
                explorer_options = {
                    "conflict_limit": conflict_limit,
                    "validate_models": False,
                }
                if "use_difference_logic" in options:
                    explorer_options["use_difference_logic"] = True
                explorer = ExactParetoExplorer(encoded, **explorer_options)
                explorer.ground()
                if "restart_base" in options:
                    explorer.control.solver.restart_base = options["restart_base"]
                if "phase_saving" in options:
                    explorer.control.solver.phase_saving = options["phase_saving"]
                result = explorer.run()
                stats = result.statistics
                rows.append(
                    {
                        "instance": instance.name,
                        "variant": name,
                        "pareto": stats.pareto_points,
                        "models": stats.models_enumerated,
                        "conflicts": stats.conflicts,
                        "restarts": explorer.control.solver.stats.restarts,
                        "time_s": stats.wall_time,
                    }
                )
    return columns, rows


def fig9_contention(
    suites: Sequence[str] = ("small",),
    conflict_limit: Optional[int] = DEFAULT_BUDGET,
) -> Tuple[List[str], Rows]:
    """Fig. 9 (extension): interconnect contention model refinement.

    Serializing transmissions that share a link can only delay
    deliveries: the latency-optimal point never improves, and the extra
    ordering decisions increase the search effort.
    """
    columns = [
        "instance",
        "contention",
        "pareto",
        "best_latency",
        "models",
        "conflicts",
        "time_s",
    ]
    rows: Rows = []
    for suite_name in suites:
        for instance in suite(suite_name):
            for contention in (False, True):
                encoded = encode(
                    instance.specification, link_contention=contention
                )
                result = ExactParetoExplorer(
                    encoded, conflict_limit=conflict_limit, validate_models=False
                ).run()
                stats = result.statistics
                vectors = result.vectors()
                rows.append(
                    {
                        "instance": instance.name,
                        "contention": contention,
                        "pareto": stats.pareto_points,
                        "best_latency": min((v[0] for v in vectors), default=-1),
                        "models": stats.models_enumerated,
                        "conflicts": stats.conflicts,
                        "time_s": stats.wall_time,
                    }
                )
    return columns, rows


def fig6_heuristics(
    suites: Sequence[str] = ("small",),
    conflict_limit: Optional[int] = DEFAULT_BUDGET,
) -> Tuple[List[str], Rows]:
    """Fig. 6 (extension): objective-aware decision phases.

    Domain-specific heuristics in the spirit of Andres et al. (LPNMR'15):
    biasing phase saving toward objective-friendly polarities seeds the
    archive with good points early, which strengthens dominance pruning.
    """
    columns = [
        "instance",
        "phases",
        "pareto",
        "models",
        "decisions",
        "conflicts",
        "time_s",
    ]
    rows: Rows = []
    for suite_name in suites:
        for instance in suite(suite_name):
            encoded = encode(instance.specification)
            for phases in (False, True):
                result = ExactParetoExplorer(
                    encoded,
                    objective_phases=phases,
                    conflict_limit=conflict_limit,
                    validate_models=False,
                ).run()
                stats = result.statistics
                rows.append(
                    {
                        "instance": instance.name,
                        "phases": phases,
                        "pareto": stats.pareto_points,
                        "models": stats.models_enumerated,
                        "decisions": stats.decisions,
                        "conflicts": stats.conflicts,
                        "time_s": stats.wall_time,
                    }
                )
    return columns, rows


def fig10_parallel(
    instances: Sequence[str] = ("consumer_jpeg", "network_firewall"),
    jobs_list: Sequence[int] = (1, 2, 4),
    conflict_limit: Optional[int] = DEFAULT_BUDGET,
    backend: str = "inline",
) -> Tuple[List[str], Rows]:
    """Fig. 10 (extension): parallel subspace workers + shared archive.

    Wall times for 1/2/4 workers with cross-worker archive sharing on
    and off.  The suite may run on a single core, so the honest
    headline is the ablation at equal worker count: ``share_x`` (archive
    sharing turns the workers' pruning archives into one cooperative
    bound, cutting models, conflicts, and wall time).  The front is
    identical to the sequential explorer in every configuration
    (``tests/test_parallel.py::TestArchiveSharing`` checks it and pins
    the inline work counts); ``conflict_limit`` is per worker.
    """
    from repro.dse.parallel import ParallelParetoExplorer
    from repro.workloads.curated import curated

    columns = [
        "instance",
        "jobs",
        "share",
        "pareto",
        "models",
        "conflicts",
        "steals",
        "resplits",
        "time_s",
        "share_x",
        "exact",
    ]
    rows: Rows = []
    for name in instances:
        spec = curated(name)
        reference = ExactParetoExplorer(
            encode(spec), conflict_limit=conflict_limit, validate_models=False
        ).run()
        stats = reference.statistics
        rows.append(
            {
                "instance": name,
                "jobs": 1,
                "share": "-",
                "pareto": stats.pareto_points,
                "models": stats.models_enumerated,
                "conflicts": stats.conflicts,
                "steals": 0,
                "resplits": 0,
                "time_s": stats.wall_time,
                "share_x": "-",
                "exact": not stats.interrupted,
            }
        )
        for jobs in (j for j in jobs_list if j > 1):
            isolated_time = None
            for share in (False, True):
                result = ParallelParetoExplorer(
                    encode(spec),
                    jobs=jobs,
                    backend=backend,
                    share_archive=share,
                    conflict_limit=conflict_limit,
                    validate_models=False,
                ).run()
                pstats = result.statistics
                if not share:
                    isolated_time = pstats.wall_time
                rows.append(
                    {
                        "instance": name,
                        "jobs": jobs,
                        "share": "yes" if share else "no",
                        "pareto": pstats.pareto_points,
                        "models": pstats.models_enumerated,
                        "conflicts": pstats.conflicts,
                        "steals": pstats.steals,
                        "resplits": pstats.resplits,
                        "time_s": pstats.wall_time,
                        "share_x": (
                            round(isolated_time / pstats.wall_time, 2)
                            if share
                            else "-"
                        ),
                        "exact": not pstats.interrupted,
                    }
                )
    return columns, rows
