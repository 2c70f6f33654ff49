"""Symmetry breaking benchmark: model-count and wall-time reduction.

Measures the ``mesh_symmetric`` curated instance (a 3-task chain on a
3x3 mesh of identical tiles, automorphism group D4 of order 8) with
lex-leader breaking off vs. on, and writes the table plus headline
ratios to ``BENCH_symmetry.json`` at the repository root.

**What "model count" means here.**  The classic symmetry-breaking
metric is the number of *feasible implementations* — stable models of
the encoding (binding + routing combinations consistent with the
deadlines), enumerated with blocking clauses and no dominance pruning.
Lex-leader constraints keep roughly one representative per orbit, so
this count drops by close to the group order modulo stabilizers
(measured 213 -> 37, ~5.8x).  The *Pareto explorer's*
``models_enumerated`` does **not** drop: weak dominance already prunes
equal-vector duplicates, so symmetric copies were never enumerated
twice to begin with.  For the exploration itself the savings appear as
conflicts/decisions/wall time (the solver no longer re-refutes each
symmetric placement), measured ~3.9x in conflicts here.  Both floors
below are asserted; both are deliberately under the measured ratios so
machine noise cannot flip them.

Exactness rides along: the off/on fronts must be vector-identical,
sequentially and at ``jobs=2`` (the CI symmetry suite runs the full
equivalence tests too).
"""

import json
import time
from pathlib import Path

from repro.asp.control import Control
from repro.dse.explorer import ExactParetoExplorer
from repro.dse.parallel import ParallelParetoExplorer
from repro.synthesis.encoding import encode
from repro.theory.linear import LinearPropagator
from repro.workloads.curated import curated

INSTANCE = "mesh_symmetric"
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_symmetry.json"

#: Cap on the feasible-model enumeration (well above the measured 213).
MODEL_CAP = 100_000

#: Floors, deliberately below the measured ratios (measured values land
#: in BENCH_symmetry.json): feasible models 213/37 ~ 5.8x, Pareto-search
#: conflicts 2682/696 ~ 3.9x.
MODEL_REDUCTION_FLOOR = 2.0
CONFLICT_REDUCTION_FLOOR = 1.5


def count_feasible_models(instance):
    """Stable models of the encoding (no dominance, blocking clauses)."""
    control = Control()
    control.add(instance.program)
    control.register_propagator(LinearPropagator())
    control.ground(cache=False)
    count = [0]
    started = time.perf_counter()
    control.solve(
        on_model=lambda model: count.__setitem__(0, count[0] + 1),
        models=MODEL_CAP,
    )
    seconds = time.perf_counter() - started
    assert count[0] < MODEL_CAP, "feasible-model enumeration hit the cap"
    return count[0], seconds


def explore_instance(instance, budget):
    explorer = ExactParetoExplorer(
        instance, conflict_limit=budget, validate_models=False
    )
    started = time.perf_counter()
    result = explorer.run()
    return result, time.perf_counter() - started


def run_symmetry_comparison(budget):
    spec = curated(INSTANCE)
    rows = []
    fronts = {}
    for mode in ("off", "on"):
        instance = encode(spec, symmetry=mode)
        models, enum_seconds = count_feasible_models(instance)
        result, wall = explore_instance(instance, budget)
        fronts[mode] = result.vectors()
        stats = result.statistics
        rows.append(
            {
                "instance": INSTANCE,
                "symmetry": mode,
                "feasible_models": models,
                "enumeration_s": round(enum_seconds, 4),
                "pareto_points": stats.pareto_points,
                "models_enumerated": stats.models_enumerated,
                "conflicts": stats.conflicts,
                "decisions": stats.decisions,
                "explore_s": round(wall, 4),
                "exact": not stats.interrupted,
                "constraints": stats.symmetry_constraints,
                "group_order": stats.symmetry_order,
                "analysis_s": round(stats.symmetry_seconds, 6),
            }
        )
    parallel_front = ParallelParetoExplorer(
        encode(spec, symmetry="on"),
        jobs=2,
        backend="inline",
        conflict_limit=budget,
        validate_models=False,
    ).run().vectors()
    return rows, fronts, parallel_front


def test_symmetry_reduction(benchmark, budget):
    rows, fronts, parallel_front = benchmark.pedantic(
        run_symmetry_comparison,
        kwargs={"budget": budget * 10},
        rounds=1,
        iterations=1,
    )
    off, on = rows
    assert off["symmetry"] == "off" and on["symmetry"] == "on"
    assert off["exact"] and on["exact"]

    # Exactness: identical vector fronts in every configuration.
    assert fronts["on"] == fronts["off"]
    assert parallel_front == fronts["off"]

    # The platform group was found and compiled into constraints.
    assert on["group_order"] == 8
    assert on["constraints"] > 0

    # Feasible implementations: the classic >= 2x model-count reduction.
    model_x = round(off["feasible_models"] / max(on["feasible_models"], 1), 3)
    assert model_x >= MODEL_REDUCTION_FLOOR, (
        f"feasible-model reduction {model_x}x below floor "
        f"{MODEL_REDUCTION_FLOOR}x"
    )

    # Pareto search effort: conflicts drop too (the honest wall-time
    # driver; see the module docstring for why models_enumerated stays).
    conflict_x = round(off["conflicts"] / max(on["conflicts"], 1), 3)
    assert conflict_x >= CONFLICT_REDUCTION_FLOOR, (
        f"conflict reduction {conflict_x}x below floor "
        f"{CONFLICT_REDUCTION_FLOOR}x"
    )

    report = {
        "instance": INSTANCE,
        "rows": rows,
        "front": [list(v) for v in fronts["off"]],
        "parallel_front_equal": parallel_front == fronts["off"],
        "headline": {
            "feasible_model_reduction": model_x,
            "conflict_reduction": conflict_x,
            "wall_reduction": round(
                off["explore_s"] / max(on["explore_s"], 1e-9), 3
            ),
            "floors": {
                "feasible_model_reduction": MODEL_REDUCTION_FLOOR,
                "conflict_reduction": CONFLICT_REDUCTION_FLOOR,
            },
        },
    }
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    benchmark.extra_info["rows"] = rows
    benchmark.extra_info["headline"] = report["headline"]
