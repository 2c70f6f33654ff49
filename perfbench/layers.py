"""Which public entry points the traced run wraps, and as which layer.

Span names are layer names; a layer may own several entry points.  The
self time of a span is the time its layer spent outside any other
traced call, so e.g. ``asp.flatsolver`` is the CDNL core's own work
(boolean propagation, conflict analysis, decisions) with the theory,
unfounded-set and dominance callbacks taken out.
"""

from __future__ import annotations

from tracer import Tracer


def _encode_hook(tracer: Tracer, result, args) -> None:
    tracer.counts["encoding.program_bytes"] += len(result.program)


def _ground_hook(tracer: Tracer, result, args) -> None:
    grounder = args[0]
    tracer.counts["grounder.ground_rules"] += len(result)
    statistics = getattr(grounder, "statistics", None)
    if statistics is not None:
        tracer.counts["grounder.instantiations"] += statistics.instantiations


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry points (call before any work starts)."""
    from repro.asp.control import Control
    from repro.asp.flatsolver import FlatSolver
    from repro.asp.ground import GroundProgram
    from repro.asp.grounder import Grounder
    from repro.asp.solver import Solver
    from repro.asp.unfounded import UnfoundedSetPropagator
    from repro.dse.explorer import DominancePropagator, ExactParetoExplorer
    from repro.dse.parallel import ParallelParetoExplorer
    from repro.dse.pareto import ListArchive
    from repro.dse.scheduler import CubeScheduler
    from repro.serve.cache import ResultCache
    from repro.theory.linear import LinearPropagator

    import repro.serve.server  # noqa: F401  (alias sites must be loaded)

    functions = (
        ("repro.dse.explorer", "explore", "dse.explorer", None),
        ("repro.synthesis.encoding", "encode", "synthesis.encoding", _encode_hook),
        ("repro.serve.admission", "admit", "analysis.admit", None),
        ("repro.serve.admission", "estimate_work", "analysis.estimate", None),
        (
            "repro.analysis.canonical",
            "canonicalize_specification",
            "analysis.canonical",
            None,
        ),
        ("repro.analysis.domains", "analyze_rules", "analysis.domains", None),
        ("repro.asp.parser", "parse_program", "asp.parser", None),
        ("repro.asp.completion", "translate", "asp.completion", None),
        ("repro.synthesis.solution", "decode_model", "solution.decode", None),
        ("repro.synthesis.solution", "validate", "solution.validate", None),
    )
    for module, attr, layer, hook in functions:
        tracer.patch_function(module, attr, layer, hook)

    methods = (
        (ExactParetoExplorer, ("run",), "dse.explorer", None),
        (ParallelParetoExplorer, ("run",), "dse.parallel", None),
        (CubeScheduler, ("next_cube", "resplit", "observe"), "dse.scheduler", None),
        (Control, ("ground",), "asp.control", None),
        (Grounder, ("__init__",), "asp.grounder", None),
        (Grounder, ("ground",), "asp.grounder", _ground_hook),
        (
            GroundProgram,
            ("positive_dependency_graph", "nontrivial_sccs"),
            "asp.dependency",
            None,
        ),
        (FlatSolver, ("solve",), "asp.flatsolver", None),
        (Solver, ("solve",), "asp.flatsolver", None),
        (LinearPropagator, ("init", "propagate", "check", "undo"), "theory.linear", None),
        (
            UnfoundedSetPropagator,
            ("__init__", "propagate", "check", "undo"),
            "asp.unfounded",
            None,
        ),
        (DominancePropagator, ("init", "propagate", "check", "undo"), "dse.dominance", None),
        (ListArchive, ("add",), "dse.dominance", None),
        (ResultCache, ("get", "put"), "serve.cache", None),
    )
    for cls, attrs, layer, hook in methods:
        for attr in attrs:
            tracer.patch_method(cls, attr, layer, hook)
