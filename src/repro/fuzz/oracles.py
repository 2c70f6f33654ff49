"""Pluggable differential and metamorphic oracles.

Every oracle runs one generated input through at least two independent
code paths and compares the results.  A mismatch raises
:class:`Divergence`; any other exception out of ``check`` is a *crash*
finding.  Oracles may raise :class:`Skip` when an input is outside
their domain (e.g. theory atoms for the naive solving oracle) — skips
are counted but are not findings.

The oracle matrix (see ``docs/FUZZING.md``):

====================  =======  ==================================================
oracle                input    compared paths
====================  =======  ==================================================
``grounding``         program  semi-naive vs naive grounder (rules, atom universe)
``solving``           program  CDNL pipeline vs brute-force stable-model check
``pickle``            program  ``GroundProgram`` pickle round-trip + replayed solve
``lint``              program  lint-clean implies grounds-without-error
``reorder``           program  rule reordering leaves the ground rule set intact
``front``             spec     exact explorer vs exhaustive vs parallel workers
``scale``             spec     objective scaling maps the front pointwise
``rename``            spec     task/resource renaming leaves the front invariant
``solver-core``       program  flat engine vs reference CDNL solver (stable models)
``symmetry-front``    spec     lex-leader symmetry breaking leaves the front invariant
``domain-soundness``  program  derived atoms lie in the inferred domains
``serve-cache``       spec     canonical digests identify renamed twins; remapped
                               witnesses stay valid; perturbations change the digest
====================  =======  ==================================================
"""

from __future__ import annotations

import pickle
import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.asp.completion import translate
from repro.asp.control import Control, ground_text
from repro.asp.flatsolver import FlatSolver
from repro.asp.ground import GroundProgram
from repro.asp.naive import naive_answer_sets
from repro.asp.parser import ParseError
from repro.asp.solver import Solver
from repro.asp.unfounded import UnfoundedSetPropagator
from repro.baselines.exhaustive import exhaustive_front
from repro.dse.explorer import ExactParetoExplorer
from repro.dse.parallel import ParallelParetoExplorer
from repro.fuzz.generators import ProgramInput, SpecInput
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

__all__ = [
    "Divergence",
    "Skip",
    "Oracle",
    "ORACLES",
    "oracle_names",
    "select_oracles",
]


class Divergence(AssertionError):
    """Two independently-computed results disagree."""

    def __init__(self, oracle: str, message: str):
        super().__init__(f"[{oracle}] {message}")
        self.oracle = oracle
        self.message = message


class Skip(Exception):
    """The input is outside this oracle's domain (not a finding)."""


class Oracle:
    """Base class: ``name``, input ``kind``, and a ``check`` method."""

    name = "oracle"
    kind = "program"  # or "spec"

    def check(self, input) -> None:
        raise NotImplementedError

    def diverge(self, message: str) -> None:
        raise Divergence(self.name, message)


# ---------------------------------------------------------------------------
# Program oracles
# ---------------------------------------------------------------------------

#: Cap on models enumerated per side in solve-comparing oracles.
MODEL_CAP = 256


def _ground_outcome(text: str, mode: str):
    """Ground ``text``; returns (rules, possible, facts) or the error."""
    try:
        program = ground_text(text, cache=False, mode=mode)
    except ParseError:
        raise
    except Exception as error:  # GroundingError and friends
        return ("error", type(error).__name__)
    return (
        frozenset(str(rule) for rule in program.rules),
        program.possible,
        program.facts,
    )


def _cdnl_models(text: str, program: Optional[GroundProgram] = None):
    """Up to MODEL_CAP answer sets through the full CDNL pipeline."""
    control = Control()
    if program is None:
        control.add(text)
        control.ground(cache=False)
    else:
        control.ground(program=program)
    models: List[frozenset] = []
    control.solve(
        on_model=lambda m: models.append(frozenset(str(s) for s in m.symbols)),
        models=MODEL_CAP,
    )
    return sorted(models, key=sorted)


class GroundingOracle(Oracle):
    """Semi-naive and naive grounding must be bit-identical."""

    name = "grounding"
    kind = "program"

    def check(self, input: ProgramInput) -> None:
        try:
            naive = _ground_outcome(input.text, "naive")
            semi = _ground_outcome(input.text, "seminaive")
        except ParseError:
            raise Skip("program does not parse")
        if naive[0] == "error" or semi[0] == "error":
            if naive != semi:
                self.diverge(
                    f"grounding outcome differs: naive={naive[1] if naive[0] == 'error' else 'ok'}, "
                    f"seminaive={semi[1] if semi[0] == 'error' else 'ok'}"
                )
            return
        if naive[0] != semi[0]:
            only_naive = sorted(naive[0] - semi[0])[:3]
            only_semi = sorted(semi[0] - naive[0])[:3]
            self.diverge(
                f"ground rules differ (naive-only {only_naive}, "
                f"seminaive-only {only_semi})"
            )
        if naive[1] != semi[1] or naive[2] != semi[2]:
            self.diverge("possible/fact atom universes differ")


class SolvingOracle(Oracle):
    """The CDNL stack must agree with the brute-force stable-model check."""

    name = "solving"
    kind = "program"

    def check(self, input: ProgramInput) -> None:
        if input.has_theory:
            raise Skip("theory atoms")
        try:
            want = naive_answer_sets(input.text, limit=1 << 14)
        except (ValueError, NotImplementedError) as error:
            raise Skip(str(error))
        except ParseError:
            raise Skip("program does not parse")
        if len(want) >= MODEL_CAP:
            raise Skip("too many answer sets for a full comparison")
        got = _cdnl_models(input.text)
        want_sets = sorted(
            (frozenset(str(atom) for atom in model) for model in want),
            key=sorted,
        )
        if got != want_sets:
            self.diverge(
                f"answer sets differ: cdnl found {len(got)}, "
                f"naive oracle found {len(want_sets)}"
            )


class PickleOracle(Oracle):
    """``GroundProgram`` pickle round-trip, then solves identically."""

    name = "pickle"
    kind = "program"

    def check(self, input: ProgramInput) -> None:
        try:
            program = ground_text(input.text, cache=False)
        except ParseError:
            raise Skip("program does not parse")
        except Exception:
            raise Skip("program does not ground")
        restored = pickle.loads(pickle.dumps(program))
        if {str(r) for r in program.rules} != {str(r) for r in restored.rules}:
            self.diverge("rules changed across the pickle round-trip")
        if (
            program.possible != restored.possible
            or program.facts != restored.facts
            or program.shows != restored.shows
            or program.externals != restored.externals
        ):
            self.diverge("atom universe changed across the pickle round-trip")
        if input.has_theory:
            return  # solving theory programs needs registered propagators
        fresh = _cdnl_models(input.text)
        replayed = _cdnl_models(input.text, program=restored)
        if len(fresh) >= MODEL_CAP or len(replayed) >= MODEL_CAP:
            raise Skip("model cap reached; comparison would be truncated")
        if fresh != replayed:
            self.diverge(
                f"restored artifact solves differently: {len(fresh)} vs "
                f"{len(replayed)} models"
            )


class LintOracle(Oracle):
    """A lint-clean program must ground without error."""

    name = "lint"
    kind = "program"

    def check(self, input: ProgramInput) -> None:
        from repro.analysis import lint_text

        report = lint_text(input.text, filename=f"<fuzz-{input.seed}>")
        if report.errors:
            raise Skip("lint reports errors")
        try:
            ground_text(input.text, cache=False)
        except Exception as error:
            self.diverge(
                f"lint-clean program failed to ground: "
                f"{type(error).__name__}: {error}"
            )


class ReorderOracle(Oracle):
    """Rule reordering must leave the ground rule set (and models) intact."""

    name = "reorder"
    kind = "program"

    def check(self, input: ProgramInput) -> None:
        lines = [line for line in input.text.splitlines() if line.strip()]
        if len(lines) < 2:
            raise Skip("single-rule program")
        shuffled = list(lines)
        random.Random(f"fuzz-reorder-{input.seed}").shuffle(shuffled)
        reordered = "\n".join(shuffled)
        try:
            base = ground_text(input.text, cache=False)
        except Exception:
            raise Skip("program does not ground")
        try:
            permuted = ground_text(reordered, cache=False)
        except Exception as error:
            self.diverge(
                f"reordered program fails to ground: {type(error).__name__}"
            )
        if {str(r) for r in base.rules} != {str(r) for r in permuted.rules}:
            self.diverge("ground rule set changed under rule reordering")
        if input.has_theory:
            return
        base_models = _cdnl_models(input.text)
        permuted_models = _cdnl_models(reordered)
        if len(base_models) >= MODEL_CAP or len(permuted_models) >= MODEL_CAP:
            # Both enumerations were truncated at the cap; the subsets
            # legitimately differ with enumeration order.
            return
        if base_models != permuted_models:
            self.diverge("answer sets changed under rule reordering")


# ---------------------------------------------------------------------------
# Specification oracles
# ---------------------------------------------------------------------------


def _front_vectors(
    spec_input: SpecInput,
    specification: Optional[Specification] = None,
    symmetry: str = "auto",
) -> List[Tuple[int, ...]]:
    """The exact front of the instance, via the reference explorer."""
    instance = encode(
        specification or spec_input.specification,
        objectives=spec_input.objectives,
        latency_bound=spec_input.latency_bound,
        symmetry=symmetry,
    )
    result = ExactParetoExplorer(instance, validate_models=False).run()
    return result.vectors()


class FrontOracle(Oracle):
    """Exact explorer vs exhaustive enumeration vs parallel workers."""

    name = "front"
    kind = "spec"

    def check(self, input: SpecInput) -> None:
        instance = encode(
            input.specification,
            objectives=input.objectives,
            latency_bound=input.latency_bound,
        )
        exact = ExactParetoExplorer(instance, validate_models=True).run()
        # The truth side enumerates the unbroken design space.
        truth = exhaustive_front(
            encode(
                input.specification,
                objectives=input.objectives,
                latency_bound=input.latency_bound,
                symmetry="off",
            )
        )
        if exact.vectors() != truth.vectors():
            self.diverge(
                f"explorer front {exact.vectors()} != exhaustive front "
                f"{truth.vectors()}"
            )
        parallel = ParallelParetoExplorer(
            instance, jobs=2, backend="inline"
        ).run()
        if parallel.vectors() != truth.vectors():
            self.diverge(
                f"parallel front {parallel.vectors()} != exhaustive front "
                f"{truth.vectors()}"
            )


class ScaleOracle(Oracle):
    """Scaling one objective's weights scales that front axis exactly."""

    name = "scale"
    kind = "spec"

    def check(self, input: SpecInput) -> None:
        scalable = [o for o in input.objectives if o in ("energy", "cost")]
        if not scalable:
            raise Skip("no scalable objective")
        objective = scalable[0]
        axis = input.objectives.index(objective)
        factor = 2 + input.seed % 3
        spec = input.specification
        if objective == "energy":
            # The energy objective sums mapping energies (bind atoms) and
            # link energies x message size (route atoms): both weight
            # families must scale for the axis to scale.
            mappings = tuple(
                replace(option, energy=option.energy * factor)
                for option in spec.mappings
            )
            links = tuple(
                replace(link, energy=link.energy * factor)
                for link in spec.architecture.links
            )
            scaled_arch = Architecture(spec.architecture.resources, links)
            scaled = Specification(spec.application, scaled_arch, mappings)
        else:
            resources = tuple(
                replace(res, cost=res.cost * factor)
                for res in spec.architecture.resources
            )
            scaled_arch = Architecture(resources, spec.architecture.links)
            scaled = Specification(spec.application, scaled_arch, spec.mappings)
        base = _front_vectors(input)
        scaled_front = _front_vectors(input, specification=scaled)
        unscaled = sorted(
            tuple(
                value // factor if i == axis else value
                for i, value in enumerate(vector)
            )
            for vector in scaled_front
        )
        remainders = [
            vector[axis] % factor for vector in scaled_front
        ]
        if any(remainders) or unscaled != base:
            self.diverge(
                f"front not invariant under {objective} x{factor} scaling: "
                f"base {base}, scaled {scaled_front}"
            )


def _rename_spec(spec: Specification, tag: str) -> Specification:
    """Rename every task and resource (order-scrambling prefix)."""
    task_map = {
        task.name: f"{tag}t{i}_{task.name}"
        for i, task in enumerate(reversed(spec.application.tasks))
    }
    res_map = {
        res.name: f"{tag}r{i}_{res.name}"
        for i, res in enumerate(reversed(spec.architecture.resources))
    }
    tasks = tuple(
        Task(task_map[task.name], deadline=task.deadline)
        for task in spec.application.tasks
    )
    messages = tuple(
        Message(
            message.name,
            task_map[message.source],
            task_map[message.target],
            size=message.size,
            extra_targets=tuple(task_map[t] for t in message.extra_targets),
        )
        for message in spec.application.messages
    )
    resources = tuple(
        Resource(res_map[res.name], cost=res.cost)
        for res in spec.architecture.resources
    )
    links = tuple(
        Link(
            f"{tag}l{i}_{link.name}",
            res_map[link.source],
            res_map[link.target],
            delay=link.delay,
            energy=link.energy,
        )
        for i, link in enumerate(spec.architecture.links)
    )
    mappings = tuple(
        MappingOption(
            task_map[o.task], res_map[o.resource], wcet=o.wcet, energy=o.energy
        )
        for o in spec.mappings
    )
    return Specification(
        Application(tasks, messages), Architecture(resources, links), mappings
    )


class RenameOracle(Oracle):
    """Task/resource renaming must leave the front invariant."""

    name = "rename"
    kind = "spec"

    def check(self, input: SpecInput) -> None:
        renamed = _rename_spec(input.specification, tag="zz")
        base = _front_vectors(input)
        permuted = _front_vectors(input, specification=renamed)
        if base != permuted:
            self.diverge(
                f"front changed under renaming: {base} != {permuted}"
            )


def _engine_models(program: GroundProgram, engine: type) -> List[frozenset]:
    """Up to MODEL_CAP answer sets of ``program`` on one CDNL engine.

    Drives the engine through the interface both engines share: the
    clause translation, the unfounded-set propagator on non-tight
    programs, and blocking clauses over the symbolic atoms.
    """
    solver = engine()
    translation = translate(program, solver)
    if not program.is_tight:
        solver.register_propagator(UnfoundedSetPropagator(translation))
    models: List[frozenset] = []
    while len(models) < MODEL_CAP and solver.solve().satisfiable:
        models.append(frozenset(str(s) for s in translation.symbols_of_model()))
        blocking = [
            -var if solver.value(var) is True else var
            for var in translation.atom_vars.values()
        ]
        solver.reset_to_root()
        if not solver.add_clause(blocking):
            break
    return sorted(models, key=sorted)


class SolverCoreOracle(Oracle):
    """The flat engine and the reference solver find the same answer sets.

    This is the solver-level twin of the ``grounding`` oracle (semi-naive
    vs naive): the object-based :class:`repro.asp.solver.Solver` is the
    executable specification the flat engine
    (:mod:`repro.asp.flatsolver`) is held against.  Fronts need no
    second engine: the ``front`` oracle checks the flat engine's fronts
    against exhaustive enumeration, which shares no code with it.
    """

    name = "solver-core"
    kind = "program"

    def check(self, input: ProgramInput) -> None:
        if input.has_theory:
            raise Skip("theory atoms")  # needs registered propagators
        try:
            program = ground_text(input.text, cache=False)
        except ParseError:
            raise Skip("program does not parse")
        except Exception:
            raise Skip("program does not ground")
        flat = _engine_models(program, FlatSolver)
        reference = _engine_models(program, Solver)
        if len(flat) >= MODEL_CAP or len(reference) >= MODEL_CAP:
            raise Skip("model cap reached; comparison would be truncated")
        if flat != reference:
            only_flat = [sorted(m) for m in flat if m not in reference][:2]
            only_ref = [sorted(m) for m in reference if m not in flat][:2]
            self.diverge(
                f"stable models differ between solver engines: flat found "
                f"{len(flat)}, reference found {len(reference)} "
                f"(flat-only {only_flat}, reference-only {only_ref})"
            )


class SymmetryFrontOracle(Oracle):
    """Lex-leader symmetry breaking must not change the vector front.

    The exactness argument (docs/SYMMETRY.md) says the Pareto front *of
    objective vectors* is identical with breaking on or off — for every
    platform, symmetric or not, because a trivial or partial
    automorphism group simply yields fewer (or no) constraints.  The
    oracle explores the default (``symmetry="auto"``) encoding and
    compares against an explicit ``symmetry="off"`` front, sequentially
    and through the parallel explorer.
    """

    name = "symmetry-front"
    kind = "spec"

    def check(self, input: SpecInput) -> None:
        base = _front_vectors(input, symmetry="off")
        instance = encode(
            input.specification,
            objectives=input.objectives,
            latency_bound=input.latency_bound,
        )
        broken = ExactParetoExplorer(instance, validate_models=True).run()
        if broken.vectors() != base:
            self.diverge(
                f"front changed under symmetry breaking: off {base} != "
                f"auto {broken.vectors()} (group order "
                f"{instance.symmetry.order}, "
                f"{instance.symmetry.constraints} constraints)"
            )
        parallel = ParallelParetoExplorer(
            instance, jobs=2, backend="inline"
        ).run()
        if parallel.vectors() != base:
            self.diverge(
                f"parallel front changed under symmetry breaking: off "
                f"{base} != auto {parallel.vectors()}"
            )


class DomainSoundnessOracle(Oracle):
    """The abstract domain analysis over-approximates the grounder.

    The contract in ``docs/DOMAINS.md``: every atom the grounder derives
    as possible must be contained in the inferred per-position domains.
    """

    name = "domain-soundness"
    kind = "program"

    def check(self, input: ProgramInput) -> None:
        from repro.analysis.domains import analyze_program
        from repro.asp.grounder import Grounder
        from repro.asp.parser import parse_program

        try:
            parsed = parse_program(input.text)
        except ParseError:
            raise Skip("program does not parse")
        try:
            grounder = Grounder(parsed)
            grounder.ground()
        except Exception:
            raise Skip("program does not ground")
        escaped = analyze_program(parsed).violations(grounder.possible_atoms)
        if escaped:
            self.diverge(
                f"derived atoms escape the inferred domains: "
                f"{sorted(str(atom) for atom in escaped)[:5]}"
            )


#: Registry, in documentation order.
class ServeCacheOracle(Oracle):
    """The serving layer's cache identity is sound and complete enough.

    The metamorphic twin of the ``rename`` oracle, lifted to the cache
    key level (:mod:`repro.analysis.canonical` + :mod:`repro.serve.cache`):

    * an order-scrambling rename of every task/resource/link must keep
      the canonical digest — and hence the cache key — unchanged
      (renamed twins coalesce onto one entry);
    * every front witness, remapped original -> canonical -> twin
      namespace the way a cache hit is served, must still validate
      against the renamed specification with identical objectives;
    * bumping a single WCET must change the digest (the mutation always
      changes the mapping-edge multiset, so a collision here would be a
      certificate bug — the "no false cache hits" direction).
    """

    name = "serve-cache"
    kind = "spec"

    def check(self, input: SpecInput) -> None:
        from repro.analysis.canonical import (
            canonicalize_specification,
            invert_name_map,
            remap_front_entry,
        )
        from repro.serve.cache import make_cache_key
        from repro.synthesis.solution import Implementation, validate

        spec = input.specification
        renamed = _rename_spec(spec, "q")
        original = canonicalize_specification(spec)
        twin = canonicalize_specification(renamed)
        if not (original.exact and twin.exact):
            raise Skip("canonical leaf budget exhausted")
        options = {"latency_bound": input.latency_bound}
        key = make_cache_key(original.digest, input.objectives, options)
        twin_key = make_cache_key(twin.digest, input.objectives, options)
        if key != twin_key:
            self.diverge(
                f"cache key changed under renaming: digest "
                f"{original.digest[:16]} != {twin.digest[:16]}"
            )

        instance = encode(
            spec,
            objectives=input.objectives,
            latency_bound=input.latency_bound,
        )
        result = ExactParetoExplorer(instance, validate_models=False).run()
        forward = (
            original.task_map,
            original.resource_map,
            original.message_map,
            original.link_map,
        )
        inverse = tuple(
            invert_name_map(mapping)
            for mapping in (
                twin.task_map,
                twin.resource_map,
                twin.message_map,
                twin.link_map,
            )
        )
        for entry in result.to_dict()["front"]:
            canonical_entry = remap_front_entry(entry, *forward)
            served = remap_front_entry(canonical_entry, *inverse)
            if served["vector"] != entry["vector"]:
                self.diverge("objective vector changed under remapping")
            implementation = Implementation(
                binding=dict(served["binding"]),
                routes={m: list(r) for m, r in served["routes"].items()},
                schedule=dict(served["schedule"]),
                objectives=dict(served["objective_values"]),
            )
            problems = validate(renamed, implementation)
            if problems:
                self.diverge(
                    f"remapped witness invalid for the renamed twin: "
                    f"{problems[:3]}"
                )

        mutated = Specification(
            spec.application,
            spec.architecture,
            (replace(spec.mappings[0], wcet=spec.mappings[0].wcet + 1),)
            + spec.mappings[1:],
        )
        perturbed = canonicalize_specification(mutated)
        if perturbed.digest == original.digest:
            self.diverge(
                "digest collision: a WCET perturbation kept the canonical "
                "digest (false cache hit)"
            )


ORACLES: Dict[str, Oracle] = {
    oracle.name: oracle
    for oracle in (
        GroundingOracle(),
        SolvingOracle(),
        PickleOracle(),
        LintOracle(),
        ReorderOracle(),
        FrontOracle(),
        ScaleOracle(),
        RenameOracle(),
        SolverCoreOracle(),
        SymmetryFrontOracle(),
        DomainSoundnessOracle(),
        ServeCacheOracle(),
    )
}


def oracle_names() -> List[str]:
    return list(ORACLES)


def select_oracles(names: Optional[Sequence[str]] = None) -> List[Oracle]:
    """Resolve oracle names (None = all), preserving registry order."""
    if not names:
        return list(ORACLES.values())
    unknown = [name for name in names if name not in ORACLES]
    if unknown:
        raise KeyError(
            f"unknown oracle(s) {unknown}; have {oracle_names()}"
        )
    return [ORACLES[name] for name in ORACLES if name in set(names)]
