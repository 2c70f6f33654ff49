"""The ASPmT encoding of system-level synthesis.

Boolean (ASP) part — binding, allocation, routing:

.. code-block:: text

    1 { bind(T, R) : map(T, R, _, _) } 1 :- task(T).
    alloc(R) :- bind(T, R).
    alloc(A) :- route(M, L), link(L, A, B).
    alloc(B) :- route(M, L), link(L, A, B).
    { route(M, L) : link(L, _, _) } :- message(M).
    reached(M, R) :- comm(M, S, _), bind(S, R).
    reached(M, B) :- reached(M, A), route(M, L), link(L, A, B).
    :- comm(M, _, T), bind(T, R), not reached(M, R).
    :- route(M, L), link(L, A, _), not reached(M, A).
    :- message(M), res(R), 2 <= #count { L : route(M, L), link(L, _, R) }.
    :- route(M, L), link(L, _, B), comm(M, S, _), bind(S, B).
    needed(M, B) :- comm(M, _, T), bind(T, B).
    needed(M, B) :- route(M, L), link(L, B, _).
    :- route(M, L), link(L, _, B), not needed(M, B).

Together the routing constraints force each message onto a *simple path*
from the sender's resource to the receiver's resource: the recursive
``reached`` predicate (non-tight — handled by the unfounded-set
propagator) rules out disconnected link sets, the in-degree bound rules
out joins/cycles through the path, and the dead-end constraint prunes
useless appendices.

Theory (ASPmT) part — scheduling and latency, evaluated on partial
assignments by :class:`repro.theory.linear.LinearPropagator`:

.. code-block:: text

    &dom { 0..H } = start(T) :- task(T).
    &dom { 0..H } = latency.
    &sum { start(T2) - start(T1)
         ; -W, T1, R : bind(T1, R), map(T1, R, W, _)
         ; -D, M, L : route(M, L), hopdelay(M, L, D) } >= 0 :- comm(M, T1, T2).
    &sum { latency - start(T)
         ; -W, T, R : bind(T, R), map(T, R, W, _) } >= 0 :- task(T).

Objectives are declared symbolically (:class:`ObjectiveSpec`) and
resolved into solver literals by the DSE explorer:

* latency — the theory variable ``latency``,
* energy — ``sum(map energy over bind) + sum(size*link energy over route)``,
* cost — ``sum(resource cost over alloc)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from repro.asp.syntax import Function, Number, Symbol
from repro.graphs import dijkstra_paths
from repro.synthesis.model import Specification, SpecificationError

__all__ = [
    "ObjectiveSpec",
    "EncodedInstance",
    "Facts",
    "encode",
    "OBJECTIVES",
    "ALL_OBJECTIVES",
]

#: The default objective names of :func:`encode`.
OBJECTIVES = ("latency", "energy", "cost")

#: All supported objectives; ``period`` is the pipelined initiation
#: interval (max accumulated execution demand on any resource).
ALL_OBJECTIVES = ("latency", "energy", "cost", "period")


@dataclass(frozen=True)
class ObjectiveSpec:
    """A minimization objective declared by the encoding.

    ``kind`` is ``"pb"`` (pseudo-Boolean: ``terms`` maps atoms to
    weights) or ``"var"`` (the lower bound of theory variable
    ``variable``).
    """

    name: str
    kind: str
    terms: Tuple[Tuple[int, Symbol], ...] = ()
    variable: Optional[Symbol] = None
    #: Inclusive upper bound of the objective value (for archives/plots).
    max_value: int = 0


@dataclass(frozen=True)
class Facts:
    """A block of ground instance facts; ``title`` heads it in the text."""

    title: str
    atoms: Tuple[Function, ...]

    def text(self) -> str:
        lines = [f"% --- {self.title} ---"]
        for atom in self.atoms:
            arguments = ", ".join(str(argument) for argument in atom.arguments)
            lines.append(f"{atom.name}({arguments}).")
        return "\n".join(lines)


@dataclass
class EncodedInstance:
    """The encoding of one specification.

    ``parts`` holds the program in order: the instance facts as
    :class:`Facts`, then each template block as text (the fixed routing
    tables are a second :class:`Facts` block).  :meth:`add_to` hands
    them to a :class:`~repro.asp.control.Control`, the facts as atoms
    with ``#const h``, so a request parses none of its facts and the
    template blocks' text recurs across specifications (``Control``
    parses each of them once per process).
    """

    specification: Specification
    parts: Tuple[Union[Facts, str], ...]
    objectives: Tuple[ObjectiveSpec, ...]
    horizon: int
    serialize: bool = False
    link_contention: bool = False
    #: What ``encode(symmetry=...)`` did (a
    #: :class:`repro.analysis.symmetry.SymmetryInfo`); None when off.
    symmetry: Optional[object] = None

    @property
    def program(self) -> str:
        """The whole program as text: ``#const h``, then the parts joined
        by newlines (what the linter and the spec analysis read)."""
        lines = [f"#const h = {self.horizon}."]
        for part in self.parts:
            lines.append(part.text() if isinstance(part, Facts) else part)
        return "\n".join(lines)

    def add_to(self, control) -> None:
        """Add the program to ``control``: the facts as atoms (with the
        ``#const h`` value), the template blocks as text."""
        constants = {"h": Number(self.horizon)}
        for part in self.parts:
            if isinstance(part, Facts):
                control.add_facts(part.atoms, constants)
                constants = None
            else:
                control.add(part)

    def objective(self, name: str) -> ObjectiveSpec:
        for spec in self.objectives:
            if spec.name == name:
                return spec
        raise KeyError(name)


_BINDING_RULES = """
% --- binding and allocation -------------------------------------------------
1 { bind(T, R) : map(T, R, _, _) } 1 :- task(T).
alloc(R) :- bind(T, R).
alloc(A) :- route(M, L), link(L, A, B).
alloc(B) :- route(M, L), link(L, A, B).
"""

_FREE_ROUTING_RULES = """
% --- routing as a degree of freedom: a simple path/tree per message -----------
{ route(M, L) : link(L, _, _) } :- message(M).
reached(M, R) :- comm(M, S, T), bind(S, R).
reached(M, B) :- reached(M, A), route(M, L), link(L, A, B).
:- comm(M, S, T), bind(T, R), not reached(M, R).
:- route(M, L), link(L, A, B), not reached(M, A).
:- message(M), res(R), 2 <= #count { L : route(M, L), link(L, X, R) }.
:- route(M, L), link(L, A, B), comm(M, S, T), bind(S, B).
needed(M, B) :- comm(M, S, T), bind(T, B).
needed(M, B) :- route(M, L), link(L, B, C).
:- route(M, L), link(L, A, B), not needed(M, B).
"""

_FIXED_ROUTING_RULES = """
% --- deterministic (fixed) routing: routes follow precomputed paths -----------
% fixedroute(A, B, L) facts enumerate the links of the canonical shortest
% path from resource A to resource B; a message bound to (A, B) uses
% exactly those links.  Routing is no longer a design decision.
route(M, L) :- comm(M, S, T), bind(S, A), bind(T, B), fixedroute(A, B, L).
:- comm(M, S, T), bind(S, A), bind(T, B), A != B, not routable(A, B).
"""

_SCHEDULING_RULES = """
% --- scheduling (background theory) ------------------------------------------
&dom { 0..h } = start(T) :- task(T).
&dom { 0..h } = latency.
&sum { start(T2) - start(T1)
     ; -W, T1, R : bind(T1, R), map(T1, R, W, E)
     ; -D, M, L : route(M, L), hopdelay(M, L, D) } >= 0 :- comm(M, T1, T2).
&sum { latency - start(T)
     ; -W, T, R : bind(T, R), map(T, R, W, E) } >= 0 :- task(T).
"""

_CONTENTION_RULES = """
% --- link contention (optional) -------------------------------------------------
% Each message becomes a scheduled transmission: it starts (mstart) after
% its producer finishes and delivers after its whole route's delay;
% transmissions sharing a link are serialized (store-and-forward TDMA).
&dom { 0..h } = mstart(M) :- message(M).
&sum { mstart(M) - start(T1)
     ; -W, T1, R : bind(T1, R), map(T1, R, W, E) } >= 0 :- comm(M, T1, T2).
&sum { start(T2) - mstart(M)
     ; -D, M, L : route(M, L), hopdelay(M, L, D) } >= 0 :- comm(M, T1, T2).
clash(M1, M2) :- route(M1, L), route(M2, L), M1 < M2.
1 { mbefore(M1, M2) ; mbefore(M2, M1) } 1 :- clash(M1, M2).
&sum { mstart(M2) - mstart(M1)
     ; -D, M1, L : route(M1, L), hopdelay(M1, L, D) } >= 0 :- mbefore(M1, M2).
"""

_DEADLINE_RULES = """
% --- per-task hard deadlines (background theory) --------------------------------
% A task with deadline(T, D) must *complete* by D under its chosen binding.
&sum { start(T) ; W, T, R : bind(T, R), map(T, R, W, E) } <= D :- deadline(T, D).
"""

_PERIOD_RULES = """
% --- pipelined throughput (background theory) ----------------------------------
% In steady state every resource must finish its accumulated work within
% one initiation interval: period >= sum of wcets of the tasks bound to it.
&dom { 0..h } = period.
&sum { period ; -W, T : bind(T, R), map(T, R, W, E) } >= 0 :- res(R).
"""

_SERIALIZE_RULES = """
% --- resource serialization (optional) ----------------------------------------
conflict(T1, T2) :- bind(T1, R), bind(T2, R), T1 < T2.
1 { seq(T1, T2); seq(T2, T1) } 1 :- conflict(T1, T2).
&sum { start(T2) - start(T1)
     ; -W, T1, R : bind(T1, R), map(T1, R, W, E) } >= 0 :- seq(T1, T2).
"""


def _atom(name: str, *arguments) -> Function:
    """A fact atom: names become constants, ints numbers."""
    return Function(
        name,
        [
            Function(argument) if isinstance(argument, str) else Number(argument)
            for argument in arguments
        ],
    )


def _facts(spec: Specification) -> Facts:
    atoms: List[Function] = []
    for task in spec.application.tasks:
        atoms.append(_atom("task", task.name))
    for message in spec.application.messages:
        atoms.append(_atom("message", message.name))
        for target in message.targets:
            atoms.append(_atom("comm", message.name, message.source, target))
    for resource in spec.architecture.resources:
        atoms.append(_atom("res", resource.name))
    for link in spec.architecture.links:
        atoms.append(_atom("link", link.name, link.source, link.target))
    for option in spec.mappings:
        atoms.append(
            _atom("map", option.task, option.resource, option.wcet, option.energy)
        )
    for message in spec.application.messages:
        for link in spec.architecture.links:
            delay = link.delay * max(message.size, 1)
            atoms.append(_atom("hopdelay", message.name, link.name, delay))
    for task in spec.application.tasks:
        if task.deadline is not None:
            atoms.append(_atom("deadline", task.name, task.deadline))
    return Facts("instance facts", tuple(atoms))


def _fixed_route_facts(spec: Specification) -> Facts:
    """``fixedroute/3`` and ``routable/2`` facts: canonical shortest paths.

    Deterministic dimension-free equivalent of XY routing: for every
    ordered resource pair the delay-shortest path (stable tie-break from
    the construction order; of parallel links the fastest, the first
    declared among equals) is precomputed; under ``routing="fixed"``
    messages must follow these paths, removing routing from the design
    space.
    """
    out_edges = {
        resource: [(link.target, link.delay, link) for link in links]
        for resource, links in spec.architecture.out_links().items()
    }
    atoms: List[Function] = []
    for source in out_edges:
        for target, route in sorted(dijkstra_paths(out_edges, source).items()):
            if target == source:
                continue
            atoms.append(_atom("routable", source, target))
            for link in route:
                atoms.append(_atom("fixedroute", source, target, link.name))
    return Facts("fixed routing tables", tuple(atoms))


def _objective_specs(
    spec: Specification, names: Sequence[str]
) -> Tuple[ObjectiveSpec, ...]:
    out: List[ObjectiveSpec] = []
    for name in names:
        if name == "latency":
            out.append(
                ObjectiveSpec(
                    "latency",
                    "var",
                    variable=Function("latency"),
                    max_value=spec.horizon(),
                )
            )
        elif name == "energy":
            terms: List[Tuple[int, Symbol]] = []
            for option in spec.mappings:
                atom = Function(
                    "bind", (Function(option.task), Function(option.resource))
                )
                terms.append((option.energy, atom))
            for message in spec.application.messages:
                for link in spec.architecture.links:
                    atom = Function(
                        "route", (Function(message.name), Function(link.name))
                    )
                    terms.append((link.energy * max(message.size, 1), atom))
            out.append(
                ObjectiveSpec(
                    "energy", "pb", terms=tuple(terms), max_value=spec.max_energy()
                )
            )
        elif name == "period":
            out.append(
                ObjectiveSpec(
                    "period",
                    "var",
                    variable=Function("period"),
                    max_value=spec.horizon(),
                )
            )
        elif name == "cost":
            terms = [
                (resource.cost, Function("alloc", (Function(resource.name),)))
                for resource in spec.architecture.resources
                if resource.cost
            ]
            out.append(
                ObjectiveSpec("cost", "pb", terms=tuple(terms), max_value=spec.max_cost())
            )
        else:
            raise ValueError(f"unknown objective {name!r}")
    return tuple(out)


def encode(
    spec: Specification,
    objectives: Sequence[str] = OBJECTIVES,
    serialize: bool = False,
    horizon: Optional[int] = None,
    latency_bound: Optional[int] = None,
    routing: str = "free",
    link_contention: bool = False,
    lint: bool = False,
    symmetry: str = "auto",
) -> EncodedInstance:
    """Encode ``spec`` as an ASPmT program plus objective declarations.

    ``serialize=True`` adds disjunctive resource serialization (tasks
    sharing a resource execute in some total order); the default models
    fully pipelined resources, as in the paper's base encoding.
    ``latency_bound`` adds a hard end-to-end deadline (a *design
    constraint*, pruning the space before any optimization).
    ``routing`` selects routing freedom: ``"free"`` (paths/trees are
    design decisions — the paper's model) or ``"fixed"`` (canonical
    shortest paths, as with dimension-ordered NoC routing).
    ``link_contention=True`` additionally serializes transmissions that
    share a link (store-and-forward TDMA-style arbitration).
    ``lint=True`` runs the spec validator (:mod:`repro.analysis.spec`)
    first and raises :class:`SpecificationError` on error-severity
    findings — catching unroutable communications or unsatisfiable
    deadlines before they surface as an inexplicably empty Pareto front.
    ``symmetry="auto"`` (the default) injects lex-leader
    symmetry-breaking constraints over the ``bind/2`` atoms for the
    platform's automorphism group (:mod:`repro.analysis.symmetry`); it
    declines when the group is trivial or routing is fixed, and records
    what it did on :attr:`EncodedInstance.symmetry`.  ``"off"`` analyzes
    nothing.  The Pareto front *of objective vectors* is identical
    either way (symmetric mappings share their vector); only the
    witness implementations and the search effort change.  Encode with
    ``"off"`` to pin bindings (see :func:`repro.dse.explorer.pin_symmetry`).
    """
    if routing not in ("free", "fixed"):
        raise ValueError(f"unknown routing mode {routing!r}")
    if symmetry not in ("auto", "off"):
        raise ValueError(f"unknown symmetry mode {symmetry!r}; have auto, off")
    if lint:
        from repro.analysis import Severity, validate_specification

        findings = validate_specification(spec, objectives)
        errors = [f for f in findings if f.severity is Severity.ERROR]
        if errors:
            raise SpecificationError(
                "; ".join(f"[{f.rule}] {f.message}" for f in errors)
            )
    h = horizon if horizon is not None else spec.horizon()
    parts: List[Union[Facts, str]] = [_facts(spec), _BINDING_RULES]
    if routing == "fixed":
        parts.append(_fixed_route_facts(spec))
        parts.append(_FIXED_ROUTING_RULES)
    else:
        parts.append(_FREE_ROUTING_RULES)
    has_deadlines = any(t.deadline is not None for t in spec.application.tasks)
    if (
        "latency" in objectives
        or serialize
        or latency_bound is not None
        or has_deadlines
        or link_contention
    ):
        parts.append(_SCHEDULING_RULES)
    if link_contention:
        parts.append(_CONTENTION_RULES)
    if has_deadlines:
        parts.append(_DEADLINE_RULES)
    if "period" in objectives:
        parts.append(_PERIOD_RULES)
    if serialize:
        parts.append(_SERIALIZE_RULES)
    if latency_bound is not None:
        parts.append(f"&sum {{ latency }} <= {latency_bound}.")
    symmetry_info = None
    if symmetry == "auto":
        symmetry_info = _apply_symmetry(spec, routing, parts)
    return EncodedInstance(
        specification=spec,
        parts=tuple(parts),
        objectives=_objective_specs(spec, objectives),
        horizon=h,
        serialize=serialize,
        link_contention=link_contention,
        symmetry=symmetry_info,
    )


def _apply_symmetry(spec: Specification, routing: str, parts: List[Union[Facts, str]]):
    """Analyze the platform and append lex-leader rules to ``parts``."""
    from time import perf_counter

    from repro.analysis.symmetry import (
        SymmetryInfo,
        analyze_specification,
        lex_leader_program,
    )

    started = perf_counter()
    platform = analyze_specification(spec)
    declined: Optional[str] = None
    if routing == "fixed":
        declined = "fixed routing tables are not automorphism-invariant"
    elif platform.trivial:
        declined = "trivial automorphism group"
    applied = False
    constraints = 0
    if declined is None:
        text, constraints = lex_leader_program(spec, platform)
        if constraints:
            parts.append("% --- lex-leader symmetry breaking ---\n" + text)
            applied = True
        else:
            declined = "no generator constrains any binding"
    return SymmetryInfo(
        mode="auto",
        applied=applied,
        generators=len(platform.generators),
        order=platform.order,
        orbits=len(platform.nontrivial_orbits),
        constraints=constraints,
        seconds=perf_counter() - started,
        declined=declined,
    )

