"""Platform symmetry analysis and lex-leader constraint synthesis.

:func:`analyze_specification` models a
:class:`~repro.synthesis.model.Specification`'s platform as a colored
digraph — one vertex per resource, colored by everything the objectives
can observe about it (allocation cost plus the exact multiset of
``(task, wcet, energy)`` mapping options targeting it), one edge color
per ordered resource pair carrying the multiset of ``(delay, energy)``
attributes of the parallel links — and hands it to the
:mod:`repro.graphs` automorphism engine.  Two resources end up
in one orbit only when they are *observationally interchangeable*: a
platform automorphism ``pi`` maps any feasible implementation to a
feasible implementation with the *identical* objective vector (latency,
energy, cost and period all read only colors ``pi`` preserves).

:func:`lex_leader_program` turns the generator set into ground ASP
rules over the encoding's ``bind/2`` atoms.  For each generator ``pi``
the binding vector ``B = (idx(B(t_1)), ..., idx(B(t_n)))`` (tasks in
declaration order, resources by declaration index) is constrained to be
lexicographically no greater than its image ``pi(B)``.  Because
``bind(t, r)`` statically fixes both ``idx(r)`` and ``idx(pi(r))``,
each position is one of three static cases — ``eq`` (``pi`` fixes
``r``), ``lt`` (``idx(pi(r)) > idx(r)``: the prefix turns strictly
smaller, nothing further is constrained) or ``gt`` (``idx(pi(r)) <
idx(r)``: forbidden while the prefix is all-equal) — so the whole
constraint compiles to a prefix-equality chain::

    sym_eq(g, j)  :- bind(t_j, r).          % for eq options r
    sym_pre(g, 1) :- sym_eq(g, 1).
    sym_pre(g, j) :- sym_pre(g, j-1), sym_eq(g, j).
    :- sym_pre(g, j-1), bind(t_j, r).       % for gt options r

**Exactness argument** (docs/SYMMETRY.md has the full version): every
automorphism preserves feasibility and the objective vector, so the
lex-minimal element of each solution orbit satisfies ``B <= pi(B)`` for
*every* group element — in particular for each generator — and
survives the constraints.  Every objective vector of the unbroken front
is therefore still witnessed, and no infeasible or new vector can
appear: the Pareto front *of vectors* is bit-identical with breaking on
or off.  The guarantee needs ``routing="free"`` (fixed-route tables
pick one canonical path per pair whose energy/cost need not be
``pi``-invariant) and no pinned bindings (a pin can exclude the orbit's
lex-minimal representative): ``encode`` declines under fixed routing,
and :func:`repro.dse.explorer.pin_symmetry` turns breaking off for
pinned explorations.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Set, Tuple

from repro.graphs import AutomorphismGroup, ColoredGraph

__all__ = [
    "PlatformSymmetry",
    "SymmetryInfo",
    "analyze_specification",
    "lex_leader_program",
]


@dataclass(frozen=True)
class PlatformSymmetry:
    """The automorphism structure of one platform."""

    #: Resource names in declaration order (the index space of generators).
    resources: Tuple[str, ...]
    #: Strong generating set; each entry maps resource index -> image index.
    generators: Tuple[Tuple[int, ...], ...]
    #: Exact order of the automorphism group.
    order: int
    #: Resource-name orbits under the full group, sorted.
    orbits: Tuple[Tuple[str, ...], ...]
    #: Wall seconds spent detecting the group.
    seconds: float

    @property
    def trivial(self) -> bool:
        return self.order <= 1

    @property
    def nontrivial_orbits(self) -> Tuple[Tuple[str, ...], ...]:
        return tuple(orbit for orbit in self.orbits if len(orbit) > 1)


@dataclass(frozen=True)
class SymmetryInfo:
    """What ``encode(symmetry=...)`` did, recorded on the instance.

    Shipped to parallel workers inside the pickled instance, so it stays
    a small summary rather than the full :class:`PlatformSymmetry`.
    """

    #: The requested mode (always "auto"; ``symmetry="off"`` records none).
    mode: str
    #: Whether lex-leader constraints were injected into the program.
    applied: bool
    #: Number of generators of the automorphism group.
    generators: int
    #: Exact group order (1 = only the identity).
    order: int
    #: Number of non-trivial resource orbits.
    orbits: int
    #: Ground integrity constraints synthesized (0 when not applied).
    constraints: int
    #: Wall seconds of analysis + synthesis.
    seconds: float
    #: Why breaking was declined (``auto`` mode), or None.
    declined: Optional[str] = None


def _platform_graph(spec) -> ColoredGraph:
    """The platform as a colored digraph (see module docstring)."""
    resources = [resource.name for resource in spec.architecture.resources]
    index = {name: i for i, name in enumerate(resources)}
    options_by_resource: Dict[str, List[Tuple[str, int, int]]] = {
        name: [] for name in resources
    }
    for option in spec.mappings:
        options_by_resource[option.resource].append(
            (option.task, option.wcet, option.energy)
        )
    colors = [
        (
            resource.cost,
            tuple(sorted(options_by_resource[resource.name])),
        )
        for resource in spec.architecture.resources
    ]
    edge_attrs: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    for link in spec.architecture.links:
        pair = (index[link.source], index[link.target])
        edge_attrs.setdefault(pair, []).append((link.delay, link.energy))
    edges = {pair: tuple(sorted(attrs)) for pair, attrs in edge_attrs.items()}
    return ColoredGraph(len(resources), colors, edges)


def analyze_specification(spec) -> PlatformSymmetry:
    """Detect the platform automorphism group of ``spec``."""
    started = perf_counter()
    resources = tuple(resource.name for resource in spec.architecture.resources)
    group: AutomorphismGroup = _platform_graph(spec).automorphism_group()
    orbits = tuple(
        tuple(resources[v] for v in orbit) for orbit in group.orbits
    )
    return PlatformSymmetry(
        resources=resources,
        generators=group.generators,
        order=group.order,
        orbits=orbits,
        seconds=perf_counter() - started,
    )


def lex_leader_program(spec, symmetry: PlatformSymmetry) -> Tuple[str, int]:
    """Ground lex-leader rules for ``spec`` under ``symmetry``.

    Returns ``(program_text, constraint_count)`` where the count is the
    number of distinct integrity constraints (the ``gt`` cases); ``("",
    0)`` when no generator constrains any binding (e.g. symmetries
    moving only routers, which no ``bind/2`` atom observes).  A
    first-position constraint has no prefix, so two generators can
    produce the same one; it is emitted once.
    """
    index = {name: i for i, name in enumerate(symmetry.resources)}
    options_by_task: Dict[str, List[str]] = {}
    for option in spec.mappings:
        options_by_task.setdefault(option.task, []).append(option.resource)
    task_order = [task.name for task in spec.application.tasks]

    lines: List[str] = []
    constraints: Set[str] = set()
    for gen_id, perm in enumerate(symmetry.generators, 1):
        moved = {i for i, image in enumerate(perm) if image != i}
        # Positions: tasks (in declaration order) with an option on a
        # moved resource; per position the static eq/lt/gt option split.
        positions: List[Tuple[str, List[str], List[str]]] = []
        for task in task_order:
            options = options_by_task.get(task, [])
            if not any(index[r] in moved for r in options):
                continue  # statically always-equal; skip the position
            eq = [r for r in options if perm[index[r]] == index[r]]
            gt = [r for r in options if perm[index[r]] < index[r]]
            positions.append((task, eq, gt))
        # The prefix-equality chain dies at the first position with no eq
        # option; constraints beyond the last reachable gt position are
        # unreachable and would only leave dead rules behind.
        horizon = len(positions)
        for j, (_task, eq, _gt) in enumerate(positions, 1):
            if not eq:
                horizon = j
                break
        last_gt = max(
            (j for j, (_t, _e, gt) in enumerate(positions, 1) if gt and j <= horizon),
            default=0,
        )
        if last_gt == 0:
            continue
        lines.append(f"% lex-leader for platform generator {gen_id}")
        prefix = ""
        for j, (task, eq, gt) in enumerate(positions[:last_gt], 1):
            for resource in gt:
                constraint = f":- {prefix}bind({task}, {resource})."
                if constraint not in constraints:
                    constraints.add(constraint)
                    lines.append(constraint)
            if j == last_gt:
                break
            for resource in eq:
                lines.append(f"sym_eq({gen_id}, {j}) :- bind({task}, {resource}).")
            body = f"{prefix}sym_eq({gen_id}, {j})."
            lines.append(f"sym_pre({gen_id}, {j}) :- {body}")
            prefix = f"sym_pre({gen_id}, {j}), "
    return "\n".join(lines), len(constraints)
