"""Specification data model for system-level synthesis.

All entities are immutable; the :class:`Specification` validates the
cross-references once at construction and exposes derived views (graphs,
option tables, design-space size) used by the encoding, the baselines and
the benchmark harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

import networkx as nx

from repro.asp.parser import IDENT

__all__ = [
    "Task",
    "Message",
    "Application",
    "Resource",
    "Link",
    "Architecture",
    "MappingOption",
    "Specification",
    "SpecificationError",
]


class SpecificationError(ValueError):
    """Raised for inconsistent specifications."""


def _check_name(kind: str, name: object) -> None:
    """Every entity name becomes an ASP constant in the encoding, both as
    a fact atom's argument and in the program text; ``h`` is the
    encoding's horizon ``#const``, which the text would substitute."""
    if not isinstance(name, str) or IDENT.fullmatch(name) is None:
        raise SpecificationError(
            f"{kind} name {name!r} is not an ASP constant (a lower-case "
            "letter, then letters, digits or underscores)"
        )
    if name == "h":
        raise SpecificationError(
            f"{kind} name 'h' is reserved for the encoding's horizon constant"
        )


@dataclass(frozen=True)
class Task:
    """A computational actor of the application graph.

    ``deadline`` (optional) is a hard bound on the task's *completion*
    time — a per-task design constraint (TGFF's HARD_DEADLINE).
    """

    name: str
    deadline: Optional[int] = None

    def __post_init__(self) -> None:
        _check_name("task", self.name)
        if self.deadline is not None and self.deadline <= 0:
            raise SpecificationError(f"task {self.name!r} has a non-positive deadline")


@dataclass(frozen=True)
class Message:
    """A data dependency: ``source`` produces data consumed by ``target``.

    ``size`` scales the per-hop communication delay/energy (abstract
    units).  ``extra_targets`` turns the message into a *multicast*: the
    data is routed as a tree reaching every reader (target plus
    extra_targets).
    """

    name: str
    source: str
    target: str
    size: int = 1
    extra_targets: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        _check_name("message", self.name)
        if self.size < 0:
            raise SpecificationError(f"message {self.name!r} has negative size")
        if self.target in self.extra_targets:
            raise SpecificationError(
                f"message {self.name!r} lists its target twice"
            )
        if len(set(self.extra_targets)) != len(self.extra_targets):
            raise SpecificationError(
                f"message {self.name!r} has duplicate extra targets"
            )

    @property
    def targets(self) -> Tuple[str, ...]:
        """All readers of the message."""
        return (self.target,) + self.extra_targets


@dataclass(frozen=True)
class Resource:
    """A processing element or router of the architecture graph.

    ``cost`` is the one-time allocation cost (area/price) paid when at
    least one task is bound to the resource or a message is routed
    through it.  Pure routers have no mapping options.
    """

    name: str
    cost: int = 0

    def __post_init__(self) -> None:
        _check_name("resource", self.name)
        if self.cost < 0:
            raise SpecificationError(f"resource {self.name!r} has negative cost")


@dataclass(frozen=True)
class Link:
    """A directed communication link between two resources."""

    name: str
    source: str
    target: str
    delay: int = 1
    energy: int = 1

    def __post_init__(self) -> None:
        _check_name("link", self.name)
        if self.delay < 0 or self.energy < 0:
            raise SpecificationError(f"link {self.name!r} has negative delay/energy")
        if self.source == self.target:
            raise SpecificationError(f"link {self.name!r} is a self-loop")


@dataclass(frozen=True)
class MappingOption:
    """Task ``task`` may run on ``resource`` with the given WCET/energy."""

    task: str
    resource: str
    wcet: int
    energy: int

    def __post_init__(self) -> None:
        if self.wcet <= 0:
            raise SpecificationError(
                f"mapping {self.task}->{self.resource} needs positive wcet"
            )
        if self.energy < 0:
            raise SpecificationError(
                f"mapping {self.task}->{self.resource} has negative energy"
            )


@dataclass(frozen=True)
class Application:
    """Tasks plus messages; must form a DAG over tasks."""

    tasks: Tuple[Task, ...]
    messages: Tuple[Message, ...]

    def __post_init__(self) -> None:
        names = [t.name for t in self.tasks]
        if len(set(names)) != len(names):
            raise SpecificationError("duplicate task names")
        task_set = set(names)
        message_names = [m.name for m in self.messages]
        if len(set(message_names)) != len(message_names):
            raise SpecificationError("duplicate message names")
        for message in self.messages:
            endpoints = (message.source,) + message.targets
            if any(task not in task_set for task in endpoints):
                raise SpecificationError(
                    f"message {message.name!r} references unknown tasks"
                )
            if message.source in message.targets:
                raise SpecificationError(f"message {message.name!r} is a self-loop")
        if not nx.is_directed_acyclic_graph(self.graph()):
            raise SpecificationError("application graph has a dependency cycle")

    def graph(self) -> nx.DiGraph:
        graph = nx.DiGraph()
        graph.add_nodes_from(t.name for t in self.tasks)
        for message in self.messages:
            for target in message.targets:
                graph.add_edge(message.source, target, message=message)
        return graph

    def task(self, name: str) -> Task:
        for task in self.tasks:
            if task.name == name:
                return task
        raise KeyError(name)


@dataclass(frozen=True)
class Architecture:
    """Resources plus directed links."""

    resources: Tuple[Resource, ...]
    links: Tuple[Link, ...]

    def __post_init__(self) -> None:
        names = [r.name for r in self.resources]
        if len(set(names)) != len(names):
            raise SpecificationError("duplicate resource names")
        resource_set = set(names)
        link_names = [l.name for l in self.links]
        if len(set(link_names)) != len(link_names):
            raise SpecificationError("duplicate link names")
        for link in self.links:
            if link.source not in resource_set or link.target not in resource_set:
                raise SpecificationError(f"link {link.name!r} references unknown resources")

    def graph(self) -> nx.DiGraph:
        graph = nx.DiGraph()
        graph.add_nodes_from(r.name for r in self.resources)
        for link in self.links:
            graph.add_edge(link.source, link.target, link=link)
        return graph

    def resource(self, name: str) -> Resource:
        for resource in self.resources:
            if resource.name == name:
                return resource
        raise KeyError(name)


@dataclass(frozen=True)
class Specification:
    """A complete synthesis problem instance."""

    application: Application
    architecture: Architecture
    mappings: Tuple[MappingOption, ...]

    def __post_init__(self) -> None:
        tasks = {t.name for t in self.application.tasks}
        resources = {r.name for r in self.architecture.resources}
        seen = set()
        for option in self.mappings:
            if option.task not in tasks:
                raise SpecificationError(f"mapping references unknown task {option.task!r}")
            if option.resource not in resources:
                raise SpecificationError(
                    f"mapping references unknown resource {option.resource!r}"
                )
            key = (option.task, option.resource)
            if key in seen:
                raise SpecificationError(f"duplicate mapping option {key}")
            seen.add(key)
        for task in tasks:
            if not any(o.task == task for o in self.mappings):
                raise SpecificationError(f"task {task!r} has no mapping options")

    # -- derived views ------------------------------------------------------

    def options_of(self, task: str) -> List[MappingOption]:
        return [o for o in self.mappings if o.task == task]

    def option(self, task: str, resource: str) -> MappingOption:
        for o in self.mappings:
            if o.task == task and o.resource == resource:
                return o
        raise KeyError((task, resource))

    def binding_space_size(self) -> int:
        """Number of pure binding combinations (ignoring routing)."""
        size = 1
        for task in self.application.tasks:
            size *= len(self.options_of(task.name))
        return size

    def horizon(self) -> int:
        """A safe scheduling horizon: every task serialized with worst
        WCET plus every message on a worst-case-length route."""
        wcet_sum = sum(
            max(o.wcet for o in self.options_of(t.name))
            for t in self.application.tasks
        )
        max_delay = max((l.delay for l in self.architecture.links), default=0)
        max_hops = max(len(self.architecture.resources) - 1, 0)
        comm = sum(
            max_hops * max_delay * max(message.size, 1)
            for message in self.application.messages
        )
        return max(wcet_sum + comm, 1)

    def max_energy(self) -> int:
        """Upper bound on the energy objective (for &dom intervals)."""
        exec_energy = sum(
            max(o.energy for o in self.options_of(t.name))
            for t in self.application.tasks
        )
        link_energy = sum(
            m.size * sum(l.energy for l in self.architecture.links)
            for m in self.application.messages
        )
        return exec_energy + link_energy

    def max_cost(self) -> int:
        return sum(r.cost for r in self.architecture.resources)

    def lint(self, objectives: Optional[Sequence[str]] = None) -> list:
        """Static diagnostics for this spec (see :mod:`repro.analysis.spec`).

        Returns a list of :class:`repro.analysis.Diagnostic` — empty when
        the spec has no unroutable communications, isolated resources,
        unsatisfiable deadlines, or degenerate objectives.
        """
        from repro.analysis.spec import validate_specification

        return validate_specification(self, objectives)

    def summary(self) -> Dict[str, int]:
        """Instance characteristics (the Table I columns)."""
        return {
            "tasks": len(self.application.tasks),
            "messages": len(self.application.messages),
            "resources": len(self.architecture.resources),
            "links": len(self.architecture.links),
            "mapping_options": len(self.mappings),
            "binding_space": self.binding_space_size(),
        }
