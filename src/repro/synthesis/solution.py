"""Decoding and independent validation of synthesis solutions.

:func:`decode_model` turns an answer-set :class:`repro.asp.control.Model`
into an :class:`Implementation`; :func:`validate` re-checks feasibility
and recomputes the objective vector *without* any solver machinery, so
tests and the DSE can cross-validate the whole ASPmT stack against a
direct implementation of the problem semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.asp.control import Model
from repro.asp.syntax import Function
from repro.graphs import topological_order
from repro.synthesis.model import Link, Specification

__all__ = ["Implementation", "decode_model", "validate", "recompute_objectives"]


@dataclass
class Implementation:
    """One fully decided design point."""

    binding: Dict[str, str]  # task -> resource
    routes: Dict[str, List[str]]  # message -> ordered link names
    schedule: Dict[str, int] = field(default_factory=dict)  # task -> start
    #: Transmission start times (populated under link contention).
    message_schedule: Dict[str, int] = field(default_factory=dict)
    objectives: Dict[str, int] = field(default_factory=dict)

    def key(self) -> Tuple:
        """Hashable identity of the Boolean design decisions."""
        return (
            tuple(sorted(self.binding.items())),
            tuple(sorted((m, tuple(r)) for m, r in self.routes.items())),
        )


def decode_model(spec: Specification, model: Model) -> Implementation:
    """Extract binding, routes and schedule from an answer set."""
    binding: Dict[str, str] = {}
    for atom in model.atoms_of("bind", 2):
        task, resource = atom.arguments
        binding[str(task)] = str(resource)

    links_by_name = {l.name: l for l in spec.architecture.links}
    used: Dict[str, List[Link]] = {m.name: [] for m in spec.application.messages}
    for atom in model.atoms_of("route", 2):
        message, link = atom.arguments
        used[str(message)].append(links_by_name[str(link)])

    routes: Dict[str, List[str]] = {}
    for message in spec.application.messages:
        if message.extra_targets:
            routes[message.name] = _order_tree(
                used[message.name], binding.get(message.source, "")
            )
        else:
            routes[message.name] = _order_path(
                used[message.name],
                binding.get(message.source, ""),
                binding.get(message.target, ""),
            )

    schedule: Dict[str, int] = {}
    message_schedule: Dict[str, int] = {}
    ints = model.theory.get("ints", {})
    for symbol, value in ints.items():
        if isinstance(symbol, Function) and symbol.signature == ("start", 1):
            schedule[str(symbol.arguments[0])] = value
        elif isinstance(symbol, Function) and symbol.signature == ("mstart", 1):
            message_schedule[str(symbol.arguments[0])] = value

    implementation = Implementation(
        binding=binding,
        routes=routes,
        schedule=schedule,
        message_schedule=message_schedule,
    )
    implementation.objectives = recompute_objectives(spec, implementation)
    return implementation


def _order_path(links: List[Link], source: str, target: str) -> List[str]:
    """Order a set of path links from ``source`` to ``target``."""
    if not links:
        return []
    by_source = {link.source: link for link in links}
    ordered: List[str] = []
    current = source
    for _ in range(len(links)):
        link = by_source.get(current)
        if link is None:
            break
        ordered.append(link.name)
        current = link.target
    if len(ordered) != len(links) or current != target:
        # Not a clean path; return raw names for the validator to reject.
        return [link.name for link in links]
    return ordered


def _validate_tree(
    message: str,
    route: List[str],
    source: str,
    target_resources: set,
    links_by_name: Dict[str, Link],
) -> List[str]:
    """Structural checks for a multicast route tree."""
    problems: List[str] = []
    links = []
    for name in route:
        link = links_by_name.get(name)
        if link is None:
            problems.append(f"message {message}: unknown link {name}")
            return problems
        links.append(link)
    indegree: Dict[str, int] = {}
    for link in links:
        indegree[link.target] = indegree.get(link.target, 0) + 1
    for node, count in indegree.items():
        if count > 1:
            problems.append(f"message {message}: node {node} has in-degree {count}")
    if indegree.get(source):
        problems.append(f"message {message}: tree re-enters the source {source}")
    # Reachability from the source over the used links.
    by_source: Dict[str, List[Link]] = {}
    for link in links:
        by_source.setdefault(link.source, []).append(link)
    reached = {source}
    frontier = [source]
    while frontier:
        node = frontier.pop()
        for link in by_source.get(node, ()):
            if link.target not in reached:
                reached.add(link.target)
                frontier.append(link.target)
    for link in links:
        if link.source not in reached:
            problems.append(
                f"message {message}: link {link.name} is disconnected from {source}"
            )
    for target in target_resources:
        if target not in reached:
            problems.append(f"message {message}: target {target} is not reached")
    # Dead-end elimination: every leaf must host a target.
    for link in links:
        if link.target not in by_source and link.target not in target_resources:
            problems.append(
                f"message {message}: dead-end branch at {link.target}"
            )
    return problems


def _order_tree(links: List[Link], source: str) -> List[str]:
    """Order a multicast tree's links in BFS order from ``source``."""
    if not links:
        return []
    by_source: Dict[str, List[Link]] = {}
    for link in links:
        by_source.setdefault(link.source, []).append(link)
    ordered: List[str] = []
    frontier = [source]
    visited = {source}
    while frontier:
        node = frontier.pop(0)
        for link in sorted(by_source.get(node, []), key=lambda l: l.name):
            if link.target not in visited:
                visited.add(link.target)
                ordered.append(link.name)
                frontier.append(link.target)
    if len(ordered) != len(links):
        return [link.name for link in links]  # not a tree; validator rejects
    return ordered


def recompute_objectives(
    spec: Specification, implementation: Implementation
) -> Dict[str, int]:
    """Objective vector from first principles (no solver state).

    * latency: the makespan of ``implementation.schedule`` when one is
      present (this covers serialized resources), otherwise the
      earliest-start longest path through the precedence structure,
    * energy: execution energy of the chosen bindings plus size-scaled
      energy of every routed link,
    * cost: cost of every allocated resource (bindings plus route
      endpoints).
    """
    links_by_name = {l.name: l for l in spec.architecture.links}

    def wcet(task: str) -> int:
        return spec.option(task, implementation.binding[task]).wcet

    if implementation.schedule:
        latency = max(
            (
                implementation.schedule[t.name] + wcet(t.name)
                for t in spec.application.tasks
                if t.name in implementation.schedule
            ),
            default=0,
        )
    else:
        # Earliest-start schedule via topological order of the task DAG.
        incoming: Dict[str, List] = {}
        for message in spec.application.messages:
            for target in message.targets:
                incoming.setdefault(target, []).append(message)
        start: Dict[str, int] = {}
        for task in topological_order(spec.application.graph()):
            earliest = 0
            for message in incoming.get(task, ()):
                delay = sum(
                    links_by_name[name].delay * max(message.size, 1)
                    for name in implementation.routes.get(message.name, ())
                )
                earliest = max(
                    earliest, start[message.source] + wcet(message.source) + delay
                )
            start[task] = earliest
        latency = max(
            (start[t.name] + wcet(t.name) for t in spec.application.tasks), default=0
        )

    energy = sum(
        spec.option(task, resource).energy
        for task, resource in implementation.binding.items()
    )
    for message in spec.application.messages:
        for name in implementation.routes.get(message.name, ()):
            energy += links_by_name[name].energy * max(message.size, 1)

    allocated = set(implementation.binding.values())
    for route in implementation.routes.values():
        for name in route:
            link = links_by_name[name]
            allocated.add(link.source)
            allocated.add(link.target)
    cost = sum(
        resource.cost
        for resource in spec.architecture.resources
        if resource.name in allocated
    )

    # Pipelined initiation interval: the busiest resource's total demand.
    load: Dict[str, int] = {}
    for task, resource in implementation.binding.items():
        load[resource] = load.get(resource, 0) + spec.option(task, resource).wcet
    period = max(load.values(), default=0)

    return {"latency": latency, "energy": energy, "cost": cost, "period": period}


def validate(
    spec: Specification,
    implementation: Implementation,
    serialized: bool = False,
    link_contention: bool = False,
) -> List[str]:
    """Feasibility check; returns a list of violations (empty == valid).

    ``serialized=True`` additionally requires that tasks sharing a
    resource do not overlap in the schedule (the encoding's
    ``serialize`` option); ``link_contention=True`` requires that
    transmissions sharing a link do not overlap (``message_schedule``).
    """
    problems: List[str] = []
    links_by_name = {l.name: l for l in spec.architecture.links}

    # Binding: every task on one of its mapping options.
    for task in spec.application.tasks:
        resource = implementation.binding.get(task.name)
        if resource is None:
            problems.append(f"task {task.name} is unbound")
            continue
        try:
            spec.option(task.name, resource)
        except KeyError:
            problems.append(f"task {task.name} bound to invalid resource {resource}")

    # Routing: a simple path (unicast) or tree (multicast) between the
    # endpoint resources.
    for message in spec.application.messages:
        route = implementation.routes.get(message.name)
        if route is None:
            problems.append(f"message {message.name} has no route entry")
            continue
        src = implementation.binding.get(message.source)
        target_resources = [
            implementation.binding.get(t) for t in message.targets
        ]
        if src is None or any(r is None for r in target_resources):
            continue  # already reported
        if message.extra_targets:
            problems.extend(
                _validate_tree(
                    message.name, route, src, set(target_resources), links_by_name
                )
            )
            continue
        tgt = target_resources[0]
        current = src
        visited = {src}
        ok = True
        for name in route:
            link = links_by_name.get(name)
            if link is None or link.source != current:
                problems.append(f"message {message.name}: broken route at {name}")
                ok = False
                break
            current = link.target
            if current in visited:
                problems.append(f"message {message.name}: route revisits {current}")
                ok = False
                break
            visited.add(current)
        if ok and current != tgt:
            problems.append(
                f"message {message.name}: route ends at {current}, not {tgt}"
            )

    # Schedule: precedence constraints with communication delays.
    if implementation.schedule:
        for message in spec.application.messages:
            src = implementation.schedule.get(message.source)
            if src is None:
                problems.append(f"message {message.name}: source unscheduled")
                continue
            resource = implementation.binding.get(message.source)
            if resource is None:
                continue
            wcet = spec.option(message.source, resource).wcet
            delay = sum(
                links_by_name[name].delay * max(message.size, 1)
                for name in implementation.routes.get(message.name, ())
            )
            for target in message.targets:
                tgt = implementation.schedule.get(target)
                if tgt is None:
                    problems.append(f"message {message.name}: {target} unscheduled")
                    continue
                if tgt < src + wcet + delay:
                    problems.append(
                        f"message {message.name}: start({target})={tgt} < "
                        f"start({message.source})+wcet+delay={src + wcet + delay}"
                    )

    # Transmission schedule (present under link contention).
    if implementation.message_schedule:
        def route_delay(message) -> int:
            return sum(
                links_by_name[name].delay * max(message.size, 1)
                for name in implementation.routes.get(message.name, ())
            )

        for message in spec.application.messages:
            mstart = implementation.message_schedule.get(message.name)
            src = implementation.schedule.get(message.source)
            resource = implementation.binding.get(message.source)
            if mstart is None or src is None or resource is None:
                continue
            wcet = spec.option(message.source, resource).wcet
            if mstart < src + wcet:
                problems.append(
                    f"message {message.name}: transmitted at {mstart}, before "
                    f"its producer finishes at {src + wcet}"
                )
            for target in message.targets:
                tgt = implementation.schedule.get(target)
                if tgt is not None and tgt < mstart + route_delay(message):
                    problems.append(
                        f"message {message.name}: {target} starts before delivery"
                    )
        if link_contention:
            messages = list(spec.application.messages)
            for i, first in enumerate(messages):
                for second in messages[i + 1 :]:
                    shared = set(implementation.routes.get(first.name, ())) & set(
                        implementation.routes.get(second.name, ())
                    )
                    if not shared:
                        continue
                    s1 = implementation.message_schedule.get(first.name)
                    s2 = implementation.message_schedule.get(second.name)
                    if s1 is None or s2 is None:
                        continue
                    d1, d2 = route_delay(first), route_delay(second)
                    if not (s1 + d1 <= s2 or s2 + d2 <= s1):
                        problems.append(
                            f"messages {first.name} and {second.name} overlap "
                            f"on shared links {sorted(shared)}"
                        )

    # Per-task hard deadlines.
    if implementation.schedule:
        for task in spec.application.tasks:
            if task.deadline is None:
                continue
            start = implementation.schedule.get(task.name)
            resource = implementation.binding.get(task.name)
            if start is None or resource is None:
                continue
            finish = start + spec.option(task.name, resource).wcet
            if finish > task.deadline:
                problems.append(
                    f"task {task.name} finishes at {finish}, after its "
                    f"deadline {task.deadline}"
                )

    # Serialization: no overlap on shared resources.
    if serialized and implementation.schedule:
        tasks = [t.name for t in spec.application.tasks]
        for i, first in enumerate(tasks):
            for second in tasks[i + 1 :]:
                if implementation.binding.get(first) != implementation.binding.get(
                    second
                ):
                    continue
                s1 = implementation.schedule.get(first)
                s2 = implementation.schedule.get(second)
                if s1 is None or s2 is None:
                    continue
                w1 = spec.option(first, implementation.binding[first]).wcet
                w2 = spec.option(second, implementation.binding[second]).wcet
                if not (s1 + w1 <= s2 or s2 + w2 <= s1):
                    problems.append(
                        f"tasks {first} and {second} overlap on "
                        f"{implementation.binding[first]}"
                    )

    # Objectives: recomputation must match (when present).
    if implementation.objectives:
        expected = recompute_objectives(spec, implementation)
        for name, value in implementation.objectives.items():
            if name in expected and expected[name] != value:
                problems.append(
                    f"objective {name}: claimed {value}, recomputed {expected[name]}"
                )
    return problems
