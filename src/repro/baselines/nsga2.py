"""NSGA-II heuristic baseline.

A compact, dependency-free NSGA-II over the binding design space:

* genome — one mapping-option index per task,
* routing — deterministic shortest path (by delay) between the bound
  resources; this restriction makes the heuristic fast but means parts of
  the exact front (which may use longer-but-cheaper routes) are simply
  unreachable for it,
* objectives — recomputed from first principles via
  :func:`repro.synthesis.solution.recompute_objectives`.

Used as the inexact comparison point in the Fig. 1 benchmark: NSGA-II
finds a good approximation quickly, while the paper's method returns the
provably complete front.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dse.pareto import dominates, pareto_filter
from repro.synthesis.model import Link, Specification
from repro.synthesis.solution import Implementation, recompute_objectives
from repro.baselines.result import BaselineResult

__all__ = ["nsga2_front", "shortest_path_routes"]


def shortest_path_routes(
    spec: Specification, binding: Dict[str, str]
) -> Optional[Dict[str, List[str]]]:
    """Delay-shortest routes for every message under ``binding``.

    Unicast messages get the shortest path; multicast messages grow a
    Steiner-like tree greedily (nearest target first), keeping in-degree
    one so the result stays a feasible route tree.  Returns None when
    some endpoint pair is not connected.
    """
    out_links = spec.architecture.out_links()
    routes: Dict[str, List[str]] = {}
    for message in spec.application.messages:
        src = binding[message.source]
        tree_nodes = {src}
        links: List[str] = []
        pending = {binding[t] for t in message.targets} - tree_nodes
        while pending:
            grown = _grow_tree(out_links, tree_nodes, pending)
            if grown is None:
                return None
            new_links, new_nodes, reached = grown
            links.extend(new_links)
            tree_nodes |= new_nodes
            pending.discard(reached)
        routes[message.name] = links
    return routes


def _grow_tree(out_links: Dict[str, List[Link]], tree_nodes, targets):
    """Dijkstra from the whole tree to the nearest pending target.

    Path interiors avoid existing tree nodes, so attaching the path
    preserves the in-degree-one tree invariant.  Returns
    ``(links, new_nodes, reached_target)`` or None if unreachable.
    """
    import heapq

    dist = {node: 0 for node in tree_nodes}
    prev: Dict[str, Tuple[str, str]] = {}  # node -> (parent, link name)
    heap = [(0, node) for node in tree_nodes]
    heapq.heapify(heap)
    reached: Optional[str] = None
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist.get(node, float("inf")):
            continue
        if node in targets:
            reached = node
            break
        for link in out_links[node]:
            successor = link.target
            if successor in tree_nodes:
                continue
            candidate = d + link.delay
            if candidate < dist.get(successor, float("inf")):
                dist[successor] = candidate
                prev[successor] = (node, link.name)
                heapq.heappush(heap, (candidate, successor))
    if reached is None:
        return None
    links: List[str] = []
    new_nodes = set()
    current = reached
    while current not in tree_nodes:
        parent, link_name = prev[current]
        links.append(link_name)
        new_nodes.add(current)
        current = parent
    links.reverse()
    return links, new_nodes, reached


def _evaluate(
    spec: Specification,
    genome: Tuple[int, ...],
    options: List[List],
    names: Sequence[str],
) -> Optional[Tuple[Tuple[int, ...], Implementation]]:
    binding = {
        task.name: options[i][genome[i]].resource
        for i, task in enumerate(spec.application.tasks)
    }
    routes = shortest_path_routes(spec, binding)
    if routes is None:
        return None
    implementation = Implementation(binding=binding, routes=routes)
    objectives = recompute_objectives(spec, implementation)
    implementation.objectives = objectives
    vector = tuple(objectives[name] for name in names)
    return vector, implementation


def _non_dominated_sort(vectors: List[Tuple[int, ...]]) -> List[int]:
    """Front rank per individual (0 = non-dominated)."""
    n = len(vectors)
    ranks = [0] * n
    dominated_by = [0] * n
    dominates_list: List[List[int]] = [[] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if dominates(vectors[i], vectors[j]):
                dominates_list[i].append(j)
            elif dominates(vectors[j], vectors[i]):
                dominated_by[i] += 1
    current = [i for i in range(n) if dominated_by[i] == 0]
    rank = 0
    while current:
        nxt = []
        for i in current:
            ranks[i] = rank
            for j in dominates_list[i]:
                dominated_by[j] -= 1
                if dominated_by[j] == 0:
                    nxt.append(j)
        current = nxt
        rank += 1
    return ranks


def _crowding(vectors: List[Tuple[int, ...]], indices: List[int]) -> Dict[int, float]:
    """Crowding distance within one front."""
    distance = {i: 0.0 for i in indices}
    if len(indices) <= 2:
        for i in indices:
            distance[i] = float("inf")
        return distance
    k = len(vectors[0])
    for dim in range(k):
        ordered = sorted(indices, key=lambda i: vectors[i][dim])
        lo = vectors[ordered[0]][dim]
        hi = vectors[ordered[-1]][dim]
        distance[ordered[0]] = float("inf")
        distance[ordered[-1]] = float("inf")
        if hi == lo:
            continue
        for pos in range(1, len(ordered) - 1):
            gap = vectors[ordered[pos + 1]][dim] - vectors[ordered[pos - 1]][dim]
            distance[ordered[pos]] += gap / (hi - lo)
    return distance


def nsga2_front(
    spec: Specification,
    objectives: Sequence[str] = ("latency", "energy", "cost"),
    population: int = 24,
    generations: int = 30,
    seed: int = 0,
    mutation_rate: float = 0.2,
) -> BaselineResult:
    """Run NSGA-II; returns the final non-dominated approximation."""
    started = time.perf_counter()
    rng = random.Random(seed)
    names = tuple(objectives)
    options = [spec.options_of(task.name) for task in spec.application.tasks]
    genome_length = len(options)

    def random_genome() -> Tuple[int, ...]:
        return tuple(rng.randrange(len(opts)) for opts in options)

    evaluations = 0
    cache: Dict[Tuple[int, ...], Optional[Tuple[Tuple[int, ...], Implementation]]] = {}

    def evaluate(genome: Tuple[int, ...]):
        nonlocal evaluations
        if genome not in cache:
            evaluations += 1
            cache[genome] = _evaluate(spec, genome, options, names)
        return cache[genome]

    # Initial population (connected individuals only, with a retry cap).
    pop: List[Tuple[int, ...]] = []
    attempts = 0
    while len(pop) < population and attempts < population * 20:
        attempts += 1
        genome = random_genome()
        if evaluate(genome) is not None:
            pop.append(genome)
    if not pop:
        return BaselineResult(
            method="nsga2", objectives=names, front={}, exact=False,
            wall_time=time.perf_counter() - started,
        )

    archive: Dict[Tuple[int, ...], Implementation] = {}

    def record(genome: Tuple[int, ...]) -> None:
        result = evaluate(genome)
        if result is not None:
            vector, implementation = result
            archive.setdefault(vector, implementation)

    for genome in pop:
        record(genome)

    for _generation in range(generations):
        vectors = [evaluate(g)[0] for g in pop]
        ranks = _non_dominated_sort(vectors)
        crowding: Dict[int, float] = {}
        by_rank: Dict[int, List[int]] = {}
        for i, rank in enumerate(ranks):
            by_rank.setdefault(rank, []).append(i)
        for indices in by_rank.values():
            crowding.update(_crowding(vectors, indices))

        def tournament() -> Tuple[int, ...]:
            a, b = rng.randrange(len(pop)), rng.randrange(len(pop))
            if (ranks[a], -crowding[a]) <= (ranks[b], -crowding[b]):
                return pop[a]
            return pop[b]

        offspring: List[Tuple[int, ...]] = []
        while len(offspring) < population:
            mother, father = tournament(), tournament()
            child = tuple(
                (m if rng.random() < 0.5 else f) for m, f in zip(mother, father)
            )
            child = tuple(
                rng.randrange(len(options[i]))
                if rng.random() < mutation_rate
                else gene
                for i, gene in enumerate(child)
            )
            if evaluate(child) is not None:
                offspring.append(child)
                record(child)
        merged = pop + offspring
        merged_vectors = [evaluate(g)[0] for g in merged]
        merged_ranks = _non_dominated_sort(merged_vectors)
        merged_by_rank: Dict[int, List[int]] = {}
        for i, rank in enumerate(merged_ranks):
            merged_by_rank.setdefault(rank, []).append(i)
        survivors: List[int] = []
        for rank in sorted(merged_by_rank):
            indices = merged_by_rank[rank]
            if len(survivors) + len(indices) <= population:
                survivors.extend(indices)
            else:
                crowd = _crowding(merged_vectors, indices)
                indices.sort(key=lambda i: -crowd[i])
                survivors.extend(indices[: population - len(survivors)])
                break
        pop = [merged[i] for i in survivors]

    front = dict(pareto_filter(archive.items()))
    return BaselineResult(
        method="nsga2",
        objectives=names,
        front=front,
        exact=False,
        evaluations=evaluations,
        wall_time=time.perf_counter() - started,
    )
