"""Graph algorithms: dependency orders, shortest routes, color refinement.

This module imports nothing from ``repro``, so every layer may use it.

**Plain digraphs** are dicts ``node -> {successor: None}``; :func:`add_edge`
adds ``u`` and then ``v`` on first appearance.  Every order returned
below is a function of the insertion order alone: the ground-program
order, the fixed-route tables and the unfounded component order are
pinned by it (``tests/test_graphs.py`` checks it against a reference
library).  :func:`dijkstra_paths` takes ``(target, weight, payload)``
out-edge lists instead, so parallel edges stay apart.

**Colored digraphs** (:class:`ColoredGraph`) get a tiny nauty-style
engine sized for platform and specification graphs (tens of vertices):
1-dimensional Weisfeiler-Leman refinement over vertex *and* edge colors
plus individualization-refinement search, used twice.
:meth:`~ColoredGraph.automorphism_group` walks a stabilizer chain (the
exact group order falls out of the orbit-stabilizer theorem), skipping
candidates the generators found so far already reach; every generator
is verified before it is reported, so a refinement bug can only cost
completeness, never the soundness the lex-leader constraints rely on.
:meth:`~ColoredGraph.canonical_order` finds the leaf with the least
certificate, the textbook canonical labeling.  Colors may be any
hashable, *orderable* values: they are renumbered in sorted order, which
keeps both searches deterministic across runs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import count
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

__all__ = [
    "AutomorphismGroup",
    "ColoredGraph",
    "add_edge",
    "automorphism_group",
    "condensation",
    "dijkstra_paths",
    "orbits_of",
    "reachable",
    "strongly_connected_components",
    "topological_order",
]

Node = Hashable
Graph = Dict[Node, Dict[Node, None]]
Successors = Mapping[Node, Iterable[Node]]  # a Graph, or lists of successors


# -- plain digraphs -----------------------------------------------------------


def add_edge(graph: Graph, u: Node, v: Node) -> None:
    """Add the edge ``u -> v``, adding ``u`` and then ``v`` if new."""
    graph.setdefault(u, {})[v] = None
    graph.setdefault(v, {})


def strongly_connected_components(graph: Successors) -> List[Set[Node]]:
    """The strongly connected components, each after every one it reaches.

    Non-recursive Tarjan with Nuutila's refinement, searching from the
    nodes and along the successors in insertion order.
    """
    preorder: Dict[Node, int] = {}
    lowlink: Dict[Node, int] = {}
    found: Set[Node] = set()
    open_nodes: List[Node] = []  # finished, but their component is not
    components: List[Set[Node]] = []
    cursors = {v: iter(graph[v]) for v in graph}  # successors not yet tried
    for source in graph:
        if source in found:
            continue
        stack = [source]
        while stack:
            v = stack[-1]
            if v not in preorder:
                preorder[v] = len(preorder) + 1
            for w in cursors[v]:
                if w not in preorder:
                    stack.append(w)
                    break
            else:
                stack.pop()
                rank = low = preorder[v]
                for w in graph[v]:
                    if w not in found:
                        low = min(low, lowlink[w] if preorder[w] > rank else preorder[w])
                lowlink[v] = low
                if low == rank:
                    component = {v}
                    while open_nodes and preorder[open_nodes[-1]] > rank:
                        component.add(open_nodes.pop())
                    found.update(component)
                    components.append(component)
                else:
                    open_nodes.append(v)
    return components


def condensation(graph: Successors) -> List[Set[Node]]:
    """The strongly connected components in :func:`topological_order` of
    their DAG, numbered by discovery, with edges in ``graph``'s order."""
    components = strongly_connected_components(graph)
    component_of = {v: i for i, component in enumerate(components) for v in component}
    dag: Graph = {i: {} for i in range(len(components))}
    for u, targets in graph.items():
        for v in targets:
            if component_of[u] != component_of[v]:
                dag[component_of[u]][component_of[v]] = None
    return [components[i] for i in topological_order(dag)]


def topological_order(graph: Successors) -> List[Node]:
    """Kahn's order, one generation after another; ``ValueError`` on a cycle."""
    indegree = dict.fromkeys(graph, 0)
    for targets in graph.values():
        for v in targets:
            indegree[v] += 1
    order = [v for v, degree in indegree.items() if degree == 0]
    for v in order:  # grows while read: each generation after the last
        for w in graph[v]:
            indegree[w] -= 1
            if indegree[w] == 0:
                order.append(w)
    if len(order) < len(indegree):
        raise ValueError("the graph has a cycle")
    return order


def reachable(graph: Successors, source: Node) -> Set[Node]:
    """Every node reachable from ``source``, ``source`` included."""
    seen = {source}
    stack = [source]
    while stack:
        for w in graph[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def dijkstra_paths(
    out_edges: Mapping[Node, Sequence[Tuple[Node, int, object]]], source: Node
) -> Dict[Node, List[object]]:
    """Least-weight paths from ``source`` as edge payload lists (``[]`` for it).

    ``out_edges`` maps every node to its ``(target, weight >= 0, payload)``
    edges.  A node keeps the first path to reach its final distance, heap
    ties break by push order, and so the first listed of equal parallel
    edges wins.
    """
    paths: Dict[Node, List[object]] = {}
    distance = {source: 0}
    parent: Dict[Node, Tuple[Node, object]] = {}
    pushes = count()
    heap = [(0, next(pushes), source)]
    while heap:
        d, _, v = heappop(heap)
        if v in paths:
            continue
        paths[v] = paths[parent[v][0]] + [parent[v][1]] if v in parent else []
        for w, weight, payload in out_edges[v]:
            candidate = d + weight
            if w not in paths and (w not in distance or candidate < distance[w]):
                distance[w] = candidate
                parent[w] = (v, payload)
                heappush(heap, (candidate, next(pushes), w))
    return paths


# -- colored digraphs ---------------------------------------------------------


@dataclass(frozen=True)
class AutomorphismGroup:
    """The automorphism group of a colored graph: permutations
    (``perm[u]`` is the image of ``u``) generating it, its exact order and
    the sorted vertex orbits."""

    n: int
    generators: Tuple[Tuple[int, ...], ...]
    order: int
    orbits: Tuple[Tuple[int, ...], ...]

    @property
    def trivial(self) -> bool:
        return self.order <= 1

    @property
    def nontrivial_orbits(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(orbit for orbit in self.orbits if len(orbit) > 1)


def _generator_graph(n: int, generators: Sequence[Sequence[int]]) -> Graph:
    graph: Graph = {v: {} for v in range(n)}
    for perm in generators:
        for vertex, image in enumerate(perm):
            graph[vertex][image] = None
    return graph


def orbits_of(n: int, generators: Sequence[Sequence[int]]) -> Tuple[Tuple[int, ...], ...]:
    """Vertex orbits under the group generated by ``generators``, sorted.

    An orbit is a strongly connected component of the graph with an edge
    ``v -> perm[v]`` per generator (a permutation is a union of cycles).
    """
    components = strongly_connected_components(_generator_graph(n, generators))
    return tuple(sorted(tuple(sorted(component)) for component in components))


class ColoredGraph:
    """A directed graph with hashable, orderable vertex and edge colors."""

    def __init__(
        self, n: int, colors: Sequence[Hashable], edges: Mapping[Tuple[int, int], Hashable]
    ):
        if len(colors) != n:
            raise ValueError(f"expected {n} vertex colors, got {len(colors)}")
        self.n = n
        self._palette = tuple(sorted(set(colors)))
        palette = {color: i for i, color in enumerate(self._palette)}
        self._colors: Tuple[int, ...] = tuple(palette[c] for c in colors)
        self._edge_palette = tuple(sorted(set(edges.values())))
        epalette = {color: i for i, color in enumerate(self._edge_palette)}
        self._edges: Dict[Tuple[int, int], int] = {}
        self._out: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
        self._in: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
        for (u, v), color in edges.items():
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) outside vertex range 0..{n - 1}")
            ec = epalette[color]
            self._edges[(u, v)] = ec
            self._out[u].append((v, ec))
            self._in[v].append((u, ec))

    # -- equitable refinement ----------------------------------------------

    def _refine(self, colors: Sequence[int]) -> Tuple[int, ...]:
        """1-WL refinement to a stable (equitable) coloring.

        New color ids are assigned by sorting the signatures, so two
        colorings with equal color multisets refine compatibly — the
        property the two-sided isomorphism search below depends on.
        """
        current = tuple(colors)
        classes = len(set(current))
        while True:
            signatures = []
            for v in range(self.n):
                out_sig = tuple(sorted((ec, current[w]) for w, ec in self._out[v]))
                in_sig = tuple(sorted((ec, current[w]) for w, ec in self._in[v]))
                signatures.append((current[v], out_sig, in_sig))
            palette = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
            refined = tuple(palette[sig] for sig in signatures)
            new_classes = len(palette)
            if new_classes == classes:
                return refined
            current, classes = refined, new_classes

    @staticmethod
    def _individualize(colors: Sequence[int], vertex: int) -> Tuple[int, ...]:
        fresh = max(colors) + 1
        return tuple(fresh if v == vertex else c for v, c in enumerate(colors))

    # -- automorphism search -----------------------------------------------

    def is_automorphism(self, perm: Sequence[int]) -> bool:
        """Does ``perm`` preserve vertex colors and colored edges?"""
        if sorted(perm) != list(range(self.n)):
            return False
        colors = self._colors
        if any(colors[perm[v]] != colors[v] for v in range(self.n)):
            return False
        mapped = {(perm[u], perm[v]): ec for (u, v), ec in self._edges.items()}
        return mapped == self._edges

    @staticmethod
    def _first_branch_color(colors: Sequence[int]) -> Optional[int]:
        return min((c for c, k in Counter(colors).items() if k > 1), default=None)

    def _find_isomorphism(
        self, side1: Tuple[int, ...], side2: Tuple[int, ...]
    ) -> Optional[Tuple[int, ...]]:
        """A color-matching automorphism between two refined colorings.

        Both sides are stable colorings of *this* graph; a discrete
        compatible pair reads off as the permutation sending each vertex
        to the vertex of equal color on the other side.
        """
        if sorted(side1) != sorted(side2):
            return None
        target = self._first_branch_color(side1)
        if target is None:
            image = {c: v for v, c in enumerate(side2)}
            perm = tuple(image[c] for c in side1)
            return perm if self.is_automorphism(perm) else None
        u = next(v for v in range(self.n) if side1[v] == target)
        refined1 = self._refine(self._individualize(side1, u))
        for v in range(self.n):
            if side2[v] != target:
                continue
            refined2 = self._refine(self._individualize(side2, v))
            perm = self._find_isomorphism(refined1, refined2)
            if perm is not None:
                return perm
        return None

    def _stabilizer_chain(
        self, colors: Tuple[int, ...]
    ) -> Tuple[List[Tuple[int, ...]], int]:
        """Generators + order of the automorphisms respecting ``colors``."""
        target = self._first_branch_color(colors)
        if target is None:
            return [], 1
        cell = [v for v in range(self.n) if colors[v] == target]
        base = cell[0]
        base_refined = self._refine(self._individualize(colors, base))
        generators: List[Tuple[int, ...]] = []
        orbit = {base}  # of the group the generators found so far generate
        orbit_size = 1
        for candidate in cell[1:]:
            if candidate in orbit:
                orbit_size += 1  # reachable under found generators already
                continue
            candidate_refined = self._refine(self._individualize(colors, candidate))
            perm = self._find_isomorphism(base_refined, candidate_refined)
            if perm is None:
                continue
            generators.append(perm)
            orbit_size += 1
            orbit = reachable(_generator_graph(self.n, generators), base)
        stab_gens, stab_order = self._stabilizer_chain(base_refined)
        return generators + stab_gens, orbit_size * stab_order

    def automorphism_group(self) -> AutomorphismGroup:
        generators, order = self._stabilizer_chain(self._refine(self._colors))
        return AutomorphismGroup(
            n=self.n,
            generators=tuple(generators),
            order=order,
            orbits=orbits_of(self.n, generators),
        )

    # -- canonical labeling ------------------------------------------------

    def _rows(self, order: Sequence[int]) -> Tuple:
        position = {v: i for i, v in enumerate(order)}
        return tuple(
            (self._colors[v], tuple(sorted((ec, position[w]) for w, ec in self._out[v])))
            for v in order
        )

    def certificate(self, order: Sequence[int]) -> str:
        """The graph renumbered by ``order``: one row per vertex (dense
        color, sorted ``(edge color, successor position)`` pairs), then the
        vertex and edge palettes that decode the dense colors."""
        return repr((self._rows(order), self._palette, self._edge_palette))

    def canonical_order(self, max_leaves: int) -> Tuple[List[int], bool]:
        """The vertex order with the least :meth:`certificate` rows, and ``exact``.

        The individualize-refine search visits every leaf depth first,
        branching on the smallest non-singleton cell (the lowest color
        among equal sizes), so isomorphic graphs reach equal least
        certificates.  Past ``max_leaves`` leaves it stops, and the stable
        coloring's ties break by vertex index instead (``exact=False``).
        """
        stable = self._refine(self._colors)
        best: Optional[Tuple[Tuple, List[int]]] = None
        leaves = 0
        pending = [stable]
        while pending:
            colors = pending.pop()
            cells: Dict[int, List[int]] = {}
            for v, color in enumerate(colors):
                cells.setdefault(color, []).append(v)
            branch = [cell for cell in cells.values() if len(cell) > 1]
            if branch:
                target = min(branch, key=lambda cell: (len(cell), colors[cell[0]]))
                pending.extend(
                    self._refine(self._individualize(colors, v)) for v in reversed(target)
                )
                continue
            leaves += 1
            if leaves > max_leaves:
                return sorted(range(self.n), key=stable.__getitem__), False
            order = sorted(range(self.n), key=colors.__getitem__)
            rows = self._rows(order)
            if best is None or rows < best[0]:
                best = (rows, order)
        return best[1], True

def automorphism_group(
    n: int, colors: Sequence[Hashable], edges: Mapping[Tuple[int, int], Hashable]
) -> AutomorphismGroup:
    """Automorphism group of the colored digraph ``(n, colors, edges)``."""
    return ColoredGraph(n, colors, edges).automorphism_group()
