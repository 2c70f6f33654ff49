"""Renaming-invariant canonical forms for specifications.

The serving layer dedups solve requests by *structure*: specifications
that differ only in the names of their tasks, messages, resources and
links (or in the order of any listing) describe the same design space,
so they share one cache entry.  The canonical certificate is that of the
specification's colored graph — vertices for tasks/resources/messages/
links colored by their numeric attributes, edges for data flow, topology
and mapping options — under :meth:`repro.graphs.ColoredGraph.canonical_order`,
the engine that also finds platform automorphisms for symmetry breaking.

Equal digests therefore imply isomorphic specifications, which imply
equal Pareto fronts (up to the renaming captured by the returned name
maps): the cache never conflates two specs with different fronts.  Past
:data:`MAX_LEAVES` leaves the search falls back to a name-dependent
certificate, still collision-free but no longer renaming-invariant
(``exact=False``): bounded work for fewer cache hits, never a wrong
front.  Digests are SHA-256 of the certificate text, never Python's
per-process randomized ``hash()``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

from repro.graphs import ColoredGraph
from repro.synthesis.model import Specification

__all__ = [
    "MAX_LEAVES",
    "CanonicalSpec",
    "canonicalize_specification",
    "canonical_digest",
    "invert_name_map",
    "remap_front_entry",
]

#: Leaf budget of the canonical search: only highly regular specs (every
#: task/resource interchangeable) come near it.  Past it, the refined
#: coloring's ties break by name instead of searching.
MAX_LEAVES = 4096


@dataclass(frozen=True)
class CanonicalSpec:
    """A specification's canonical certificate plus renaming maps.

    ``digest`` is the SHA-256 of ``certificate``.  The four maps send
    *original* names to *canonical* names (``t0``/``r1``/``m2``/``l3``
    style); invert them with :func:`invert_name_map` to translate
    cached (canonical-namespace) witnesses back into a client's own
    names.  ``exact`` is False only when the leaf budget was exhausted
    and the certificate had to fall back to name-dependent tie-breaks.
    """

    digest: str
    certificate: str
    exact: bool
    task_map: Mapping[str, str]
    resource_map: Mapping[str, str]
    message_map: Mapping[str, str]
    link_map: Mapping[str, str]


def _spec_graph(spec: Specification) -> Tuple[ColoredGraph, List[Tuple[str, str]]]:
    """The colored digraph of ``spec`` and each vertex's ``(kind, name)``.

    Kinds are ``"T"``/``"R"``/``"M"``/``"L"``; within a kind, vertices are
    listed by name, so the leaf-budget fallback breaks ties by name.
    """
    application, architecture = spec.application, spec.architecture
    entities = (
        ("T", application.tasks, lambda t: (t.deadline or -1,)),
        ("R", architecture.resources, lambda r: (r.cost,)),
        ("M", application.messages, lambda m: (m.size,)),
        ("L", architecture.links, lambda l: (l.delay, l.energy)),
    )
    vertices: List[Tuple[str, str]] = []
    colors: List[Tuple] = []
    for kind, items, attributes in entities:
        for item in sorted(items, key=lambda item: item.name):
            vertices.append((kind, item.name))
            colors.append((kind,) + attributes(item))
    index = {vertex: v for v, vertex in enumerate(vertices)}
    # Edge colors are tuples, so that the attributed mapping edges and the
    # plain ones sort side by side.  The model rejects duplicate targets
    # and duplicate mapping options: no two edges share a vertex pair.
    edges: Dict[Tuple[int, int], Tuple] = {}
    for message in application.messages:
        mid = index["M", message.name]
        edges[index["T", message.source], mid] = ("src",)
        edges[mid, index["T", message.target]] = ("tgt",)
        for extra in message.extra_targets:
            edges[mid, index["T", extra]] = ("xtgt",)
    for link in architecture.links:
        lid = index["L", link.name]
        edges[index["R", link.source], lid] = ("lsrc",)
        edges[lid, index["R", link.target]] = ("ltgt",)
    for o in spec.mappings:
        edges[index["T", o.task], index["R", o.resource]] = ("map", o.wcet, o.energy)
    return ColoredGraph(len(vertices), colors, edges), vertices


def canonicalize_specification(
    spec: Specification, max_leaves: int = MAX_LEAVES
) -> CanonicalSpec:
    """Canonical certificate + digest + name maps for ``spec``.

    Two specifications receive the same digest iff their colored graphs
    are isomorphic (past :data:`MAX_LEAVES`, the fallback may miss an
    isomorphism, never invent one).
    """
    graph, vertices = _spec_graph(spec)
    order, exact = graph.canonical_order(max_leaves)
    certificate = graph.certificate(order)
    digest = hashlib.sha256(certificate.encode("utf-8")).hexdigest()
    maps: Dict[str, Dict[str, str]] = {"T": {}, "R": {}, "M": {}, "L": {}}
    for v in order:
        kind, name = vertices[v]
        maps[kind][name] = f"{kind.lower()}{len(maps[kind])}"
    return CanonicalSpec(
        digest=digest,
        certificate=certificate,
        exact=exact,
        task_map=maps["T"],
        resource_map=maps["R"],
        message_map=maps["M"],
        link_map=maps["L"],
    )


def canonical_digest(spec: Specification, max_leaves: int = MAX_LEAVES) -> str:
    """Shorthand for ``canonicalize_specification(spec).digest``."""
    return canonicalize_specification(spec, max_leaves).digest


def invert_name_map(mapping: Mapping[str, str]) -> Dict[str, str]:
    """Invert an (injective) original->canonical name map."""
    inverted = {value: key for key, value in mapping.items()}
    if len(inverted) != len(mapping):
        raise ValueError("name map is not injective")
    return inverted


def remap_front_entry(
    entry: Mapping[str, object],
    task_map: Mapping[str, str],
    resource_map: Mapping[str, str],
    message_map: Mapping[str, str],
    link_map: Mapping[str, str],
) -> Dict[str, object]:
    """Rename one serialized front entry through the given name maps.

    ``entry`` uses the :meth:`repro.dse.explorer.DseResult.to_dict`
    shape (``vector`` / ``binding`` / ``routes`` / ``schedule`` /
    ``objective_values``).  Objective vectors and values are
    renaming-invariant and pass through untouched; dictionaries come
    back sorted so remapped entries stay byte-stable under JSON
    serialization.
    """
    remapped = dict(entry)
    binding = entry.get("binding") or {}
    remapped["binding"] = dict(
        sorted(
            (task_map[task], resource_map[resource])
            for task, resource in binding.items()
        )
    )
    routes = entry.get("routes") or {}
    remapped["routes"] = dict(
        sorted(
            (message_map[message], [link_map[link] for link in route])
            for message, route in routes.items()
        )
    )
    schedule = entry.get("schedule") or {}
    remapped["schedule"] = dict(
        sorted((task_map[task], start) for task, start in schedule.items())
    )
    if "message_schedule" in entry:
        remapped["message_schedule"] = dict(
            sorted(
                (message_map[message], start)
                for message, start in (entry["message_schedule"] or {}).items()
            )
        )
    return remapped
