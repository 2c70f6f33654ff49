"""repro.graphs against networkx, the reference its orders were pinned with.

Ground-program order, fixed-route tables and the unfounded component
order depend on the exact order of components, topological orders and
shortest paths, so each function must return networkx's result *in
order* for the same insertion order, on random digraphs with isolated
nodes, self-loops and zero weights.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import (
    add_edge,
    condensation,
    dijkstra_paths,
    reachable,
    strongly_connected_components,
    topological_order,
)

nx = pytest.importorskip("networkx")

SETTINGS = settings(max_examples=300, deadline=None)


@st.composite
def digraphs(draw):
    """A dict digraph and the networkx DiGraph built in the same order.

    Some nodes are added up front (as the grounder adds statement nodes),
    the rest on first appearance in an edge.  Most edges point from a
    lower to a higher node, so that several small components form a DAG
    instead of one component swallowing the graph.
    """
    n = draw(st.integers(1, 12))
    node = st.integers(0, n - 1)
    nodes = draw(st.lists(node, unique=True))
    edges = draw(
        st.lists(st.tuples(node, node, st.integers(0, 4), st.integers(0, 4)), max_size=30)
    )
    ours, theirs = {}, nx.DiGraph()
    for v in nodes:
        ours.setdefault(v, {})
        theirs.add_node(v)
    for u, v, weight, tilt in edges:
        if tilt:
            u, v = min(u, v), max(u, v)
        add_edge(ours, u, v)
        theirs.add_edge(u, v, weight=weight)
    return ours, theirs


@SETTINGS
@given(graphs=digraphs())
def test_strongly_connected_components_in_discovery_order(graphs):
    ours, theirs = graphs
    assert list(ours) == list(theirs)
    assert strongly_connected_components(ours) == list(
        nx.strongly_connected_components(theirs)
    )


@SETTINGS
@given(graphs=digraphs())
def test_condensation_in_topological_order(graphs):
    ours, theirs = graphs
    dag = nx.condensation(theirs)
    expected = [dag.nodes[i]["members"] for i in nx.topological_sort(dag)]
    assert condensation(ours) == expected


@SETTINGS
@given(graphs=digraphs())
def test_topological_order_or_cycle(graphs):
    ours, theirs = graphs
    if nx.is_directed_acyclic_graph(theirs):
        assert topological_order(ours) == list(nx.topological_sort(theirs))
    else:
        with pytest.raises(ValueError):
            topological_order(ours)


@SETTINGS
@given(graphs=digraphs())
def test_reachable_is_the_descendants_and_the_source(graphs):
    ours, theirs = graphs
    for source in theirs:
        assert reachable(ours, source) == nx.descendants(theirs, source) | {source}


@SETTINGS
@given(graphs=digraphs())
def test_dijkstra_paths_in_order(graphs):
    _, theirs = graphs
    out_edges = {
        u: [(v, data["weight"], (u, v)) for v, data in theirs[u].items()]
        for u in theirs
    }
    for source in theirs:
        paths = dijkstra_paths(out_edges, source)
        as_nodes = {
            target: [source] + [v for _u, v in route] for target, route in paths.items()
        }
        expected = nx.single_source_dijkstra_path(theirs, source)
        assert list(as_nodes.items()) == list(expected.items())


def test_dijkstra_keeps_parallel_edges_apart():
    out_edges = {
        "a": [("b", 9, "slow"), ("b", 1, "fast"), ("b", 1, "tie")],
        "b": [],
    }
    assert dijkstra_paths(out_edges, "a") == {"a": [], "b": ["fast"]}
