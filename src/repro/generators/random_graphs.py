"""Auxiliary random graph models.

Erdős–Rényi graphs provide a locality-free control for tests (the adaptive
heuristic should barely improve them) and ring lattices provide the most
partitionable extreme (a 1-D mesh).
"""

from itertools import chain, islice, repeat

from repro.graph import Graph
from repro.utils import make_rng

__all__ = ["erdos_renyi_graph", "ring_lattice"]


def erdos_renyi_graph(
    num_vertices, edge_probability=None, num_edges=None, seed=0, graph_cls=Graph
):
    """G(n, p) or G(n, m) random graph.

    Exactly one of ``edge_probability`` / ``num_edges`` must be given.  The
    G(n, m) form draws distinct edges by rejection sampling, which is fast at
    the sparse densities used in the experiments.
    """
    if (edge_probability is None) == (num_edges is None):
        raise ValueError("give exactly one of edge_probability / num_edges")
    if num_vertices < 1:
        raise ValueError("num_vertices must be >= 1")
    rng = make_rng(seed, "erdos_renyi", num_vertices)
    graph = graph_cls(vertices=range(num_vertices))
    if edge_probability is not None:
        if not 0.0 <= edge_probability <= 1.0:
            raise ValueError("edge_probability must be in [0, 1]")
        for u in range(num_vertices):
            for v in range(u + 1, num_vertices):
                if rng.random() < edge_probability:
                    graph.add_edge(u, v)
        return graph
    max_edges = num_vertices * (num_vertices - 1) // 2
    if num_edges > max_edges:
        raise ValueError(f"num_edges {num_edges} exceeds maximum {max_edges}")
    while graph.num_edges < num_edges:
        u = rng.randrange(num_vertices)
        v = rng.randrange(num_vertices)
        if u != v:
            graph.add_edge(u, v)
    return graph


def ring_lattice(num_vertices, neighbours_each_side=1, graph_cls=Graph):
    """Ring lattice: vertex i connects to its k nearest ids on each side."""
    if num_vertices < 3:
        raise ValueError("ring needs at least 3 vertices")
    k = neighbours_each_side
    if k < 1 or 2 * k >= num_vertices:
        raise ValueError("neighbours_each_side out of range")
    ids = list(range(num_vertices))  # one int object per vertex, shared
    # (v, v + i mod n) for v ascending, then i: the pairs zipped in C.
    sources = chain.from_iterable(map(repeat, ids, repeat(k)))
    targets = chain.from_iterable(
        zip(*(chain(islice(ids, i, None), islice(ids, i)) for i in range(1, k + 1)))
    )
    return graph_cls(vertices=ids, edges=zip(sources, targets))
