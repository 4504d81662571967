"""Power-law graphs: Holme–Kim power-law-cluster and Barabási–Albert.

The paper generates its synthetic power-law graphs "with networkX, using its
power law degree distribution and approximate average clustering [Holme &
Kim 2002]; the intended average degree is D = log(|V|), with rewiring
probability p = 0.1".  We implement the Holme–Kim process from scratch:

* each new vertex attaches ``m`` edges;
* the first attachment of each step is preferential (probability ∝ degree);
* each subsequent attachment is, with probability ``p``, a *triad formation*
  step — connect to a random neighbour of the previously-attached target —
  otherwise another preferential attachment.

Triad formation lifts clustering while preserving the power-law degree tail,
which is what makes these graphs hard to partition (Fig. 5's worst cases).
"""

import math

from repro.graph import Graph
from repro.utils import make_rng

__all__ = [
    "paper_average_degree",
    "powerlaw_cluster_graph",
    "preferential_attachment_graph",
]


def paper_average_degree(num_vertices):
    """The paper's intended average degree D = log(|V|) → edges-per-vertex m.

    The Holme–Kim process adds ``m`` edges per vertex giving average degree
    ~2m, so m = max(1, round(log(|V|) / 2)).
    """
    if num_vertices < 2:
        raise ValueError("need at least 2 vertices")
    return max(1, round(math.log(num_vertices) / 2.0))


def _preferential_pick(repeated_targets, rng, exclude):
    """Pick a vertex ∝ degree from the repeated-endpoint list, avoiding ``exclude``."""
    for _ in range(64):
        candidate = repeated_targets[rng.randrange(len(repeated_targets))]
        if candidate not in exclude:
            return candidate
    # Dense exclusion (tiny graphs): fall back to scanning.
    candidates = [t for t in repeated_targets if t not in exclude]
    if not candidates:
        return None
    return candidates[rng.randrange(len(candidates))]


def powerlaw_cluster_graph(
    num_vertices, m=None, triad_probability=0.1, seed=0, graph_cls=Graph
):
    """Holme–Kim power-law graph with tunable clustering.

    Parameters mirror the paper: ``m`` defaults to the paper's
    ``log(|V|)/2`` rule and ``triad_probability`` to 0.1; ``graph_cls`` is
    the class to build.

    >>> g = powerlaw_cluster_graph(200, m=2, seed=1)
    >>> g.num_vertices
    200
    >>> g.num_edges <= 2 * 200
    True
    """
    if m is None:
        m = paper_average_degree(num_vertices)
    if m < 1:
        raise ValueError("m must be >= 1")
    if num_vertices <= m:
        raise ValueError(f"need more than m={m} vertices, got {num_vertices}")
    if not 0.0 <= triad_probability <= 1.0:
        raise ValueError("triad_probability must be in [0, 1]")
    rng = make_rng(seed, "powerlaw_cluster", num_vertices, m)
    graph = graph_cls()
    # Seed clique of m+1 vertices gives every early vertex degree >= m.
    repeated_targets = []
    for v in range(m + 1):
        graph.add_vertex(v)
    for u in range(m + 1):
        for v in range(u + 1, m + 1):
            graph.add_edge(u, v)
            repeated_targets.extend((u, v))
    for v in range(m + 1, num_vertices):
        graph.add_vertex(v)
        attached = set()
        last_target = None
        for edge_index in range(m):
            target = None
            if (
                edge_index > 0
                and last_target is not None
                and rng.random() < triad_probability
            ):
                # Triad formation: close a triangle through the last target.
                neighbours = [
                    w
                    for w in graph.neighbors(last_target)
                    if w != v and w not in attached
                ]
                if neighbours:
                    target = neighbours[rng.randrange(len(neighbours))]
            if target is None:
                target = _preferential_pick(
                    repeated_targets, rng, exclude=attached | {v}
                )
            if target is None:
                break
            graph.add_edge(v, target)
            attached.add(target)
            repeated_targets.extend((v, target))
            last_target = target
    return graph


def preferential_attachment_graph(num_vertices, m, seed=0, graph_cls=Graph):
    """Pure Barabási–Albert graph (Holme–Kim with no triad formation)."""
    return powerlaw_cluster_graph(
        num_vertices, m=m, triad_probability=0.0, seed=seed, graph_cls=graph_cls
    )
