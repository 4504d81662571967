"""Forest-fire growth model (Leskovec et al.).

The paper uses a forest-fire extension "to mimic dynamic changes" in static
graphs: new vertices arrive, pick an ambassador, and "burn" through its
neighbourhood, linking to every burned vertex.  Fig. 7(b) injects a burst of
10 % new vertices / edges this way, all at once (the worst case).

Two entry points:

* :func:`forest_fire_expansion` — grow an *existing* graph by a given number
  of vertices and return the growth as a list of mutation events (so a stream
  can replay it against a live system);
* :func:`forest_fire_graph` — grow a graph from scratch (for tests).
"""

from repro.core.sweep import sort_vertices
from repro.graph import AddEdge, AddVertex, Graph, apply_events
from repro.utils import make_rng

__all__ = ["forest_fire_expansion", "forest_fire_graph"]


def _burn(graph, ambassador, burn_probability, rng, max_burned):
    """Run one forest-fire burn from ``ambassador``; return burned vertex list."""
    burned = {ambassador}
    frontier = [ambassador]
    order = [ambassador]
    while frontier and len(burned) < max_burned:
        current = frontier.pop()
        # Canonical order before the shuffle: raw neighbour-*set* iteration
        # order depends on insertion history, not on topology alone, and
        # scenario replay needs the same events for the same topology.
        neighbours = sort_vertices(
            w for w in graph.neighbors(current) if w not in burned
        )
        if not neighbours:
            continue
        rng.shuffle(neighbours)
        # Geometric number of links to follow, mean p/(1-p).
        links = 0
        while rng.random() < burn_probability and links < len(neighbours):
            links += 1
        for w in neighbours[:links]:
            if len(burned) >= max_burned:
                break
            burned.add(w)
            frontier.append(w)
            order.append(w)
    return order


def forest_fire_expansion(
    graph,
    num_new_vertices,
    burn_probability=0.35,
    seed=0,
    id_prefix="ff",
    max_burned=64,
):
    """Generate the events that grow ``graph`` by ``num_new_vertices``.

    Each new vertex picks a uniform-random ambassador among the *current*
    vertices (including earlier fire vertices), burns through its
    neighbourhood with per-hop continuation probability ``burn_probability``,
    and links to every burned vertex.  ``max_burned`` caps the burn so a
    single arrival cannot touch the whole graph.

    The input ``graph`` is **not** mutated; the returned event list can be
    applied wherever needed (a copy for offline experiments, or the live
    Pregel mutation channel for Fig. 7(b)).

    Returns ``(events, new_vertex_ids)``.
    """
    if num_new_vertices < 0:
        raise ValueError("num_new_vertices must be >= 0")
    if not 0.0 <= burn_probability < 1.0:
        raise ValueError("burn_probability must be in [0, 1)")
    rng = make_rng(seed, "forest_fire", num_new_vertices)
    working = graph.copy()
    existing = list(working.vertices())
    if not existing and num_new_vertices > 0:
        raise ValueError("cannot expand an empty graph")
    events = []
    new_ids = []
    for index in range(num_new_vertices):
        new_id = f"{id_prefix}:{index}"
        while new_id in working:
            index += num_new_vertices
            new_id = f"{id_prefix}:{index}"
        ambassador = existing[rng.randrange(len(existing))]
        burned = _burn(working, ambassador, burn_probability, rng, max_burned)
        events.append(AddVertex(new_id))
        working.add_vertex(new_id)
        for target in burned:
            events.append(AddEdge(new_id, target))
            working.add_edge(new_id, target)
        existing.append(new_id)
        new_ids.append(new_id)
    return events, new_ids


def forest_fire_graph(num_vertices, burn_probability=0.35, seed=0):
    """Grow a forest-fire graph from a single seed edge."""
    if num_vertices < 2:
        raise ValueError("need at least 2 vertices")
    graph = Graph()
    graph.add_edge("ff:seed0", "ff:seed1")
    events, _ = forest_fire_expansion(
        graph,
        num_vertices - 2,
        burn_probability=burn_probability,
        seed=seed,
    )
    apply_events(graph, events)
    return graph
