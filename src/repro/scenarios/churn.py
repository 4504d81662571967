"""Seeded churn-schedule factories: deterministic dynamic workloads.

Each factory takes the (settled) base graph plus knobs and returns a
replayable :class:`~repro.graph.stream.EventStream`.  All randomness flows
through :func:`repro.utils.make_rng`, and events emitted at equal times rely
on the stream's FIFO tie order — so a schedule is a pure function of
``(graph topology, parameters, seed)`` and replays identically against every
backend and system configuration (the paper's paired-cluster methodology).

The regimes mirror the paper's dynamic workloads:

* :func:`growth_churn` — forest-fire arrivals dripped over time (Fig. 7(b));
* :func:`decay_churn` — subscribers leaving with all their edges;
* :func:`rewire_churn` — topology rewiring at constant size;
* :func:`flash_crowd_churn` — a trending hub absorbing a burst of new
  vertices in a short window;
* :func:`rolling_window_churn` — edges arrive continuously and expire after
  a fixed horizon (the telco rolling window);
* :func:`twitter_churn` — the diurnal mention stream (Fig. 8);
* :func:`cdr_churn` — buffered weekly add/remove subscriber churn (Fig. 9).
"""

import bisect

from repro.core.sweep import sort_vertices
from repro.generators.cdr import CdrStreamConfig, generate_cdr_stream
from repro.generators.forest_fire import forest_fire_expansion
from repro.generators.social import TweetStreamConfig, generate_tweet_stream
from repro.graph.events import AddEdge, AddVertex, RemoveEdge, RemoveVertex
from repro.graph.stream import EventStream, TimedEvent
from repro.utils import make_rng

__all__ = [
    "CHURNS",
    "cdr_churn",
    "decay_churn",
    "flash_crowd_churn",
    "growth_churn",
    "make_churn",
    "rewire_churn",
    "rolling_window_churn",
    "twitter_churn",
]


def _edge_key(edge):
    return tuple((type(x).__name__, repr(x)) for x in edge)


def _sorted_edges(edges):
    """Canonically ordered edge list (mixed-type safe, like sort_vertices)."""
    edges = list(edges)
    try:
        return sorted(edges)
    except TypeError:
        return sorted(edges, key=_edge_key)


def _sorted_insert(edges, pair):
    """Insert ``pair`` keeping the list in :func:`_sorted_edges` order."""
    try:
        bisect.insort(edges, pair)
    except TypeError:  # mixed identifier types: re-sort under the key
        edges.append(pair)
        edges.sort(key=_edge_key)


def _sorted_remove(edges, pair):
    """Remove ``pair`` from a :func:`_sorted_edges`-ordered list."""
    try:
        idx = bisect.bisect_left(edges, pair)
    except TypeError:
        edges.remove(pair)
        return
    if idx < len(edges) and edges[idx] == pair:
        edges.pop(idx)
    else:  # key-ordered fallback list: position differs from natural order
        edges.remove(pair)


def growth_churn(
    graph,
    *,
    seed=0,
    num_vertices=50,
    duration=32.0,
    burn_probability=0.35,
    id_prefix="grow",
):
    """Forest-fire arrivals spread uniformly over ``[0, duration)``.

    Each arrival is one ``AddVertex`` plus its burn's ``AddEdge`` events, all
    stamped with the arrival's time (FIFO tie order keeps the vertex ahead of
    its edges).
    """
    if num_vertices < 1:
        raise ValueError("num_vertices must be >= 1")
    events, _ = forest_fire_expansion(
        graph,
        num_vertices,
        burn_probability=burn_probability,
        seed=seed,
        id_prefix=id_prefix,
    )
    stream = EventStream()
    arrival = -1
    for event in events:
        if isinstance(event, AddVertex):
            arrival += 1
        stream.push(duration * arrival / num_vertices, event)
    return stream


def decay_churn(graph, *, seed=0, fraction=0.2, duration=32.0):
    """A random ``fraction`` of the current vertices leaves over ``duration``.

    Victims depart with all their incident edges (``RemoveVertex``), evenly
    spaced in time — the CDR use case's subscriber loss in isolation.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    rng = make_rng(seed, "decay_churn")
    population = list(graph.vertices())
    count = int(len(population) * fraction)
    victims = rng.sample(population, count) if count else []
    stream = EventStream()
    for i, victim in enumerate(victims):
        stream.push(duration * i / max(1, count), RemoveVertex(victim))
    return stream


def rewire_churn(graph, *, seed=0, num_rewires=50, duration=32.0):
    """Constant-size topology churn: drop a random edge, add a random one.

    Each rewiring step emits ``RemoveEdge(u, v)`` then ``AddEdge(u, w)`` at
    the same time stamp, keeping vertex count and (approximately) edge count
    stable while the cut structure drifts — the regime where a static initial
    partition decays and only adaptation can recover.
    """
    if num_rewires < 0:
        raise ValueError("num_rewires must be >= 0")
    rng = make_rng(seed, "rewire_churn")
    working = graph.copy()
    stream = EventStream()
    vertices = list(working.vertices())
    # Canonical edge order: edges() interleaves per-vertex *set* iteration,
    # which is not contractually identical across backend bridges.  Sorted
    # once up front, then maintained incrementally (each rewire changes at
    # most two entries — re-sorting per step would be O(R·E log E)).
    edges = _sorted_edges(working.edges())
    for i in range(num_rewires):
        if not edges or len(vertices) < 3:
            break
        u, v = edges[rng.randrange(len(edges))]
        anchor = u if rng.random() < 0.5 else v
        target = vertices[rng.randrange(len(vertices))]
        attempts = 0
        while (
            target == anchor or working.has_edge(anchor, target)
        ) and attempts < 20:
            target = vertices[rng.randrange(len(vertices))]
            attempts += 1
        t = duration * i / num_rewires
        stream.push(t, RemoveEdge(u, v))
        working.remove_edge(u, v)
        _sorted_remove(edges, (u, v))
        if target != anchor and not working.has_edge(anchor, target):
            stream.push(t, AddEdge(anchor, target))
            working.add_edge(anchor, target)
            _sorted_insert(edges, tuple(sort_vertices((anchor, target))))
    return stream


def flash_crowd_churn(
    graph,
    *,
    seed=0,
    num_fans=40,
    at=8.0,
    duration=4.0,
    fan_ties=2,
    id_prefix="fan",
):
    """A trending hub: ``num_fans`` new vertices pile onto one vertex fast.

    The hub is the highest-degree vertex (canonical tie-break).  Every fan
    links to the hub plus ``fan_ties`` extra targets drawn from the hub's
    neighbourhood and earlier fans — the flash-crowd hotspot that stresses
    capacity quotas around a single partition.
    """
    if num_fans < 1:
        raise ValueError("num_fans must be >= 1")
    rng = make_rng(seed, "flash_crowd")
    candidates = sort_vertices(graph.vertices())
    if not candidates:
        raise ValueError("flash crowd needs a non-empty base graph")
    hub = max(candidates, key=graph.degree)
    pool = sort_vertices(graph.neighbors(hub)) or [hub]
    stream = EventStream()
    for i in range(num_fans):
        fan = f"{id_prefix}:{i}"
        t = at + duration * i / num_fans
        stream.push(t, AddVertex(fan))
        stream.push(t, AddEdge(fan, hub))
        for _ in range(fan_ties):
            target = pool[rng.randrange(len(pool))]
            if target != fan:
                stream.push(t, AddEdge(fan, target))
        pool.append(fan)
    return stream


def rolling_window_churn(
    graph,
    *,
    seed=0,
    rate=8.0,
    duration=60.0,
    horizon=10.0,
    locality=0.7,
):
    """Edges arrive continuously and expire ``horizon`` seconds later.

    Arrivals pick one endpoint uniformly; the other comes from the first
    endpoint's two-hop neighbourhood with probability ``locality`` (the
    community structure adaptation exploits), else uniformly.  Every added
    edge is scheduled for removal at ``t + horizon``, so the live graph is a
    rolling window over the arrival stream — the paper's always-on telco
    regime, and the workload the incremental-metrics benchmark times.
    """
    if rate <= 0 or duration <= 0 or horizon <= 0:
        raise ValueError("rate, duration and horizon must be positive")
    rng = make_rng(seed, "rolling_window")
    vertices = list(graph.vertices())
    if len(vertices) < 2:
        raise ValueError("rolling window needs at least two vertices")
    timed = []  # creation order; one sort pins the (time, seq) order
    live = {}  # canonical pair -> expiry time
    t = 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= duration:
            break
        u = vertices[rng.randrange(len(vertices))]
        v = None
        if rng.random() < locality:
            # Sorted neighbour views: raw set order is not backend-portable.
            hops = sort_vertices(graph.neighbors(u))
            if hops:
                w = hops[rng.randrange(len(hops))]
                two_hops = sort_vertices(graph.neighbors(w))
                if two_hops:
                    v = two_hops[rng.randrange(len(two_hops))]
        if v is None or v == u:
            v = vertices[rng.randrange(len(vertices))]
        if v == u:
            continue
        a, b = sort_vertices((u, v))
        if graph.has_edge(a, b):
            continue  # base edges are permanent; the window covers arrivals
        expiry = live.get((a, b))
        if expiry is not None and expiry > t:
            continue  # still live from an earlier arrival
        timed.append(TimedEvent(t, AddEdge(a, b)))
        timed.append(TimedEvent(t + horizon, RemoveEdge(a, b)))
        live[(a, b)] = t + horizon
    return EventStream(timed)


def twitter_churn(
    graph,
    *,
    seed=0,
    duration=1800.0,
    mean_rate=4.0,
    num_users=400,
    burst_at=None,
    burst_magnitude=3.0,
):
    """The diurnal Twitter mention drip (continuous regime, Fig. 8).

    Ignores the base graph: the mention stream creates its own ``u<k>``
    population, so pair it with an empty base graph.
    """
    del graph
    return generate_tweet_stream(
        TweetStreamConfig(
            duration=duration,
            mean_rate=mean_rate,
            num_users=num_users,
            burst_at=burst_at,
            burst_magnitude=burst_magnitude,
            seed=seed,
        )
    )


def cdr_churn(graph, *, seed=0, subscribers=400, weeks=4, ties=4):
    """Weekly CDR subscriber churn (buffered regime, Fig. 9).

    Ignores the base graph: the stream seeds its own ``s<k>`` population.
    """
    del graph
    stream, _ = generate_cdr_stream(
        CdrStreamConfig(
            initial_subscribers=subscribers,
            num_weeks=weeks,
            ties_per_subscriber=ties,
            seed=seed,
        )
    )
    return stream


CHURNS = {
    "growth": growth_churn,
    "decay": decay_churn,
    "rewire": rewire_churn,
    "flash-crowd": flash_crowd_churn,
    "rolling-window": rolling_window_churn,
    "twitter-drip": twitter_churn,
    "cdr-weekly": cdr_churn,
}


def make_churn(kind, graph, seed=0, **params):
    """Build the named churn schedule against ``graph`` (ValueError if unknown)."""
    try:
        factory = CHURNS[kind]
    except KeyError:
        raise ValueError(
            f"unknown churn kind {kind!r}; choose from {sorted(CHURNS)}"
        ) from None
    return factory(graph, seed=seed, **params)
