"""Dynamic undirected graph with adjacency sets.

This is the substrate every layer shares: generators produce it, initial
partitioners consume it, the adaptive heuristic reads neighbourhoods from it,
and the Pregel system mutates it while computing.  Design points:

* **Undirected** — the paper's cut-edge objective treats edges symmetrically
  (a directed mention stream is folded to undirected ties by the generators).
* **Dynamic** — O(1) amortised vertex/edge insertion and removal; removing a
  vertex detaches all incident edges, exactly the semantics the streaming use
  cases need.
* **Self-loop free** — self edges carry no partitioning information (a vertex
  is always co-located with itself) and are rejected.
"""

__all__ = ["Graph"]


class Graph:
    """A mutable undirected graph over hashable vertex identifiers.

    >>> g = Graph()
    >>> g.add_edge(1, 2)
    True
    >>> g.add_edge(2, 3)
    True
    >>> sorted(g.neighbors(2))
    [1, 3]
    >>> g.num_vertices, g.num_edges
    (3, 2)
    """

    __slots__ = ("_adj", "_num_edges", "_num_isolated")

    def __init__(self, edges=None, vertices=None):
        self._adj = {}
        self._num_edges = 0
        self._num_isolated = 0
        if vertices is not None:
            self.add_vertices(vertices)
        if edges is not None:
            self.add_edges(edges)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add_vertex(self, v):
        """Add an isolated vertex.  Returns True if it was new."""
        if v in self._adj:
            return False
        self._adj[v] = set()
        self._num_isolated += 1
        return True

    def remove_vertex(self, v):
        """Remove ``v`` and all incident edges.  Returns True if present."""
        neighbours = self._adj.pop(v, None)
        if neighbours is None:
            return False
        if not neighbours:
            self._num_isolated -= 1
        for w in neighbours:
            peers = self._adj[w]
            peers.discard(v)
            if not peers:
                self._num_isolated += 1
        self._num_edges -= len(neighbours)
        return True

    def add_edge(self, u, v):
        """Add the undirected edge ``{u, v}``, creating endpoints as needed.

        Returns True if the edge was new.  Self-loops are rejected.
        """
        if u == v:
            raise ValueError(f"self-loop on vertex {u!r} is not allowed")
        self.add_vertex(u)
        self.add_vertex(v)
        if v in self._adj[u]:
            return False
        if not self._adj[u]:
            self._num_isolated -= 1
        if not self._adj[v]:
            self._num_isolated -= 1
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._num_edges += 1
        return True

    def remove_edge(self, u, v):
        """Remove the edge ``{u, v}`` if present.  Returns True if removed.

        Endpoints are left in the graph even if isolated afterwards — the
        streaming use cases reap inactive vertices explicitly.
        """
        adj_u = self._adj.get(u)
        if adj_u is None or v not in adj_u:
            return False
        adj_u.discard(v)
        self._adj[v].discard(u)
        if not adj_u:
            self._num_isolated += 1
        if not self._adj[v]:
            self._num_isolated += 1
        self._num_edges -= 1
        return True

    # ------------------------------------------------------------------
    # Bulk mutation
    # ------------------------------------------------------------------

    def add_vertices(self, vertices):
        """Bulk :meth:`add_vertex`, in order.  Returns the count added."""
        return sum(map(self.add_vertex, vertices))

    def add_edges(self, pairs):
        """Bulk :meth:`add_edge`, in order.  Returns per-pair change flags.

        Endpoints are created as needed; duplicate pairs are skipped (their
        flag is False).  The flags double as presence answers — the batched
        ingestion path uses them instead of probing the graph separately.
        The compact backend overrides this with a single-pass loop.
        """
        return [self.add_edge(u, v) for u, v in pairs]

    def remove_edges(self, pairs):
        """Bulk :meth:`remove_edge`, in order.  Returns per-pair change
        flags (False for absent edges)."""
        return [self.remove_edge(u, v) for u, v in pairs]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def __contains__(self, v):
        return v in self._adj

    def __len__(self):
        return len(self._adj)

    def __iter__(self):
        return iter(self._adj)

    @property
    def num_vertices(self):
        """Number of vertices currently in the graph."""
        return len(self._adj)

    @property
    def num_edges(self):
        """Number of undirected edges currently in the graph."""
        return self._num_edges

    @property
    def num_isolated(self):
        """Number of vertices with no incident edges (tracked, O(1))."""
        return self._num_isolated

    def has_edge(self, u, v):
        """True when the undirected edge ``{u, v}`` exists."""
        adj_u = self._adj.get(u)
        return adj_u is not None and v in adj_u

    def neighbors(self, v):
        """The (live) neighbour set of ``v``.

        Returns the internal set for speed; callers must not mutate it.
        """
        try:
            return self._adj[v]
        except KeyError:
            raise KeyError(f"vertex {v!r} not in graph") from None

    def degree(self, v):
        """Number of neighbours of ``v``."""
        return len(self.neighbors(v))

    def vertices(self):
        """Iterate over vertex identifiers (insertion order)."""
        return iter(self._adj)

    def edges(self):
        """Iterate over undirected edges, each reported once as ``(u, v)``.

        For orderable identifiers the smaller endpoint comes first; for mixed
        identifier types an arbitrary-but-deterministic endpoint order is
        used.
        """
        order = {v: i for i, v in enumerate(self._adj)}
        for u, neighbours in self._adj.items():
            rank = order[u]
            for v in neighbours:
                if order[v] < rank:
                    continue  # already emitted from v's side
                try:
                    yield (u, v) if u <= v else (v, u)
                except TypeError:
                    yield (u, v)

    def isolated_vertices(self):
        """Iterate over vertices with no incident edges."""
        for v, neighbours in self._adj.items():
            if not neighbours:
                yield v

    # ------------------------------------------------------------------
    # Derived views / bulk helpers
    # ------------------------------------------------------------------

    def copy(self):
        """Deep copy of the topology (identifiers are shared, sets are not)."""
        clone = Graph()
        clone._adj = {v: set(ns) for v, ns in self._adj.items()}
        clone._num_edges = self._num_edges
        clone._num_isolated = self._num_isolated
        return clone

    def subgraph(self, vertices):
        """Induced subgraph over ``vertices`` (missing ids are ignored).

        The subgraph is built on the same backend as ``self``.
        """
        # Keep the caller's order (deduplicated): the subgraph's vertex
        # insertion order — hence its iteration order — must not depend
        # on hash-table layout.
        seen = set()
        keep = []
        for v in vertices:
            if v in self._adj and v not in seen:
                seen.add(v)
                keep.append(v)
        return type(self)(  # add_edges dedups the reverse visit
            vertices=keep,
            edges=((v, w) for v in keep for w in self._adj[v] if w in seen),
        )

    def degree_histogram(self):
        """Map degree -> number of vertices with that degree."""
        hist = {}
        for neighbours in self._adj.values():
            d = len(neighbours)
            hist[d] = hist.get(d, 0) + 1
        return hist

    def average_degree(self):
        """Mean vertex degree (0.0 for an empty graph)."""
        if not self._adj:
            return 0.0
        return 2.0 * self._num_edges / len(self._adj)

    def connected_components(self):
        """List of vertex sets, one per connected component (BFS)."""
        unvisited = set(self._adj)
        components = []
        # Roots come from insertion order, not set order, so the component
        # *list* order is a function of the graph's history alone.
        for root in self._adj:
            if root not in unvisited:
                continue
            component = {root}
            frontier = [root]
            unvisited.discard(root)
            while frontier:
                current = frontier.pop()
                for w in self._adj[current]:
                    if w in unvisited:
                        unvisited.discard(w)
                        component.add(w)
                        frontier.append(w)
            components.append(component)
        return components

    def giant_component_fraction(self):
        """Fraction of vertices in the largest connected component."""
        if not self._adj:
            return 0.0
        return max(len(c) for c in self.connected_components()) / len(self._adj)

    def validate(self):
        """Check internal invariants; raises AssertionError on corruption.

        Used by property-based tests after arbitrary mutation sequences.
        """
        edge_count = 0
        for v, neighbours in self._adj.items():
            if v in neighbours:
                raise AssertionError(f"self-loop stored on {v!r}")
            for w in neighbours:
                if w not in self._adj:
                    raise AssertionError(f"dangling neighbour {w!r} of {v!r}")
                if v not in self._adj[w]:
                    raise AssertionError(f"asymmetric edge {v!r}->{w!r}")
            edge_count += len(neighbours)
        if edge_count != 2 * self._num_edges:
            raise AssertionError(
                f"edge count drift: counted {edge_count // 2}, "
                f"stored {self._num_edges}"
            )
        isolated = sum(1 for ns in self._adj.values() if not ns)
        if isolated != self._num_isolated:
            raise AssertionError(
                f"isolated count drift: counted {isolated}, "
                f"stored {self._num_isolated}"
            )
        return True

    def __repr__(self):
        return f"Graph(|V|={self.num_vertices}, |E|={self.num_edges})"
