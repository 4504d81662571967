"""Edge-list files (the SNAP / Walshaw-archive interchange format).

One edge per line, two whitespace-separated vertex ids; ``#`` and ``%``
lines are comments (SNAP uses ``#``, the Walshaw archive's Chaco headers
start differently but converted lists commonly use ``%``).  Ids are read
as ints when every id in the file parses as one, else kept as strings —
mixed files would break id ordering, so the promotion is all-or-nothing.
The one comment read back is :func:`write_edgelist`'s ``# isolated:`` line.
"""

from itertools import chain

from repro.graph import make_graph

__all__ = ["read_edgelist", "write_edgelist"]

_COMMENT_PREFIXES = ("#", "%")
_ISOLATED = "# isolated:"


def read_edgelist(path, directed_dedup=True, backend="adjacency"):
    """Read an edge list into a graph on the chosen backend.

    ``directed_dedup``: SNAP ships directed pairs (both ``a b`` and
    ``b a``); the undirected graph stores each such tie once (the Graph
    handles duplicates natively — the flag exists only to document intent).
    ``backend`` names a :data:`repro.graph.GRAPH_BACKENDS` entry
    (``"adjacency"`` or ``"compact"``).

    Returns the graph.  Raises ``ValueError`` on malformed lines.
    """
    del directed_dedup  # duplicates collapse in the undirected Graph
    raw_edges = []
    isolated = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if stripped.startswith(_ISOLATED):
                isolated.extend(stripped[len(_ISOLATED):].split())
                continue
            if not stripped or stripped.startswith(_COMMENT_PREFIXES):
                continue
            parts = stripped.split()
            if len(parts) < 2:
                raise ValueError(
                    f"{path}:{line_number}: expected two ids, got {stripped!r}"
                )
            raw_edges.append((parts[0], parts[1]))
    try:  # all or nothing: one id that is not an int keeps every id a str
        for v in chain(chain.from_iterable(raw_edges), isolated):
            int(v)
        ids = int
    except ValueError:
        ids = str
    edges = ((ids(u), ids(v)) for u, v in raw_edges)  # converted lazily
    graph = make_graph(backend)
    # real datasets occasionally contain self-loops; drop them
    graph.add_edges((u, v) for u, v in edges if u != v)
    graph.add_vertices(map(ids, isolated))
    return graph


def write_edgelist(graph, path, header=True):
    """Write a graph as an edge list (each undirected edge once)."""
    with open(path, "w", encoding="utf-8") as handle:
        if header:
            handle.write(
                f"# undirected edge list: {graph.num_vertices} vertices, "
                f"{graph.num_edges} edges\n"
            )
        for u, v in graph.edges():
            handle.write(f"{u} {v}\n")
        # isolated vertices would be lost; record them as comments
        isolated = list(graph.isolated_vertices())
        if isolated:
            handle.write("# isolated: " + " ".join(map(str, isolated)) + "\n")
