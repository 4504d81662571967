"""Regular FEM meshes.

The paper's biomedical graphs are 3-D regular cubic meshes "modelling the
electric connections between heart cells" (Ten Tusscher et al. ventricular
tissue model).  A vertex sits at each lattice point of an ``nx × ny × nz``
box and connects to its 6-neighbourhood.  These meshes have near-constant
degree and strong spatial locality — the family the adaptive heuristic
partitions best (Figs. 4–7).
"""

from repro.graph import Graph

__all__ = [
    "grid_2d",
    "mesh_3d",
    "mesh_with_vertex_count",
    "triangulated_grid_2d",
]


def _lattice_id(x, y, z, ny, nz):
    """Dense integer id for lattice point (x, y, z)."""
    return (x * ny + y) * nz + z


def mesh_3d(nx, ny=None, nz=None, graph_cls=Graph):
    """Build a 3-D regular cubic mesh of ``nx * ny * nz`` vertices.

    ``ny``/``nz`` default to ``nx`` (a cube).  Vertices are dense ints in
    row-major order; each connects to the +x, +y and +z lattice neighbour,
    yielding the 6-neighbourhood overall.  ``graph_cls`` is the class to
    build (default :class:`~repro.graph.Graph`).

    >>> g = mesh_3d(2)
    >>> g.num_vertices, g.num_edges
    (8, 12)
    """
    ny = nx if ny is None else ny
    nz = nx if nz is None else nz
    if min(nx, ny, nz) < 1:
        raise ValueError("mesh dimensions must be >= 1")
    graph = graph_cls()
    for x in range(nx):
        for y in range(ny):
            for z in range(nz):
                v = _lattice_id(x, y, z, ny, nz)
                graph.add_vertex(v)
                if x + 1 < nx:
                    graph.add_edge(v, _lattice_id(x + 1, y, z, ny, nz))
                if y + 1 < ny:
                    graph.add_edge(v, _lattice_id(x, y + 1, z, ny, nz))
                if z + 1 < nz:
                    graph.add_edge(v, _lattice_id(x, y, z + 1, ny, nz))
    return graph


def grid_2d(nx, ny=None, graph_cls=Graph):
    """Build a 2-D grid (``nz = 1`` slice of the cube).

    Used by the smaller FEM stand-ins (3elt/4elt-like graphs are 2-D finite
    element meshes).
    """
    return mesh_3d(nx, ny if ny is not None else nx, 1, graph_cls=graph_cls)


def triangulated_grid_2d(nx, ny=None, graph_cls=Graph):
    """2-D grid with one diagonal per cell (average degree ≈ 6 inside).

    Matches the edge density of the 2-D finite-element meshes 3elt/4elt
    (average degree ≈ 5.8), our stand-in for those Walshaw-archive graphs.
    """
    ny = nx if ny is None else ny
    graph = mesh_3d(nx, ny, 1, graph_cls=graph_cls)
    for x in range(nx - 1):
        for y in range(ny - 1):
            graph.add_edge(
                _lattice_id(x, y, 0, ny, 1),
                _lattice_id(x + 1, y + 1, 0, ny, 1),
            )
    return graph


def mesh_with_vertex_count(target_vertices, graph_cls=Graph):
    """Build the most cubic 3-D mesh with roughly ``target_vertices`` vertices.

    The paper's scalability family (Fig. 6) ranges 1 000 → 300 000 vertices;
    this helper picks ``nx >= ny >= nz`` whose product is as close to the
    target as possible without dropping below ~90 % of it.
    """
    if target_vertices < 1:
        raise ValueError("target_vertices must be >= 1")
    side = max(1, round(target_vertices ** (1.0 / 3.0)))
    best = None
    for nz in range(max(1, side - 2), side + 3):
        for ny in range(nz, side + 4):
            nx = max(ny, round(target_vertices / (ny * nz)))
            count = nx * ny * nz
            score = abs(count - target_vertices)
            if best is None or score < best[0]:
                best = (score, nx, ny, nz)
    _, nx, ny, nz = best
    return mesh_3d(nx, ny, nz, graph_cls=graph_cls)
