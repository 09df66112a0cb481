"""Conforming triangulations of the unit square with uniform red refinement.

Two structured coarse layouts are provided: a two-triangle split along the
main diagonal and a four-triangle criss-cross around a center vertex.  Both
consist of right isosceles triangles, are weakly acute (no angle exceeds 90
degrees) and stay weakly acute under red refinement, which the sign
constraints on the assembled diffusion operator require.

After ``classify_and_order`` the nodes ``0 .. num_free-1`` carry unknown
values and the Dirichlet nodes come last; all downstream solvers rely on this
ordering.

``Mesh.mirror_cells`` picks, per directed edge (i, j), the cell at ``x_i``
used to extrapolate u_h to ``2 x_i - x_j``.  It is one linear pass over the
(edge, incident cell) rows: constants per cell corner, then segmented minima
per edge in (wedge, angle, cell) order, with ties to the smallest cell.  Its
docstring says why a cell containing ``2 x_i - x_j`` needs no level of its
own.
"""

from collections import namedtuple
from functools import cached_property

import numpy as np

# boundary side tags of the unit square
BOTTOM, RIGHT, TOP, LEFT = 0, 1, 2, 3

# directed edges (i, j) of the cell edges, sorted by (i, j); rev maps each
# edge to the position of its reverse, indptr groups edges by row i and the
# int32 (cells, 6) cell_edges holds the position of every cell's local
# pairs (a, b), a != b, in the order (0,1), (0,2), (1,0), (1,2), (2,0), (2,1)
EdgeTable = namedtuple("EdgeTable", ["i", "j", "rev", "indptr", "cell_edges"])


class Mesh:
    """Immutable triangle mesh of the unit square.

    Parameters
    ----------
    vertices : (n, 2) float array
        Vertex coordinates.
    cells : (c, 3) int array
        Vertex indices per triangle, counterclockwise.
    boundary_edges : (b, 2) int array
        Boundary edges oriented so the domain lies to the left.
    boundary_tags : (b,) int array
        Side tag (BOTTOM, RIGHT, TOP or LEFT) per boundary edge.
    level : int
        Refinement level, 0 for the coarse layouts.
    num_free : int or None
        Number of non-Dirichlet nodes; set by ``classify_and_order``.
    node_permutation : (n,) int array or None
        Maps current node index to the index before reordering.
    """

    def __init__(self, vertices, cells, boundary_edges, boundary_tags,
                 level=0, num_free=None, node_permutation=None):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.cells = np.ascontiguousarray(cells, dtype=np.int64)
        self.boundary_edges = np.ascontiguousarray(boundary_edges, dtype=np.int64)
        self.boundary_tags = np.ascontiguousarray(boundary_tags, dtype=np.int64)
        self.level = int(level)
        self.num_free = None if num_free is None else int(num_free)
        if node_permutation is None:
            node_permutation = np.arange(len(self.vertices))
        self.node_permutation = np.ascontiguousarray(node_permutation, dtype=np.int64)
        if np.any(self.cell_areas <= 0.0):
            raise ValueError("cells must be counterclockwise with positive area")
        edge = (self.vertices[self.cells] -
                self.vertices[np.roll(self.cells, -1, axis=1)])
        self.h = float(np.sqrt((edge ** 2).sum(axis=2)).max())

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_cells(self):
        return len(self.cells)

    @cached_property
    def cell_areas(self):
        """Signed triangle areas (positive for counterclockwise cells)."""
        p = self.vertices[self.cells]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    @cached_property
    def cell_grads(self):
        """Gradients of the three barycentric hat functions, shape (c, 3, 2)."""
        p = self.vertices[self.cells]
        g = np.empty((self.num_cells, 3, 2))
        for k in range(3):
            # grad of hat at vertex k is the rotated opposite edge / (2 area)
            opp = p[:, (k + 2) % 3] - p[:, (k + 1) % 3]
            g[:, k, 0] = -opp[:, 1]
            g[:, k, 1] = opp[:, 0]
        return g / (2.0 * self.cell_areas)[:, None, None]

    @cached_property
    def edges(self):
        """Directed cell edges as an EdgeTable.

        One argsort orders both orientations of the unique cell edges of
        ``_edge_keys``; its inverse gives ``rev`` and ``cell_edges``.
        """
        n = self.num_vertices
        ukeys, inv = _edge_keys(self)
        lo, hi = ukeys // n, ukeys % n
        order = np.argsort(np.concatenate([ukeys, hi * n + lo]))
        i = np.concatenate([lo, hi])[order]
        j = np.concatenate([hi, lo])[order]
        # entry u is cell edge u, lo -> hi; entry u + len(ukeys) is its reverse
        pos = np.empty_like(order)
        pos[order] = np.arange(len(order))
        rev = pos[(order + len(ukeys)) % len(order)]
        # the local pairs (a, b) lie on the cell edges 01, 20, 01, 12, 20, 12
        c = self.cells
        flip = c[:, [0, 0, 1, 1, 2, 2]] > c[:, [1, 2, 0, 2, 0, 1]]
        und = inv.reshape(-1, 3)[:, [0, 2, 0, 1, 2, 1]] + len(ukeys) * flip
        cell_edges = pos[und].astype(np.int32)
        indptr = np.concatenate([[0], np.cumsum(np.bincount(i, minlength=n))])
        return EdgeTable(i, j, rev, indptr, cell_edges)

    @cached_property
    def node_cells(self):
        """CSR incidence node -> cells containing it (indptr, cell indices)."""
        nodes = self.cells.ravel()
        # a stable sort keeps the cells of each node ascending
        order = np.argsort(nodes, kind="stable")
        counts = np.bincount(nodes, minlength=self.num_vertices)
        return np.concatenate([[0], np.cumsum(counts)]), order // 3

    @cached_property
    def mirror_cells(self):
        """Cell used to extrapolate across each directed edge.

        For the directed edge (i, j) the returned cell is incident to
        ``x_i`` and hosts the reflected point ``2 x_i - x_j``: a cell whose
        corner wedge at ``x_i`` contains the direction ``x_i - x_j``,
        otherwise the incident cell angularly closest to that direction.
        Ties resolve to the smallest cell index.

        A cell that contains the reflected point always wins, with no rule
        of its own.  It is a wedge cell, and on a conforming mesh the corner
        wedges at ``x_i`` overlap only along shared edge rays.  When the
        direction lies on such a ray, the point lies on the common edge line
        of the two cells sharing it, so both contain it or neither does,
        and the smaller index wins either way.

        The selection takes time linear in the number of (edge, incident
        cell) rows.  The rays from each cell corner to the two other
        corners, and their determinant, are computed once per corner; each
        row gathers its corner's constants and its edge's ``x_i - x_j``.
        Per edge, segmented reductions (``reduceat``) then find whether any
        row is a wedge cell, the smallest angle among the rows (0 on wedge
        cells; angles are evaluated only on edges without one), and the
        smallest cell index among the rows left.
        """
        return _mirror_cells(self)


def _mirror_cells(mesh):
    x = mesh.vertices
    et = mesh.edges
    cptr, cdata = mesh.node_cells

    # corner constants, one per node_cells entry: the rays dp, dq from the
    # node to the next two corners of the cell and their cross product
    node = np.repeat(np.arange(mesh.num_vertices), np.diff(cptr))
    tri = mesh.cells[cdata]
    li = (tri[:, 1] == node) + 2 * (tri[:, 2] == node)
    k = np.arange(len(tri))
    dp = x[tri[k, (li + 1) % 3]] - x[node]
    dq = x[tri[k, (li + 2) % 3]] - x[node]
    det = dp[:, 0] * dq[:, 1] - dp[:, 1] * dq[:, 0]

    # one row per (directed edge, cell at x_i): the node_cells entries of
    # x_i, so the rows of an edge are contiguous from ``start``, cells
    # ascending
    counts = np.diff(cptr)[et.i]
    start = np.cumsum(counts) - counts
    row = np.arange(counts.sum()) + np.repeat(cptr[et.i] - start, counts)
    w = x[et.i] - x[et.j]
    w0, w1 = np.repeat(w[:, 0], counts), np.repeat(w[:, 1], counts)
    d = det[row]
    a = (w0 * dq[row, 1] - w1 * dq[row, 0]) / d
    b = (dp[row, 0] * w1 - dp[row, 1] * w0) / d

    # the corner wedge of the cell contains the direction x_i - x_j
    tol = 1e-12
    wedge = (a >= -tol) & (b >= -tol)
    del a, b, d

    # angles only on the rows of edges without a wedge cell
    has_wedge = np.logical_or.reduceat(wedge, start)
    far = np.flatnonzero(~np.repeat(has_wedge, counts))
    v0, v1, r = w0[far], w1[far], row[far]

    def angle(d):
        cross = np.abs(v0 * d[r, 1] - v1 * d[r, 0])
        dot = v0 * d[r, 0] + v1 * d[r, 1]
        return np.arctan2(cross, dot)

    ang = np.where(wedge, 0.0, np.inf)
    ang[far] = np.minimum(angle(dp), angle(dq))
    best = ang == np.repeat(np.minimum.reduceat(ang, start), counts)
    cell = np.where(best, cdata[row], mesh.num_cells)
    return np.minimum.reduceat(cell, start)


def build_level0(grid_id):
    """Coarse triangulation of the unit square.

    ``grid_id=1`` splits the square into two triangles along the diagonal
    from (0,0) to (1,1); ``grid_id=2`` uses four triangles meeting at the
    center (0.5, 0.5).
    """
    if grid_id == 1:
        vertices = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        cells = [(0, 1, 2), (0, 2, 3)]
        boundary = [(0, 1), (1, 2), (2, 3), (3, 0)]
        tags = [BOTTOM, RIGHT, TOP, LEFT]
    elif grid_id == 2:
        vertices = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.5, 0.5)]
        cells = [(0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4)]
        boundary = [(0, 1), (1, 2), (2, 3), (3, 0)]
        tags = [BOTTOM, RIGHT, TOP, LEFT]
    else:
        raise ValueError(f"unknown grid_id {grid_id!r}; choose 1 or 2")
    return Mesh(vertices, cells, boundary, tags, level=0)


def _edge_keys(mesh):
    """Sorted unique keys i * n + j (i < j) of the undirected cell edges,
    and the position of each cell edge 01, 12, 20 among them, cell by cell.

    Key k is the k-th midpoint that ``refine`` appends.
    """
    n = mesh.num_vertices
    c = mesh.cells
    pairs = np.stack([c[:, [0, 1]], c[:, [1, 2]], c[:, [2, 0]]], axis=1)
    pairs = np.sort(pairs.reshape(-1, 2), axis=1)
    return np.unique(pairs[:, 0] * n + pairs[:, 1], return_inverse=True)


def refine(mesh):
    """Red refinement: each triangle splits into four similar children.

    Edge midpoints become new vertices (computed as exact averages), so the
    mesh size halves exactly.  Any node classification is discarded because
    the new midpoint nodes are unordered.
    """
    n = mesh.num_vertices
    c = mesh.cells
    ukeys, inv = _edge_keys(mesh)
    mid = n + inv.reshape(-1, 3)  # midpoint vertex ids per cell edge 01,12,20

    mv = 0.5 * (mesh.vertices[ukeys // n] + mesh.vertices[ukeys % n])
    vertices = np.vstack([mesh.vertices, mv])

    m01, m12, m20 = mid[:, 0], mid[:, 1], mid[:, 2]
    children = np.concatenate([
        np.stack([c[:, 0], m01, m20], axis=1),
        np.stack([m01, c[:, 1], m12], axis=1),
        np.stack([m20, m12, c[:, 2]], axis=1),
        np.stack([m01, m12, m20], axis=1),
    ])

    be = mesh.boundary_edges
    bkeys = np.sort(be, axis=1)
    bmid = n + np.searchsorted(ukeys, bkeys[:, 0] * n + bkeys[:, 1])
    bedges = np.concatenate([
        np.stack([be[:, 0], bmid], axis=1),
        np.stack([bmid, be[:, 1]], axis=1),
    ])
    btags = np.concatenate([mesh.boundary_tags, mesh.boundary_tags])

    return Mesh(vertices, children, bedges, btags, level=mesh.level + 1)


def prolong(mesh, u):
    """Extend nodal values of ``mesh`` to the vertices of ``refine(mesh)``.

    Midpoint values are the parent edge averages, so the result is the same
    piecewise-linear function on the refined mesh.  The input must be in
    ``mesh`` ordering; the output matches ``refine(mesh)`` ordering.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (mesh.num_vertices,):
        raise ValueError(f"expected {mesh.num_vertices} nodal values")
    n = mesh.num_vertices
    ukeys, _ = _edge_keys(mesh)
    return np.concatenate([u, 0.5 * (u[ukeys // n] + u[ukeys % n])])


def classify_and_order(mesh, problem):
    """Split nodes into unknowns and Dirichlet nodes and renumber.

    For diffusive problems every boundary side not listed in
    ``problem.neumann_sides`` is Dirichlet; for pure transport
    (``problem.boundary == "inflow"``) an edge is Dirichlet when the velocity
    at its midpoint points into the domain.  A node on the closure of any
    Dirichlet edge counts as Dirichlet.  The returned mesh places the
    ``num_free`` unknown nodes first, preserving relative order on both parts.
    """
    be, tags = mesh.boundary_edges, mesh.boundary_tags
    if problem.boundary == "inflow":
        a, b = mesh.vertices[be[:, 0]], mesh.vertices[be[:, 1]]
        midx, midy = 0.5 * (a[:, 0] + b[:, 0]), 0.5 * (a[:, 1] + b[:, 1])
        vx, vy = problem.velocity(midx, midy)
        # domain lies left of a->b, so (ty, -tx) points outward
        vn = vx * (b[:, 1] - a[:, 1]) - vy * (b[:, 0] - a[:, 0])
        dir_edge = vn < 0.0
    elif problem.boundary == "dirichlet":
        dir_edge = ~np.isin(tags, np.asarray(problem.neumann_sides, dtype=np.int64))
    else:
        raise ValueError(f"unknown boundary rule {problem.boundary!r}")
    if problem.epsilon > 0.0 and not dir_edge.any():
        raise ValueError("diffusive problem without any Dirichlet boundary part")

    free = np.ones(mesh.num_vertices, dtype=bool)
    free[be[dir_edge].ravel()] = False
    order = np.concatenate([np.flatnonzero(free), np.flatnonzero(~free)])
    old_to_new = np.empty_like(order)
    old_to_new[order] = np.arange(mesh.num_vertices)

    return Mesh(mesh.vertices[order], old_to_new[mesh.cells],
                old_to_new[be], tags, level=mesh.level,
                num_free=int(free.sum()),
                node_permutation=mesh.node_permutation[order])

