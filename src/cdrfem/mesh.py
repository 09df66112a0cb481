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
used to extrapolate u_h to ``2 x_i - x_j``.  It reads the cells at ``x_i``
off the edge table, as the left cells of the edges out of ``x_i``, and keeps
a running best per edge in (wedge, angle, cell) order, with ties to the
smallest cell.  Its docstring says why a cell containing ``2 x_i - x_j``
needs no level of its own.
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

        The cells at ``x_i`` are read off the edge table.  Cells are
        counterclockwise, so each one is the left cell of exactly one edge
        (i, p) out of ``x_i``: its counterclockwise edge from i.  That edge
        carries the cell's corner rays ``x_p - x_i`` and ``x_q - x_i``, q
        being the third corner.  Pass k offers each edge (i, j) the left
        cell of the k-th edge of row i, and a running best per edge keeps
        the smallest (key, cell): the key is -1 on wedge cells and the
        angle to the nearer ray otherwise.
        """
        return _mirror_cells(self)


def _mirror_cells(mesh):
    x = mesh.vertices
    et = mesh.edges
    nc = mesh.num_cells

    # left cell of every directed edge (its local pair (0,1), (1,2) or
    # (2,0) in cell_edges), the cell's third corner and the rays dp, dq from
    # x_i to the other two corners; a boundary edge with the domain on its
    # right keeps cell nc, a zero ray dq and a unit determinant
    ccw = et.cell_edges[:, [0, 3, 4]]
    left = np.full(len(et.i), nc)
    left[ccw] = np.arange(nc)[:, None]
    third = et.i.copy()
    third[ccw] = mesh.cells[:, [2, 0, 1]]
    dp0, dp1 = (x[et.j] - x[et.i]).T.copy()
    dq0, dq1 = (x[third] - x[et.i]).T.copy()
    det = dp0 * dq1 - dp1 * dq0
    det[left == nc] = 1.0

    w0, w1 = (x[et.i] - x[et.j]).T.copy()

    def angle(d0, d1):
        cross = np.abs(w0 * d1 - w1 * d0)
        dot = w0 * d0 + w1 * d1
        return np.arctan2(cross, dot)

    tol = 1e-12
    degree = np.diff(et.indptr)
    best_key = np.full(len(et.i), np.inf)
    best = np.full(len(et.i), nc)
    for k in range(degree.max(initial=0)):
        # candidate k of edge (i, j): the left cell of the k-th edge of row
        # i, the last one repeated on short rows
        r = np.repeat(et.indptr[:-1] + np.minimum(k, degree - 1), degree)
        p0, p1, q0, q1, d = dp0[r], dp1[r], dq0[r], dq1[r], det[r]
        a = (w0 * q1 - w1 * q0) / d
        b = (p0 * w1 - p1 * w0) / d
        # the corner wedge of the cell contains the direction x_i - x_j
        wedge = (a >= -tol) & (b >= -tol)
        key = np.where(wedge, -1.0, np.minimum(angle(p0, p1), angle(q0, q1)))
        cell = left[r]
        key[cell == nc] = np.inf
        better = (key < best_key) | ((key == best_key) & (cell < best))
        np.copyto(best_key, key, where=better)
        np.copyto(best, cell, where=better)
    return best


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

