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
off the edge table, as the left cells of the edges out of ``x_i``: the
smallest wedge cell, otherwise the cell of smallest angle, ties to the
smallest cell.  Its docstring says why a cell containing ``2 x_i - x_j``
needs no level of its own.  It is stored as int32, like
``EdgeTable.cell_edges``.

A ``Mesh`` keeps only what its users read more than once: the geometry
checked by its constructor and, on first read, the edge table and the
mirror cells.  The hat gradients (``_cell_grads``) are computed on each call.
"""

from collections import namedtuple
from functools import cached_property

import numpy as np

# boundary side tags of the unit square
BOTTOM, RIGHT, TOP, LEFT = 0, 1, 2, 3

# directed edges (i, j) of the cell edges, sorted by (i, j); rev maps each
# edge to the position of its reverse, indptr groups edges by row i, and
# row p of the int32 (6, c) cell_edges holds the edge of the local pair p,
# (0,1), (0,2), (1,0), (1,2), (2,0) or (2,1), of every cell
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
    num_free : int or None
        Number of non-Dirichlet nodes; set by ``classify_and_order``.
    node_permutation : (n,) int array or None
        Maps current node index to the index before reordering.

    The constructor rejects non-finite vertices, cells not of shape (c, 3)
    with c >= 1, cell and boundary vertex indices outside [0, n), a vertex
    that is a corner of no cell, boundary edges not of shape (b, 2) and
    tags not of shape (b,).  It sets ``cell_areas``, the (c,) signed cell
    areas, and ``h``, the largest edge length.  Per-cell tables are rows of
    c values, one per local entry.
    """

    def __init__(self, vertices, cells, boundary_edges, boundary_tags,
                 num_free=None, node_permutation=None):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.cells = np.ascontiguousarray(cells, dtype=np.int64)
        self.boundary_edges = np.ascontiguousarray(boundary_edges, dtype=np.int64)
        self.boundary_tags = np.ascontiguousarray(boundary_tags, dtype=np.int64)
        self.num_free = None if num_free is None else int(num_free)
        if node_permutation is None:
            node_permutation = np.arange(len(self.vertices))
        self.node_permutation = np.ascontiguousarray(node_permutation, dtype=np.int64)
        n = len(self.vertices)
        if not np.isfinite(self.vertices).all():
            raise ValueError("vertex coordinates must be finite")
        if self.cells.shape[1:] != (3,) or not self.cells.size:
            raise ValueError("cells must have shape (c, 3) with c >= 1")
        if self.cells.min() < 0 or self.cells.max() >= n:
            raise ValueError(f"cell vertex indices must lie in [0, {n})")
        if not np.bincount(self.cells.ravel(), minlength=n).all():
            raise ValueError("every vertex must be a corner of a cell")
        be = self.boundary_edges
        if be.ndim != 2 or be.shape[1] != 2:
            raise ValueError("boundary_edges must have shape (b, 2)")
        if be.size and (be.min() < 0 or be.max() >= n):
            raise ValueError(f"boundary vertex indices must lie in [0, {n})")
        if self.boundary_tags.shape != (len(be),):
            raise ValueError(f"boundary_tags must have shape ({len(be)},), "
                             f"one tag per boundary edge")
        (x0, x1, x2), (y0, y1, y2) = _corners(self)
        dx1, dy1 = x1 - x0, y1 - y0
        dx2, dy2 = x2 - x0, y2 - y0
        # signed triangle areas, positive for counterclockwise cells
        self.cell_areas = 0.5 * (dx1 * dy2 - dy1 * dx2)
        if np.any(self.cell_areas <= 0.0):
            raise ValueError("cells must be counterclockwise with positive area")
        # sqrt is monotone and correctly rounded: the root of the largest
        # squared edge length is the largest edge length, bit for bit
        dx3, dy3 = x2 - x1, y2 - y1
        self.h = float(np.sqrt(max((dx * dx + dy * dy).max() for dx, dy in
                                   ((dx1, dy1), (dx3, dy3), (dx2, dy2)))))

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_cells(self):
        return len(self.cells)

    @cached_property
    def edges(self):
        """Directed cell edges as an EdgeTable.

        One argsort orders both orientations of the unique cell edges of
        ``_edge_keys``; its inverse gives ``rev`` and ``cell_edges``.
        """
        n = self.num_vertices
        ukeys, inv = _edge_keys(self)
        lo, hi = ukeys // n, ukeys % n
        # the keys are distinct, so every sort gives this order; the stable
        # one is faster on the sorted first half
        order = np.argsort(np.concatenate([ukeys, hi * n + lo]), kind="stable")
        i = np.concatenate([lo, hi])[order]
        j = np.concatenate([hi, lo])[order]
        # entry u is cell edge u, lo -> hi; entry u + len(ukeys) is its reverse
        pos = np.empty_like(order)
        pos[order] = np.arange(len(order))
        rev = pos[(order + len(ukeys)) % len(order)]
        # the local pairs (a, b) lie on the cell edges 01, 20, 01, 12, 20, 12
        c = self.cells.T
        flip = c[[0, 0, 1, 1, 2, 2]] > c[[1, 2, 0, 2, 0, 1]]
        und = inv.reshape(-1, 3).T[[0, 2, 0, 1, 2, 1]] + len(ukeys) * flip
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
        Ties resolve to the smallest cell index.  The ids are int32.

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
        cell of the k-th edge of row i.  A first round of passes keeps the
        smallest wedge cell per edge, testing the wedge alone.  Only the
        edges left without one, at boundary nodes, take a second round that
        keeps the smallest (angle, cell), the angle to the nearer ray.
        """
        return _mirror_cells(self)


def _corners(mesh):
    """The x and the y coordinates of the cell corners, two (3, c) arrays
    whose row k holds corner k of every cell."""
    cols = np.ascontiguousarray(mesh.cells.T)
    return tuple(np.ascontiguousarray(v)[cols] for v in mesh.vertices.T)


def _cell_grads(mesh):
    """Hat gradients (3, 2, c): row [k, d] holds component d of hat k.
    They are computed on each call, not kept: assembly and the limiter
    context each read them once."""
    x, y = _corners(mesh)
    two_area = 2.0 * mesh.cell_areas
    g = np.empty((3, 2, mesh.num_cells))
    for k in range(3):
        # grad of hat at vertex k is the rotated opposite edge / (2 area)
        a, b = (k + 1) % 3, (k + 2) % 3
        np.divide(-(y[b] - y[a]), two_area, out=g[k, 0])
        np.divide(x[b] - x[a], two_area, out=g[k, 1])
    return g


# rows per block of the row-blocked stages (mirror cells, error norms, VTK
# rows), so that their elementwise temporaries stay in cache
_BLOCK_ROWS = 1 << 14


def _row_blocks(n, width=1):
    """Slices of consecutive rows covering [0, n), each of _BLOCK_ROWS
    values when a row holds ``width`` values (at least one row)."""
    step = max(_BLOCK_ROWS // width, 1)
    return (slice(s, s + step) for s in range(0, n, step))


def _rays(v, et, third):
    """One coordinate of the rays x_j - x_i and x_third - x_i and of the
    direction x_i - x_j of every directed edge (i, j)."""
    vi, vj = v[et.i], v[et.j]
    return vj - vi, v[third] - vi, vi - vj


def _mirror_cells(mesh):
    xs, ys = (np.ascontiguousarray(v) for v in mesh.vertices.T)
    et = mesh.edges
    nc = mesh.num_cells

    # left cell of every directed edge (its local pair (0,1), (1,2) or
    # (2,0) in cell_edges), the cell's third corner and the rays dp, dq from
    # x_i to the other two corners; a boundary edge with the domain on its
    # right keeps cell nc, a zero ray dq and a unit determinant
    ccw = et.cell_edges[[0, 3, 4]]
    left = np.full(len(et.i), nc)
    left[ccw] = np.arange(nc)
    third = et.i.copy()
    third[ccw] = mesh.cells.T[[2, 0, 1]]
    (dp0, dq0, w0), (dp1, dq1, w1) = (_rays(v, et, third) for v in (xs, ys))
    det = dp0 * dq1 - dp1 * dq0
    det[left == nc] = 1.0

    degree = np.diff(et.indptr)
    tol = 1e-12

    # stage 1: the smallest wedge cell, whose corner wedge at x_i contains
    # the direction x_i - x_j.  The rows of one degree D are taken a block
    # at a time as (D, rows) arrays, column r holding the D edges of row r;
    # pass k offers every edge of a row the left cell of the row's k-th
    # edge (cell nc leaves the minimum as it is)
    best = np.empty(len(et.i), dtype=np.int32)
    for deg in np.flatnonzero(np.bincount(degree)):
        starts = et.indptr[:-1][degree == deg]
        for blk in _row_blocks(len(starts), deg):
            e = starts[blk] + np.arange(deg)[:, None]
            cell, d = left[e], det[e]
            p0, p1, q0, q1 = dp0[e], dp1[e], dq0[e], dq1[e]
            v0, v1 = w0[e], w1[e]
            out = np.full(e.shape, nc)
            for k in range(deg):
                a = (v0 * q1[k] - v1 * q0[k]) / d[k]
                b = (p0[k] * v1 - p1[k] * v0) / d[k]
                wedge = (a >= -tol) & (b >= -tol)
                np.minimum(out, np.where(wedge, cell[k], nc), out=out)
            best[e] = out

    # stage 2, on the edges without a wedge cell: the smallest angle to a
    # corner ray, then the smallest cell.  Pass k offers each edge (i, j)
    # the left cell of the k-th edge of row i, the last one repeated on
    # short rows
    edges = np.flatnonzero(best == nc)
    v0, v1 = w0[edges], w1[edges]

    def angle(d0, d1):
        cross = np.abs(v0 * d1 - v1 * d0)
        dot = v0 * d0 + v1 * d1
        return np.arctan2(cross, dot)

    first, deg = et.indptr[et.i[edges]], degree[et.i[edges]]
    best_key = np.full(len(edges), np.inf)
    rest = np.full(len(edges), nc)
    for k in range(deg.max(initial=0)):
        r = first + np.minimum(k, deg - 1)
        cell = left[r]
        key = np.minimum(angle(dp0[r], dp1[r]), angle(dq0[r], dq1[r]))
        key[cell == nc] = np.inf
        better = (key < best_key) | ((key == best_key) & (cell < rest))
        np.copyto(best_key, key, where=better)
        np.copyto(rest, cell, where=better)
    best[edges] = rest
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
    return Mesh(vertices, cells, boundary, tags)


def _edge_keys(mesh):
    """Sorted unique keys i * n + j (i < j) of the undirected cell edges,
    and the position of each cell edge 01, 12, 20 among them, cell by cell.

    Key k is the k-th midpoint that ``refine`` appends.
    """
    a = mesh.cells
    b = np.roll(a, -1, axis=1)
    keys = np.minimum(a, b) * mesh.num_vertices + np.maximum(a, b)
    return np.unique(keys.ravel(), return_inverse=True)


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

    return Mesh(vertices, children, bedges, btags)


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
                old_to_new[be], tags, num_free=int(free.sum()),
                node_permutation=mesh.node_permutation[order])

