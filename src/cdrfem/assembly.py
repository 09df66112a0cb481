"""P1 operator assembly on triangle meshes.

The diffusion block uses exact integration; convection, reaction and the
source functional use the three-edge-midpoint rule, which is exact for
quadratic integrands.  The off-diagonal cell contributions are summed
straight onto the directed edges through ``mesh.edges.cell_edges``; each
directed edge takes at most two, so their order does not matter.  The
solver reads them per edge, plus a few per-node vectors.  The artificial
diffusion d_ij has a positive floor on every neighbor pair.
"""

import numpy as np

from .mesh import _corners

# floor factor for the artificial diffusion, scaled by the mesh size
DELTA = 1e-10

# hat-function values at the edge midpoints m01, m12, m20
_PHI = np.array([[0.5, 0.0, 0.5],
                 [0.5, 0.5, 0.0],
                 [0.0, 0.5, 0.5]])
# per hat a, the first and the second midpoint q at which it is 1/2
_Q1, _Q2 = np.nonzero(_PHI)[1].reshape(3, 2).T
# the local pairs (a, b), a != b, in the row order of cell_edges
_OFF_DIAGONAL = ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))


def _midpoints(mesh):
    """The quadrature nodes: x and y of the edge midpoints m01, m12, m20
    of every cell, two (3, c) arrays."""
    return tuple(0.5 * (v + np.roll(v, -1, axis=0)) for v in _corners(mesh))


class Operators:
    """Assembled operators of one problem on one classified mesh.

    Attributes
    ----------
    problem, source_nonnegative :
        The problem assembled, and whether all its source samples are >= 0.
    b : (n,) array
        Source functional; identically zero on Dirichlet rows.
    reaction_lumped : (n,) array
        Row sums of the reaction block.
    art_row : (n,) array
        Twice the off-diagonal row sums of the artificial diffusion,
        the weight that distributes the source over a node's edges.
    row_weight : (n,) array
        Diagonal weight a_i of the fixed-point update, positive on every
        unknown row.
    diff_e, conv_e, reac_e, d_e : arrays
        Off-diagonal entries of the diffusion, convection, reaction and
        artificial diffusion blocks, aligned with ``mesh.edges``.  The
        diffusion and convection rows sum to zero, so their diagonals are
        implied.
    """

    def __init__(self, mesh, problem, source_nonnegative, b,
                 reaction_lumped, art_row, row_weight, edge_arrays):
        self.mesh, self.problem = mesh, problem
        self.source_nonnegative = source_nonnegative
        self.b, self.reaction_lumped = b, reaction_lumped
        self.art_row, self.row_weight = art_row, row_weight
        self.diff_e, self.conv_e, self.reac_e, self.d_e = edge_arrays


def _local_blocks(mesh, problem):
    """Cell matrices (c, 3, 3) of the diffusion, convection and reaction
    blocks, the cell source vectors (c, 3) and ``source_nonnegative``.

    Each is built entry-major, one contiguous row of c values per entry,
    and returned as a (c, ...) view of those rows.  The fields are sampled
    at ``_midpoints``.  Every entry is summed in the order, and so has the
    bits, of the einsums of
    ``tests/oracles.py::einsum_local_blocks``: the convection and source
    entries from +0 in q order over the two midpoints where the hat is 1/2
    (for finite fields, the product with its zero at the third is a signed
    zero, which leaves a sum started at +0 unchanged), the reaction entries
    over all three q.
    """
    area = mesh.cell_areas
    grads = mesh.cell_grads
    qx, qy = _midpoints(mesh)
    vx, vy = problem.velocity(qx, qy)
    cq = problem.reaction(qx, qy)
    fq = problem.source(qx, qy)
    if np.any(cq < 0.0):
        raise ValueError("reaction coefficient must be nonnegative")

    w = area / 3.0
    local_conv = np.empty((3, 3, len(area)))
    for b, (gx, gy) in enumerate(grads):
        # the velocity at each midpoint q dotted with the gradient of hat b
        t = [(0.5 * (vx[q] * gx + vy[q] * gy)) * w for q in range(3)]
        for a, (q1, q2) in enumerate(zip(_Q1, _Q2)):
            np.add(t[q1] + 0.0, t[q2], out=local_conv[a, b])
    fw = 0.5 * (fq * w)
    local_b = fw[_Q1] + 0.0
    local_b += fw[_Q2]

    # the diffusion and reaction blocks are symmetric
    cw = cq * w
    ea = problem.epsilon * area
    local_reac = np.empty_like(local_conv)
    local_diff = np.empty_like(local_conv)
    for a, b in zip(*np.triu_indices(3)):
        m = _PHI[a] * _PHI[b]
        local_reac[a, b] = m[0] * cw[0] + m[1] * cw[1] + m[2] * cw[2]
        local_diff[a, b] = (grads[a, 0] * grads[b, 0]
                            + grads[a, 1] * grads[b, 1]) * ea
        local_reac[b, a] = local_reac[a, b]
        local_diff[b, a] = local_diff[a, b]
    blocks = (local_diff, local_conv, local_reac, local_b)
    return (*(np.moveaxis(v, -1, 0) for v in blocks), bool(np.min(fq) >= 0.0))


def assemble(mesh, problem):
    """Assemble all operators of ``problem`` on a classified mesh."""
    if mesh.num_free is None:
        raise ValueError("mesh must be classified before assembly")
    n = mesh.num_vertices
    cells = mesh.cells
    (local_diff, local_conv, local_reac, local_b,
     source_nonnegative) = _local_blocks(mesh, problem)

    et = mesh.edges

    def scatter(local):
        # each off-diagonal entry is a contiguous row of the entry-major
        # blocks; a two-term sum from +0 does not depend on the order of its
        # terms
        off = np.concatenate([local[:, a, b] for a, b in _OFF_DIAGONAL])
        return np.bincount(et.cell_edges.ravel(), off, minlength=len(et.i))

    def diagonal(local):
        diag = np.diagonal(local, axis1=1, axis2=2)
        return np.bincount(cells.ravel(), diag.ravel(), minlength=n)

    diff_e = scatter(local_diff)
    tol = 1e-12 * (1.0 + max(np.abs(diff_e).max(),
                             np.abs(diagonal(local_diff)).max()))
    if np.any(diff_e > tol):
        raise ValueError("mesh is not weakly acute: positive off-diagonal "
                         "diffusion entries")

    b = np.bincount(cells.ravel(), local_b.ravel(), minlength=n)
    b[mesh.num_free:] = 0.0

    conv_e = scatter(local_conv)
    d_e = np.maximum(np.maximum(np.abs(conv_e), np.abs(conv_e[et.rev])),
                     DELTA * mesh.h)
    art_row = 2.0 * np.add.reduceat(d_e, et.indptr[:-1])
    if np.any(art_row <= 0.0):
        raise ValueError("artificial diffusion row weight must be positive")

    # reaction row sums in column order, each diagonal inserted before the
    # first column above it; a per-cell row sum would round differently
    reac_e = scatter(local_reac)
    below = np.bincount(et.i[et.j < et.i], minlength=n)
    row = np.insert(reac_e, et.indptr[:-1] + below, diagonal(local_reac))
    reaction_lumped = np.add.reduceat(row, et.indptr[:-1] + np.arange(n))

    row_weight = (reaction_lumped + art_row
                  - np.add.reduceat(diff_e, et.indptr[:-1]))
    if np.any(row_weight[:mesh.num_free] <= 0.0):
        raise ValueError("nonpositive fixed-point row weight; coefficient "
                         "assumptions violated")
    return Operators(mesh, problem, source_nonnegative, b, reaction_lumped,
                     art_row, row_weight, (diff_e, conv_e, reac_e, d_e))


def galerkin_residual(ops, u):
    """Residual of the plain Galerkin rows, one value per unknown node.

    Row i reads a_i^R u_i + sum_j (a_ij^D + a_ij^C + a_ij^R)(u_j - u_i) - b_i
    with j running over the neighbors of i.
    """
    et = ops.mesh.edges
    coef = ops.diff_e + ops.conv_e + ops.reac_e
    flux = coef * (u[et.j] - u[et.i])
    res = ops.reaction_lumped * u + np.add.reduceat(flux, et.indptr[:-1]) - ops.b
    return res[:ops.mesh.num_free]
