"""P1 operator assembly on triangle meshes.

The diffusion block uses exact integration; convection, reaction and the
source functional use the three-edge-midpoint rule, which is exact for
quadratic integrands.  The cell contributions are summed on the full node
adjacency, and the solver keeps only what its edge form reads: the
off-diagonal entries per directed edge and a few per-node vectors.  The
artificial diffusion d_ij has a positive floor on every neighbor pair.
"""

import numpy as np

# floor factor for the artificial diffusion, scaled by the mesh size
DELTA = 1e-10

# hat-function values at the edge midpoints m01, m12, m20
_PHI = np.array([[0.5, 0.0, 0.5],
                 [0.5, 0.5, 0.0],
                 [0.0, 0.5, 0.5]])


class Operators:
    """Assembled operators of one problem on one classified mesh.

    Attributes
    ----------
    b : (n,) array
        Source functional; identically zero on Dirichlet rows.
    reaction_lumped : (n,) array
        Row sums of the reaction block.
    art_row : (n,) array
        Twice the off-diagonal row sums of the artificial diffusion,
        the weight that distributes the source over a node's edges.
    diff_e, conv_e, reac_e, d_e : arrays
        Off-diagonal entries of the diffusion, convection, reaction and
        artificial diffusion blocks, aligned with ``mesh.edges``.  The
        diffusion and convection rows sum to zero, so their diagonals are
        implied.
    """

    def __init__(self, mesh, b, reaction_lumped, art_row, edge_arrays):
        self.mesh = mesh
        self.num_free = mesh.num_free
        self.b = b
        self.reaction_lumped = reaction_lumped
        self.art_row = art_row
        self.diff_e, self.conv_e, self.reac_e, self.d_e = edge_arrays


def assemble(mesh, problem):
    """Assemble all operators of ``problem`` on a classified mesh."""
    if mesh.num_free is None:
        raise ValueError("mesh must be classified before assembly")
    n = mesh.num_vertices
    cells = mesh.cells
    area = mesh.cell_areas
    grads = mesh.cell_grads
    p = mesh.vertices[cells]

    # quadrature nodes: the three edge midpoints of every cell
    qpts = 0.5 * (p + np.roll(p, -1, axis=1))         # (c, 3, 2)
    qx, qy = qpts[:, :, 0], qpts[:, :, 1]
    vx, vy = problem.velocity(qx, qy)
    cq = problem.reaction(qx, qy)
    fq = problem.source(qx, qy)
    if np.any(cq < 0.0):
        raise ValueError("reaction coefficient must be nonnegative")

    w = area[:, None] / 3.0
    vdotg = (np.asarray(vx)[:, :, None] * grads[:, None, :, 0]
             + np.asarray(vy)[:, :, None] * grads[:, None, :, 1])
    local_conv = np.einsum("aq,cqb,cq->cab", _PHI, vdotg, np.broadcast_to(w, qx.shape))
    local_reac = np.einsum("aq,bq,cq->cab", _PHI, _PHI, cq * w)
    local_diff = problem.epsilon * area[:, None, None] * np.einsum(
        "cad,cbd->cab", grads, grads)
    local_b = np.einsum("aq,cq->ca", _PHI, fq * w)

    indptr, indices = mesh.adjacency
    rows_pat = np.repeat(np.arange(n), np.diff(indptr))
    csr_keys = rows_pat * n + indices

    rows = np.broadcast_to(cells[:, :, None], (len(cells), 3, 3)).ravel()
    cols = np.broadcast_to(cells[:, None, :], (len(cells), 3, 3)).ravel()
    pos = np.searchsorted(csr_keys, rows * n + cols)

    def accumulate(local):
        data = np.zeros(len(indices))
        np.add.at(data, pos, local.ravel())
        return data

    diff_data = accumulate(local_diff)
    conv_data = accumulate(local_conv)
    reac_data = accumulate(local_reac)

    offdiag = rows_pat != indices
    tol = 1e-12 * (1.0 + np.abs(diff_data).max())
    if np.any(diff_data[offdiag] > tol):
        raise ValueError("mesh is not weakly acute: positive off-diagonal "
                         "diffusion entries")

    b = np.zeros(n)
    np.add.at(b, cells.ravel(), local_b.ravel())
    b[mesh.num_free:] = 0.0

    et = mesh.edges
    edge_pos = np.searchsorted(csr_keys, et.i * n + et.j)

    conv_e = conv_data[edge_pos]
    d_e = np.maximum(np.maximum(np.abs(conv_e), np.abs(conv_e[et.rev])),
                     DELTA * mesh.h)
    art_row = 2.0 * np.add.reduceat(d_e, et.indptr[:-1])
    if np.any(art_row <= 0.0):
        raise ValueError("artificial diffusion row weight must be positive")

    reaction_lumped = np.add.reduceat(reac_data, indptr[:-1])
    edge_arrays = (diff_data[edge_pos], conv_e, reac_data[edge_pos], d_e)
    return Operators(mesh, b, reaction_lumped, art_row, edge_arrays)


def galerkin_residual(ops, u):
    """Residual of the plain Galerkin rows, one value per unknown node.

    Row i reads a_i^R u_i + sum_j (a_ij^D + a_ij^C + a_ij^R)(u_j - u_i) - b_i
    with j running over the neighbors of i.
    """
    et = ops.mesh.edges
    coef = ops.diff_e + ops.conv_e + ops.reac_e
    flux = coef * (u[et.j] - u[et.i])
    res = ops.reaction_lumped * u + np.add.reduceat(flux, et.indptr[:-1]) - ops.b
    return res[:ops.num_free]


def galerkin_row_residual(ops, u, i):
    """Galerkin residual of one unknown row (0-based, i < num_free)."""
    if not 0 <= i < ops.num_free:
        raise ValueError(f"row {i} is not an unknown row")
    et = ops.mesh.edges
    lo, hi = et.indptr[i], et.indptr[i + 1]
    coef = ops.diff_e[lo:hi] + ops.conv_e[lo:hi] + ops.reac_e[lo:hi]
    return float(ops.reaction_lumped[i] * u[i]
                 + np.sum(coef * (u[et.j[lo:hi]] - u[i])) - ops.b[i])

