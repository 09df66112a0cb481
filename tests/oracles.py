"""Reference implementations that only the tests use.

Each is a plain, earlier or scalar form of a production routine, or a
definition written step by step as the scheme states it; the tests require
the production routine to reproduce it.  The meshes, problems and iterates
the tests run on are built in ``cases``.
"""

import numpy as np

from cdrfem.assembly import DELTA


def node_cells(mesh):
    """CSR incidence node -> cells containing it (indptr, cell indices),
    the cells of each node ascending."""
    nodes = mesh.cells.ravel()
    order = np.argsort(nodes, kind="stable")
    counts = np.bincount(nodes, minlength=mesh.num_vertices)
    return np.concatenate([[0], np.cumsum(counts)]), order // 3


def stack_sort_edge_keys(mesh):
    """``mesh._edge_keys`` from the endpoint pairs of the cell edges 01, 12,
    20, stacked and sorted along the pair axis."""
    n = mesh.num_vertices
    c = mesh.cells
    pairs = np.stack([c[:, [0, 1]], c[:, [1, 2]], c[:, [2, 0]]], axis=1)
    pairs = np.sort(pairs.reshape(-1, 2), axis=1)
    return np.unique(pairs[:, 0] * n + pairs[:, 1], return_inverse=True)


def roll_h(mesh):
    """``Mesh.h`` as the largest length of the edge vectors p - roll(p)."""
    edge = (mesh.vertices[mesh.cells]
            - mesh.vertices[np.roll(mesh.cells, -1, axis=1)])
    return float(np.sqrt((edge ** 2).sum(axis=2)).max())


def gathered_cell_geometry(mesh):
    """``Mesh.cell_areas`` and ``mesh._cell_grads`` from the (c, 3, 2)
    gather of the cell corners, the gradients cell-major as (c, 3, 2)."""
    p = mesh.vertices[mesh.cells]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    area = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    g = np.empty((mesh.num_cells, 3, 2))
    for k in range(3):
        # grad of hat at vertex k is the rotated opposite edge / (2 area)
        opp = p[:, (k + 2) % 3] - p[:, (k + 1) % 3]
        g[:, k, 0] = -opp[:, 1]
        g[:, k, 1] = opp[:, 0]
    return area, g / (2.0 * area)[:, None, None]


def einsum_grad_incr(ctx):
    """``LimiterContext.grad_incr`` as one einsum over the (E, 3, 2) gather
    of the mirror cells' hat gradients."""
    mesh = ctx.mesh
    kcell = mesh.mirror_cells
    vertex = np.ascontiguousarray(mesh.cells[kcell].T)
    dx = mesh.vertices[ctx.et.i] - mesh.vertices[ctx.et.j]
    grads = gathered_cell_geometry(mesh)[1][kcell]
    weight = np.ascontiguousarray(np.einsum("ekd,ed->ke", grads, dx))
    return vertex, weight


def table_row_bounds(ctx, values):
    """``LimiterContext.row_bounds`` as one (D, n) gather through
    ``ctx.row_table`` and a minimum and a maximum over its first axis."""
    table = values[ctx.row_table]
    return np.min(table, axis=0), np.max(table, axis=0)


def lexsort_mirror_cells(mesh):
    """``Mesh.mirror_cells`` by a lexsort over all (edge, incident cell) rows.

    Every row gets its score (0 containing cell, 1 wedge cell, 2 other) and,
    at score 2, the angle between ``x_i - x_j`` and the nearer corner ray;
    the first row of each edge in (score, angle, cell) order wins.  It keeps
    the containing-cell level that ``Mesh.mirror_cells`` omits, so agreement
    shows that this level never decides.
    """
    x = mesh.vertices
    ei, ej = mesh.edges.i, mesh.edges.j
    cptr, cdata = node_cells(mesh)
    counts = cptr[ei + 1] - cptr[ei]
    row_edge = np.repeat(np.arange(len(ei)), counts)
    offs = np.arange(counts.sum()) - np.repeat(
        np.concatenate(([0], np.cumsum(counts)[:-1])), counts)
    row_cell = cdata[np.repeat(cptr[ei], counts) + offs]

    tri = mesh.cells[row_cell]
    at = tri == ei[row_edge][:, None]
    # local position of i in its cell, then the two remaining corners
    li = np.argmax(at, axis=1)
    p = x[tri[np.arange(len(tri)), (li + 1) % 3]]
    q = x[tri[np.arange(len(tri)), (li + 2) % 3]]
    xi = x[ei[row_edge]]
    w = xi - x[ej[row_edge]]
    dp, dq = p - xi, q - xi

    det = dp[:, 0] * dq[:, 1] - dp[:, 1] * dq[:, 0]
    a = (w[:, 0] * dq[:, 1] - w[:, 1] * dq[:, 0]) / det
    b = (dp[:, 0] * w[:, 1] - dp[:, 1] * w[:, 0]) / det

    tol = 1e-12
    wedge = (a >= -tol) & (b >= -tol)
    contain = wedge & (a + b <= 1.0 + tol)
    score = np.where(contain, 0, np.where(wedge, 1, 2))

    def angle(d):
        cross = np.abs(w[:, 0] * d[:, 1] - w[:, 1] * d[:, 0])
        dot = w[:, 0] * d[:, 0] + w[:, 1] * d[:, 1]
        return np.arctan2(cross, dot)

    ang = np.where(score == 2, np.minimum(angle(dp), angle(dq)), 0.0)

    order = np.lexsort((row_cell, ang, score, row_edge))
    first = np.searchsorted(row_edge[order], np.arange(len(ei)))
    return row_cell[order][first]


def gathered_error_norms(mesh, u, exact):
    """``benchmarks.error_norms`` over the (c, 7, 2) quadrature points of
    the (c, 3, 2) corner gather, all cells at once."""
    from cdrfem.benchmarks import _QUAD_BARY, _QUAD_W

    p = mesh.vertices[mesh.cells]
    uc = u[mesh.cells]
    # summed over k in the order, and so with the bits, of
    # np.einsum("qk,ckd->cqd", _QUAD_BARY, p)
    qx = _QUAD_BARY[:, 0, None] * p[:, None, 0]
    qx += _QUAD_BARY[:, 1, None] * p[:, None, 1]
    qx += _QUAD_BARY[:, 2, None] * p[:, None, 2]
    uh = np.einsum("qk,ck->cq", _QUAD_BARY, uc)
    diff = np.abs(uh - exact(qx[:, :, 0], qx[:, :, 1]))
    area = mesh.cell_areas
    l1 = float(np.sum(area * (diff @ _QUAD_W)))
    l2 = float(np.sqrt(np.sum(area * ((diff ** 2) @ _QUAD_W))))
    return l1, l2


def write_vtk_by_scalar(mesh, u, path):
    """``cli.write_vtk`` formatting one NumPy scalar per ``write`` call."""
    with open(path, "w") as out:
        out.write("# vtk DataFile Version 2.0\ncdrfem solution\n")
        out.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
        out.write(f"POINTS {mesh.num_vertices} double\n")
        for x, y in mesh.vertices:
            out.write(f"{x:.17g} {y:.17g} 0\n")
        out.write(f"CELLS {mesh.num_cells} {4 * mesh.num_cells}\n")
        for a, b, c in mesh.cells:
            out.write(f"3 {a} {b} {c}\n")
        out.write(f"CELL_TYPES {mesh.num_cells}\n")
        out.writelines("5\n" for _ in range(mesh.num_cells))
        out.write(f"POINT_DATA {mesh.num_vertices}\n")
        out.write("SCALARS u double 1\nLOOKUP_TABLE default\n")
        for v in u:
            out.write(f"{v:.17g}\n")


def adjacency_edges(mesh):
    """``Mesh.edges`` (i, j, rev, indptr) from the hashed CSR node adjacency.

    Returns the CSR pattern (indptr, indices) with the diagonals included,
    then the directed off-diagonal pairs read back from it, with ``rev``
    and the row pointer found by ``searchsorted``.
    """
    n = mesh.num_vertices
    loc = [0, 0, 1, 1, 2, 2]
    rows = np.concatenate([mesh.cells[:, loc].ravel(), np.arange(n)])
    cols = np.concatenate([mesh.cells[:, [1, 2, 0, 2, 0, 1]].ravel(),
                           np.arange(n)])
    keys = np.unique(rows * n + cols)
    indices = keys % n
    indptr = np.searchsorted(keys // n, np.arange(n + 1))

    i = np.repeat(np.arange(n), np.diff(indptr))
    keep = i != indices
    i, j = i[keep], indices[keep]
    rev = np.searchsorted(i * n + j, j * n + i)
    eptr = np.searchsorted(i, np.arange(n + 1))
    return (indptr, indices), (i, j, rev, eptr)


def einsum_local_blocks(mesh, problem):
    """``assembly._local_blocks`` with all four cell blocks as ``np.einsum``
    contractions: (local_diff, local_conv, local_reac, local_b,
    source_nonnegative)."""
    area = mesh.cell_areas
    grads = gathered_cell_geometry(mesh)[1]
    p = mesh.vertices[mesh.cells]
    phi = np.array([[0.5, 0.0, 0.5], [0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])

    qpts = 0.5 * (p + np.roll(p, -1, axis=1))
    qx, qy = qpts[:, :, 0], qpts[:, :, 1]
    vx, vy = problem.velocity(qx, qy)
    cq = problem.reaction(qx, qy)
    fq = problem.source(qx, qy)
    w = area[:, None] / 3.0
    vdotg = (np.asarray(vx)[:, :, None] * grads[:, None, :, 0]
             + np.asarray(vy)[:, :, None] * grads[:, None, :, 1])
    local_conv = np.einsum("aq,cqb,cq->cab", phi, vdotg,
                           np.broadcast_to(w, qx.shape))
    local_reac = np.einsum("aq,bq,cq->cab", phi, phi, cq * w)
    local_diff = problem.epsilon * area[:, None, None] * np.einsum(
        "cad,cbd->cab", grads, grads)
    local_b = np.einsum("aq,cq->ca", phi, fq * w)
    return local_diff, local_conv, local_reac, local_b, bool(np.all(fq >= 0.0))


def csr_assemble(mesh, problem):
    """``assemble``'s arrays by scattering onto the full CSR adjacency.

    The ``einsum_local_blocks`` cell matrices go onto the CSR slots of
    ``adjacency_edges``, diagonals included, with ``np.add.at``; the
    per-edge arrays are read back through ``searchsorted`` and
    ``reaction_lumped`` is the full row sum.  Returns a dict keyed by the
    ``Operators`` attribute names.
    """
    n = mesh.num_vertices
    cells = mesh.cells
    local_diff, local_conv, local_reac, local_b, _ = einsum_local_blocks(
        mesh, problem)

    (indptr, indices), (ei, ej, rev, eptr) = adjacency_edges(mesh)
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

    b = np.zeros(n)
    np.add.at(b, cells.ravel(), local_b.ravel())
    b[mesh.num_free:] = 0.0

    edge_pos = np.searchsorted(csr_keys, ei * n + ej)
    conv_e = conv_data[edge_pos]
    d_e = np.maximum(np.maximum(np.abs(conv_e), np.abs(conv_e[rev])),
                     DELTA * mesh.h)
    reaction_lumped = np.add.reduceat(reac_data, indptr[:-1])
    art_row = 2.0 * np.add.reduceat(d_e, eptr[:-1])
    diff_e = diff_data[edge_pos]
    row_weight = (reaction_lumped + art_row
                  - np.add.reduceat(diff_e, eptr[:-1]))
    return {"b": b, "reaction_lumped": reaction_lumped, "art_row": art_row,
            "row_weight": row_weight, "diff_e": diff_e, "conv_e": conv_e,
            "reac_e": reac_data[edge_pos], "d_e": d_e}


def hat_gradients(p):
    # coefficients of 1, x, y for each hat function via a Vandermonde solve
    V = np.column_stack([np.ones(3), p[:, 0], p[:, 1]])
    coef = np.linalg.solve(V, np.eye(3))
    return coef[1:].T                                    # (3, 2)


def dense_operators(mesh, problem):
    """Independent dense assembly with per-cell python loops."""
    n = mesh.num_vertices
    D = np.zeros((n, n))
    C = np.zeros((n, n))
    R = np.zeros((n, n))
    b = np.zeros(n)
    phi = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
    for tri in mesh.cells:
        p = mesh.vertices[tri]
        d1, d2 = p[1] - p[0], p[2] - p[0]
        area = 0.5 * abs(d1[0] * d2[1] - d1[1] * d2[0])
        g = hat_gradients(p)
        mids = 0.5 * (p + np.roll(p, -1, axis=0))
        for a in range(3):
            for c in range(3):
                D[tri[a], tri[c]] += problem.epsilon * area * (g[a] @ g[c])
        for q in range(3):
            w = area / 3.0
            vx, vy = problem.velocity(mids[q, 0], mids[q, 1])
            cq = problem.reaction(mids[q, 0], mids[q, 1])
            fq = problem.source(mids[q, 0], mids[q, 1])
            for a in range(3):
                b[tri[a]] += w * fq * phi[q, a]
                for c in range(3):
                    C[tri[a], tri[c]] += w * phi[q, a] * (
                        float(vx) * g[c, 0] + float(vy) * g[c, 1])
                    R[tri[a], tri[c]] += w * cq * phi[q, a] * phi[q, c]
    b[mesh.num_free:] = 0.0
    return D, C, R, b


def mirror_cell(mesh, i, j):
    """Mirror cell of the directed edge (i, j); j must neighbor i."""
    et = mesh.edges
    pos = np.searchsorted(et.i * mesh.num_vertices + et.j,
                          i * mesh.num_vertices + j)
    if pos >= len(et.i) or et.i[pos] != i or et.j[pos] != j:
        raise ValueError(f"({i}, {j}) is not a directed mesh edge")
    return int(mesh.mirror_cells[pos])


def fictitious_value(mesh, u, i, j):
    """u_h extended to the reflected point 2*x_i - x_j via the mirror cell."""
    cell = mirror_cell(mesh, i, j)
    tri = mesh.cells[cell]
    dx = mesh.vertices[i] - mesh.vertices[j]
    grads = gathered_cell_geometry(mesh)[1][cell]
    return float(u[i] + u[tri] @ (grads @ dx))


def bar_state(u_i, u_j, conv_ij, d_ij):
    """Low-order edge average shifted against the convective difference."""
    return 0.5 * (u_i + u_j) - conv_ij * (u_j - u_i) / (2.0 * d_ij)


def mc_target_flux(u_i, u_j, d_ij, reac_ij):
    """Raw antidiffusive flux (d_ij + a_ij^R)(u_i - u_j)."""
    return (d_ij + reac_ij) * (u_i - u_j)


def net_source(problem, x, y, u):
    """Nodal net production f(x) - c(x) u."""
    return problem.source(x, y) - problem.reaction(x, y) * u


def balancing_flux(s_i, s_j, x_i, x_j, v_i, v_j):
    """Edge share of the net source, aligned with the velocity average.

    The last axis of ``x_i``, ``x_j``, ``v_i``, ``v_j`` holds the two space
    components.  Fails when the velocity vanishes at both endpoints.
    """
    x_i, x_j = np.asarray(x_i, dtype=float), np.asarray(x_j, dtype=float)
    v_i, v_j = np.asarray(v_i, dtype=float), np.asarray(v_j, dtype=float)
    m2 = np.maximum((v_i ** 2).sum(axis=-1), (v_j ** 2).sum(axis=-1))
    if np.any(m2 <= 0.0):
        raise ValueError("velocity vanishes at both edge endpoints; "
                         "balancing flux undefined")
    proj = ((x_i - x_j) * (v_i + v_j)).sum(axis=-1)
    return 0.5 * (0.5 * (s_i + s_j)) * proj / (2.0 * m2)


def _r_abs_p(P, Qp, Qm, b, free):
    # one-sided limited magnitude R|P| without forming the ratio R
    sgn = np.sign(P)
    case_neg = (b < 0.0) | ((b == 0.0) & (P >= 0.0))
    rp = np.where(case_neg, sgn * np.minimum(P, Qp), sgn * np.maximum(P, Qm))
    return np.where(free, rp, np.abs(P))


def limiting_factor(P, Qp, Qm, b, free):
    """Correction factor R in [0, 1]; the flux route never divides by P."""
    P = np.asarray(P, dtype=float)
    one = np.ones_like(P)
    # roundoff can push Q past zero by one ulp, so guard the ratio and clip
    case_hi = free & (b <= 0.0) & (P > Qp) & (P != 0.0)
    case_lo = free & (b >= 0.0) & (P < Qm) & (P != 0.0)
    r = np.where(case_hi, Qp / np.where(case_hi, P, 1.0), one)
    r = np.where(case_lo, Qm / np.where(case_lo, P, 1.0), r)
    return np.clip(r, 0.0, 1.0)


def limit_balancing(P_ij, P_ji, Qp_ij, Qm_ij, Qp_ji, Qm_ji, b_i, b_j,
                    i_free=True, j_free=True):
    """Symmetrized limited balancing flux alpha_ij * P_ij.

    Combines the one-sided limited magnitudes of both orientations; rows of
    Dirichlet nodes pass their side through unlimited.  The Q bounds encode
    the variant: with the fictitious-value term for the full limiter,
    without it for the simplified one.
    """
    rp_i = _r_abs_p(P_ij, Qp_ij, Qm_ij, b_i, i_free)
    rp_j = _r_abs_p(P_ji, Qp_ji, Qm_ji, b_j, j_free)
    return np.sign(P_ij) * np.minimum(rp_i, rp_j)


def wb_bar_state(ubar, alphaP, b_i, art_row_i):
    """Bar state shifted by the limited balancing flux and the source share."""
    return ubar + alphaP + b_i / art_row_i


def wb_target_flux(u_i, u_j, d_ij, reac_ij, alphaP):
    """Antidiffusive flux of the balanced scheme."""
    return 2.0 * d_ij * (0.5 * (u_i - u_j) - alphaP) + reac_ij * (u_i - u_j)


def wb_limit(fs, d_ij, ubar_s_ij, ubar_s_ji, bmin_i, bmax_i, bmin_j, bmax_j,
             j_dirichlet):
    """Clip the balanced flux against the shifted bar-state bounds.

    Edges into Dirichlet nodes have no opposite-side bar state, so only the
    owner-side constraint applies there.
    """
    two_d = 2.0 * d_ij
    hi_own = two_d * (bmax_i - ubar_s_ij)
    lo_own = two_d * (bmin_i - ubar_s_ij)
    hi_opp = two_d * (ubar_s_ji - bmin_j)
    lo_opp = two_d * (ubar_s_ji - bmax_j)
    pos = np.where(j_dirichlet, np.minimum(fs, hi_own),
                   np.minimum(fs, np.minimum(hi_own, hi_opp)))
    neg = np.where(j_dirichlet, np.maximum(fs, lo_own),
                   np.maximum(fs, np.maximum(lo_own, lo_opp)))
    return np.where(fs > 0.0, pos, np.where(fs < 0.0, neg, 0.0))


def galerkin_row_residual(ops, u, i):
    """Galerkin residual of one unknown row (0-based, i < num_free)."""
    if not 0 <= i < ops.mesh.num_free:
        raise ValueError(f"row {i} is not an unknown row")
    et = ops.mesh.edges
    lo, hi = et.indptr[i], et.indptr[i + 1]
    coef = ops.diff_e[lo:hi] + ops.conv_e[lo:hi] + ops.reac_e[lo:hi]
    return float(ops.reaction_lumped[i] * u[i]
                 + np.sum(coef * (u[et.j[lo:hi]] - u[i])) - ops.b[i])


def row_residual(ops, state, u, i):
    """Single-row residual a_i u_i - sum_j (2 d_ij ubar*_ij - a_ij^D u_j) - rhs_i."""
    if not 0 <= i < ops.mesh.num_free:
        raise ValueError(f"row {i} is not an unknown row")
    et = ops.mesh.edges
    lo, hi = et.indptr[i], et.indptr[i + 1]
    a = (ops.reaction_lumped[i] + ops.art_row[i] - np.sum(ops.diff_e[lo:hi]))
    gather = np.sum(state.wflux[lo:hi] - ops.diff_e[lo:hi] * u[et.j[lo:hi]])
    return float(a * u[i] - gather - state.rhs[i])


def low_order_matrix(mesh, problem):
    """The low-order matrix of ``problem`` on all nodes, dense: D + C with
    the lumped reaction on the diagonal, minus the artificial diffusion
    d_ij = max(|c_ij|, |c_ji|, DELTA h) of every neighbour pair, whose
    negated row sum goes onto the diagonal."""
    D, C, R, _ = dense_operators(mesh, problem)
    n = mesh.num_vertices
    near = np.zeros((n, n), dtype=bool)
    for a, b in ((0, 1), (1, 2), (2, 0)):
        near[mesh.cells[:, a], mesh.cells[:, b]] = True
        near[mesh.cells[:, b], mesh.cells[:, a]] = True
    art = np.where(near, np.maximum(np.maximum(np.abs(C), np.abs(C.T)),
                                    DELTA * mesh.h), 0.0)
    L = D + C - art
    L[np.diag_indices(n)] += R.sum(axis=1) + art.sum(axis=1)
    return L


def level_gauss_seidel(A, level, rhs):
    """One forward Gauss-Seidel sweep on A x = rhs from x = 0 over the
    levels 0, 1, ...: the rows of a level are updated together, each from
    the columns of lower levels, x[own] = (rhs[own] - A[own, lower]
    x[lower]) / diag(A)[own]."""
    x = np.zeros(len(rhs))
    for k in range(int(level.max()) + 1):
        own, lower = level == k, level < k
        x[own] = ((rhs[own] - A[np.ix_(own, lower)] @ x[lower])
                  / np.diag(A)[own])
    return x


def untrimmed_correction(ops, level, r):
    """``_GaussSeidel.correction`` untrimmed, with its rows in node order:
    the rows of each level gather all their free columns in edge-table
    order, the zeros of the levels not yet updated included."""
    m, et = ops.mesh.num_free, ops.mesh.edges
    nf = int(et.indptr[m])
    i, j = et.i[:nf], et.j[:nf]
    diag = ops.row_weight[:m] - np.add.reduceat(
        ops.d_e[:nf] + ops.conv_e[:nf], et.indptr[:m])
    off = -(ops.d_e[:nf] - ops.conv_e[:nf] - ops.diff_e[:nf])
    f = np.zeros(m)
    for k in range(int(level.max()) + 1):
        rows = np.flatnonzero(level == k)
        e = np.flatnonzero((j < m) & (level[i] == k))
        pos = np.searchsorted(rows, i[e])
        s = np.bincount(pos, off[e] * f[j[e]], minlength=len(rows))
        f[rows] = -(r[rows] + s) / diag[rows]
    return f
