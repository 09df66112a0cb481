"""Reference implementations that only the tests use.

Each is a plain, earlier form of a production routine; the tests require
the production routine to reproduce it exactly.
"""

import numpy as np


def lexsort_mirror_cells(mesh):
    """``Mesh.mirror_cells`` by a lexsort over all (edge, incident cell) rows.

    Every row gets its score (0 containing cell, 1 wedge cell, 2 other) and,
    at score 2, the angle between ``x_i - x_j`` and the nearer corner ray;
    the first row of each edge in (score, angle, cell) order wins.
    """
    x = mesh.vertices
    ei, ej = mesh.edges.i, mesh.edges.j
    cptr, cdata = mesh.node_cells
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


def write_vtk_by_scalar(mesh, u, path, title="cdrfem solution"):
    """``cli.write_vtk`` formatting one NumPy scalar per ``write`` call."""
    with open(path, "w") as out:
        out.write("# vtk DataFile Version 2.0\n")
        out.write(title + "\n")
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
