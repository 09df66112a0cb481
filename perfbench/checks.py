"""Correctness checks made apart from the program.

Each check reads the files a workload wrote (or the arrays it returned) and
compares them with a property the method must have or with a value computed
here, never with a stored copy of earlier output.  Each returns a list of
failure messages; an empty list means the check passed.
"""

import csv
import math

import numpy as np

# Radon's seven-point rule, exact for polynomials of degree 5 on a triangle,
# written as (barycentric coordinates, weight relative to the area)
_S15 = math.sqrt(15.0)
_RADON = [((1 / 3, 1 / 3, 1 / 3), 9 / 40)]
for _a, _w in (((6 - _S15) / 21, (155 - _S15) / 1200),
               ((6 + _S15) / 21, (155 + _S15) / 1200)):
    _b = 1.0 - 2.0 * _a
    _RADON += [((_a, _a, _b), _w), ((_a, _b, _a), _w), ((_b, _a, _a), _w)]


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def read_vtk(path):
    """Points (n, 2), triangles (c, 3) and the point scalars (n,) of a
    legacy ASCII VTK unstructured grid as the CLI writes it."""
    with open(path) as f:
        lines = f.read().split("\n")

    def block(start, rows, dtype):
        return np.array(" ".join(lines[start:start + rows]).split(),
                        dtype=dtype).reshape(rows, -1)

    k = next(i for i, line in enumerate(lines) if line.startswith("POINTS"))
    n = int(lines[k].split()[1])
    pts = block(k + 1, n, float)[:, :2]
    k += 1 + n
    c = int(lines[k].split()[1])
    cells = block(k + 1, c, np.int64)
    if np.any(cells[:, 0] != 3):
        raise ValueError("VTK cells are not all triangles")
    k = next(i for i, line in enumerate(lines)
             if line.startswith("LOOKUP_TABLE"))
    u = np.array(lines[k + 1:k + 1 + n], dtype=float)
    return pts, cells[:, 1:], u


def gaussian_ring(x, y):
    """Exact circular-convection profile exp(-100 (r - 0.7)^2)."""
    return np.exp(-100.0 * (np.hypot(x, y) - 0.7) ** 2)


def p1_errors(pts, cells, u, exact):
    """L1 and L2 norms of the P1 interpolant of ``u`` minus ``exact``."""
    p = pts[cells]
    area = 0.5 * np.abs((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                        - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0]))
    uc = u[cells]
    l1 = np.zeros(len(cells))
    l2 = np.zeros(len(cells))
    for bary, weight in _RADON:
        lam = np.array(bary)
        x = p[:, :, 0] @ lam
        y = p[:, :, 1] @ lam
        e = np.abs(uc @ lam - exact(x, y))
        l1 += weight * e
        l2 += weight * e * e
    return float(np.sum(area * l1)), float(np.sqrt(np.sum(area * l2)))


def check_ladder(rows, solution_vtk, levels):
    """Every level converged, errors fall from level to level, and the
    finest row's errors match the ones recomputed from the VTK field.
    ``rows`` are the rows of the ladder's ``report.csv``."""
    fail = []
    if [int(r["level"]) for r in rows] != list(levels):
        return [f"report.csv levels {[r['level'] for r in rows]} "
                f"!= {list(levels)}"]
    for r in rows:
        if r["converged"] != "True":
            fail.append(f"level {r['level']} did not converge")
    for key in ("l1_error", "l2_error"):
        errs = [float(r[key]) for r in rows]
        if any(b >= a for a, b in zip(errs, errs[1:])):
            fail.append(f"{key} does not decrease: {errs}")
    pts, cells, u = read_vtk(solution_vtk)
    if len(u) != int(rows[-1]["ndof"]):
        fail.append(f"solution.vtk has {len(u)} points, finest level "
                    f"{rows[-1]['ndof']}")
        return fail
    l1, l2 = p1_errors(pts, cells, u, gaussian_ring)
    for name, mine, theirs in (("L1", l1, float(rows[-1]["l1_error"])),
                               ("L2", l2, float(rows[-1]["l2_error"]))):
        if not abs(mine - theirs) <= 1e-6 * theirs:
            fail.append(f"{name} of solution.vtk {mine:.10e} != report.csv "
                        f"{theirs:.10e}")
    return fail


def check_equilibrium(report, x):
    """The solve converged onto the ramp u = x of the equilibrium problem."""
    fail = []
    if not report.converged:
        fail.append(f"solve did not converge in {report.iterations} sweeps")
    dev = float(np.max(np.abs(report.u - x)))
    if not dev <= 1e-5:
        fail.append(f"max|u - x| = {dev:.3e} > 1e-5")
    return fail


def check_well_balanced(report, outdir):
    """The interpolated ramp is a fixed point: converged after 0 sweeps,
    written back unchanged, and no applicable DMP audit row is violated."""
    fail = []
    if not (report.converged and report.iterations == 0):
        fail.append(f"ramp not kept: converged {report.converged} after "
                    f"{report.iterations} sweeps")
    rows = read_csv(f"{outdir}/report.csv")
    if len(rows) != 1 or rows[0]["converged"] != "True" \
            or rows[0]["iterations"] != "0":
        fail.append(f"report.csv disagrees: {rows}")
    pts, _, u = read_vtk(f"{outdir}/solution.vtk")
    dev = float(np.max(np.abs(u - pts[:, 0])))
    if not dev <= 1e-12:
        fail.append(f"solution.vtk deviates from the ramp by {dev:.3e}")
    audit = read_csv(f"{outdir}/audit.csv")
    applicable = [r for r in audit if r["applicable"] == "True"]
    if not applicable:
        fail.append("no DMP audit row applies")
    for r in applicable:
        if r["violations"] != "0":
            fail.append(f"audit {r['check']}: {r['violations']} violations")
    return fail
