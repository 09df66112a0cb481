"""
Sharp interior layers without over- or undershoots
==================================================

A convection-dominated problem (diffusion 1e-8) transports the output of a
box-shaped source downstream until an absorption strip removes it.  The
unlimited Galerkin discretization oscillates violently here; the flux-limited
scheme keeps every nodal value inside the physically admissible range.

The script solves on a 32x32 grid of diagonally split squares (grid 1,
level 5) and prints the solution range and the height of the downstream
plateau.  Given a path, as in

    python3 demos/interior_layer_fronts.py interior_layers.vtk

it also writes the solution there as a legacy VTK file that can be opened in
ParaView.
"""

import sys

import numpy as np

from cdrfem import PROBLEMS, SolveOptions, build_level0, classify_and_order, refine, solve
from cdrfem.cli import write_vtk

problem = PROBLEMS["interior-layers"]()

mesh = build_level0(1)
for _ in range(5):
    mesh = refine(mesh)
mesh = classify_and_order(mesh, problem)

# damping 0.5 keeps the nonlinear iteration contractive on this problem
report = solve(mesh, problem, SolveOptions(damping=0.5, max_iter=20000))

print(f"grid: {mesh.num_vertices} nodes, h = {mesh.h:.4f}")
print(f"converged: {report.converged} after {report.iterations} sweeps")
print(f"solution range: [{report.u.min():.3e}, {report.u.max():.4f}]")

# The source feeds 10 units into a box of height 0.5 that the flow crosses
# in 0.5 time units, so the plateau downstream of the box sits near 5; the
# absorption strip (c = 25 for x > 0.75) then eats the profile away.
mid = np.abs(mesh.vertices[:, 1] - 0.5) < 1e-12
line = np.argsort(mesh.vertices[mid, 0])
x_mid = mesh.vertices[mid, 0][line]
u_mid = report.u[mid][line]
for x_probe in (0.05, 0.35, 0.7, 0.85, 1.0):
    k = np.argmin(np.abs(x_mid - x_probe))
    print(f"  u({x_mid[k]:.3f}, 0.5) = {u_mid[k]:.4f}")

if len(sys.argv) > 1:
    write_vtk(mesh, report.u, sys.argv[1])
    print(f"wrote {sys.argv[1]}")
else:
    print(f"VTK output ({mesh.num_vertices} points, {mesh.num_cells} cells) "
          "is written only to a path given as the first argument")
