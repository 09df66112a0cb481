"""
Measuring the order of accuracy on a pure transport problem
===========================================================

The circular-convection benchmark rotates a Gaussian ring through the unit
square with zero diffusion; the exact solution is known, so refining the
grid shows how fast the limited scheme converges.  The orders are still
climbing at these coarse levels; on finer grids L1 approaches 2 while the
limiter holds L2 near 1.7 by clipping at the profile's crest -- the usual
price of enforcing bounds.

Levels 3-5 run in about a second.  Each level starts from the previous
solution interpolated; the damping scales only the steps taken without
mixing history, and every level converges.
"""

from cdrfem import PROBLEMS, SolveOptions, convergence_study

problem = PROBLEMS["circular-convection"]()

records = convergence_study(problem, grid_id=1, levels=range(3, 6),
                            options=SolveOptions(damping=0.125,
                                                 max_iter=30000),
                            warm_start=True)

print(f"{'level':>5} {'nodes':>7} {'h':>9} {'L1 error':>11} {'EOC':>6} "
      f"{'L2 error':>11} {'EOC':>6} {'sweeps':>7}")
for r in records:
    e1 = "" if r.eoc_l1 is None else f"{r.eoc_l1:6.3f}"
    e2 = "" if r.eoc_l2 is None else f"{r.eoc_l2:6.3f}"
    print(f"{r.level:>5} {r.ndof:>7} {r.h:>9.5f} {r.l1_error:>11.4e} {e1:>6} "
          f"{r.l2_error:>11.4e} {e2:>6} {r.iterations:>7}")
