"""
Auditing a computed solution against discrete maximum principles
================================================================

Every solve can be followed by a posteriori checks: global bounds from the
boundary data and source sign, and local bounds that compare each node with
its mesh neighbours.  The audit reports, per check, whether it applies to
the problem at hand, how many nodes violate it, and the worst violation.

Here: a rotating flow drags the output of a ring-shaped source through a
reacting medium.  Part of the outer boundary is an outflow with a natural
boundary condition, so purely Dirichlet-based global bounds do not apply,
while the local bounds do -- the audit keeps track of which is which.
"""

from cdrfem import PROBLEMS, SolveOptions, audit_dmp, convergence_study

problem = PROBLEMS["circular-layers"]()

[record] = convergence_study(problem, 1, [4],
                             SolveOptions(damping=0.5, max_iter=20000))
ops, report = record.ops, record.report
print(f"converged: {report.converged}, "
      f"range [{report.u.min():.3e}, {report.u.max():.6f}]\n")

checks = audit_dmp(report, ops.mesh, ops, problem, slack=1e-10)
print(f"{'check':<28} {'applicable':>10} {'violations':>10} {'worst':>10}")
for c in checks:
    worst = "-" if not c.applicable else f"{c.max_violation:.2e}"
    print(f"{c.name:<28} {str(c.applicable):>10} {c.violations:>10} "
          f"{worst:>10}")
