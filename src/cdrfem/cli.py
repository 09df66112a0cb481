"""Command-line front end: solve, convergence study and maximum-principle audit.

Exit codes: 0 on success (a solve that stops at max_iter still counts as
success and reports converged False), 1 on usage or configuration errors,
2 on runtime failures such as a diverging iteration, an invalid mesh or an
unwritable output path.  All outputs are plain text with full
17-significant-digit floats so repeated runs are byte-identical.
"""

import argparse
import os
import sys

import numpy as np

from .assembly import assemble
from .benchmarks import PROBLEMS, convergence_study, error_norms, eoc, ErrorRecord
from .mesh import build_level0, classify_and_order, refine
from .solver import SolveOptions, audit_dmp, solve

CSV_HEADER = "level,ndof,h,l2_error,eoc_l2,l1_error,eoc_l1,iterations,converged"


def _fmt(value):
    return "" if value is None else f"{value:.17g}"


def write_csv(records, path):
    """Convergence table with empty order fields on the first level."""
    with open(path, "w") as out:
        out.write(CSV_HEADER + "\n")
        for r in records:
            out.write(f"{r.level},{r.ndof},{_fmt(r.h)},{_fmt(r.l2_error)},"
                      f"{_fmt(r.eoc_l2)},{_fmt(r.l1_error)},{_fmt(r.eoc_l1)},"
                      f"{r.iterations},{r.converged}\n")


def write_vtk(mesh, u, path, title="cdrfem solution"):
    """Legacy ASCII VTK unstructured grid with one point scalar field."""
    with open(path, "w") as out:
        out.write("# vtk DataFile Version 2.0\n")
        out.write(title + "\n")
        out.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
        out.write(f"POINTS {mesh.num_vertices} double\n")
        out.writelines(f"{x:.17g} {y:.17g} 0\n"
                       for x, y in mesh.vertices.tolist())
        out.write(f"CELLS {mesh.num_cells} {4 * mesh.num_cells}\n")
        out.writelines(f"3 {a} {b} {c}\n" for a, b, c in mesh.cells.tolist())
        out.write(f"CELL_TYPES {mesh.num_cells}\n")
        out.write("5\n" * mesh.num_cells)
        out.write(f"POINT_DATA {mesh.num_vertices}\n")
        out.write("SCALARS u double 1\nLOOKUP_TABLE default\n")
        out.writelines(f"{v:.17g}\n" for v in np.asarray(u).tolist())


def write_audit(checks, path):
    with open(path, "w") as out:
        out.write("check,applicable,violations,max_violation\n")
        for c in checks:
            out.write(f"{c.name},{c.applicable},{c.violations},"
                      f"{c.max_violation:.17g}\n")


def _parse_levels(text):
    lo, sep, hi = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError("levels must be given as LO:HI")
    lo, hi = int(lo), int(hi)
    if lo < 0 or hi < lo:
        raise argparse.ArgumentTypeError("levels must satisfy 0 <= LO <= HI")
    return list(range(lo, hi + 1))


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="cdrfem",
        description="Flux-corrected P1 solver for steady "
                    "convection-diffusion-reaction problems")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, levels=False):
        p.add_argument("--problem", required=True, choices=sorted(PROBLEMS))
        p.add_argument("--grid", type=int, default=1, choices=(1, 2))
        if levels:
            p.add_argument("--levels", type=_parse_levels, required=True,
                           metavar="LO:HI")
        else:
            p.add_argument("--level", type=int, default=4)
        p.add_argument("--limiter", default="wmc",
                       choices=("galerkin", "mc", "wmc"))
        p.add_argument("--wb-variant", default="full",
                       choices=("full", "simplified"))
        p.add_argument("--epsilon", type=float, default=None,
                       help="override the problem's diffusion coefficient")
        p.add_argument("--tol", type=float, default=1e-8)
        p.add_argument("--max-iter", type=int, default=30000)
        p.add_argument("--damping", type=float, default=1.0)
        p.add_argument("--tail-average", type=int, default=0,
                       help="when max-iter is exhausted, return the mean of "
                            "the last N sweeps (tames limiter limit cycles)")
        p.add_argument("--outdir", default=".")

    p_solve = sub.add_parser("solve", help="solve on one refinement level")
    common(p_solve)
    p_solve.add_argument("--emit-audit", action="store_true")

    p_conv = sub.add_parser("convergence",
                            help="solve on a ladder of refinement levels")
    common(p_conv, levels=True)
    p_conv.add_argument("--emit-vtk", action="store_true",
                        help="also write the finest-level solution")
    p_conv.add_argument("--warm-start", action="store_true",
                        help="carry each level's solution to the next level "
                             "as the initial guess")

    p_audit = sub.add_parser("audit",
                             help="solve and audit the maximum principles")
    common(p_audit)
    return parser


def _make_problem(args):
    factory = PROBLEMS[args.problem]
    if args.epsilon is None:
        return factory()
    if args.problem == "circular-convection":
        raise ValueError("circular-convection is a pure transport problem; "
                         "--epsilon is not supported")
    if args.epsilon < 0.0:
        raise ValueError("--epsilon must be nonnegative")
    return factory(epsilon=args.epsilon)


def _make_mesh(grid, level, problem):
    mesh = build_level0(grid)
    for _ in range(level):
        mesh = refine(mesh)
    return classify_and_order(mesh, problem)


def _options(args):
    return SolveOptions(limiter=args.limiter, wb_variant=args.wb_variant,
                        tol=args.tol, max_iter=args.max_iter,
                        damping=args.damping, tail_average=args.tail_average)


def run(argv=None):
    """Entry point returning the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 0 if err.code == 0 else 1

    try:
        problem = _make_problem(args)
        options = _options(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    try:
        os.makedirs(args.outdir, exist_ok=True)

        if args.command == "convergence":
            records = convergence_study(problem, args.grid, args.levels,
                                        options, warm_start=args.warm_start)
            write_csv(records, os.path.join(args.outdir, "report.csv"))
            if args.emit_vtk:
                finest = records[-1]
                write_vtk(finest.mesh, finest.u,
                          os.path.join(args.outdir, "solution.vtk"))
            for r in records:
                print(f"level {r.level}: ndof {r.ndof} iterations "
                      f"{r.iterations} converged {r.converged}")
            return 0

        mesh = _make_mesh(args.grid, args.level, problem)
        ops = assemble(mesh, problem)
        report = solve(mesh, problem, options, ops=ops)
        l1 = l2 = e1 = e2 = None
        if problem.exact is not None:
            l1, l2 = error_norms(mesh, report.u, problem.exact)
        record = ErrorRecord(level=args.level, ndof=mesh.num_vertices,
                             h=mesh.h, l1_error=l1, l2_error=l2,
                             eoc_l1=e1, eoc_l2=e2,
                             iterations=report.iterations,
                             converged=report.converged)

        if args.command == "solve":
            write_csv([record], os.path.join(args.outdir, "report.csv"))
            write_vtk(mesh, report.u, os.path.join(args.outdir, "solution.vtk"))
            if args.emit_audit:
                checks = audit_dmp(report, mesh, ops, problem)
                write_audit(checks, os.path.join(args.outdir, "audit.csv"))
        else:  # audit
            checks = audit_dmp(report, mesh, ops, problem)
            write_audit(checks, os.path.join(args.outdir, "audit.csv"))
            for c in checks:
                print(f"{c.name}: applicable {c.applicable} violations "
                      f"{c.violations} max {c.max_violation:.3e}")

        print(f"{problem.name}: grid {args.grid} level {args.level} "
              f"ndof {mesh.num_vertices} iterations {report.iterations} "
              f"residual {report.residual_history[-1]:.3e} "
              f"converged {report.converged}")
        return 0
    except (ValueError, OSError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))
