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

from .benchmarks import PROBLEMS, convergence_study
from .limiter import LIMITERS, VARIANTS
from .mesh import _row_blocks
from .solver import SolveOptions, audit_dmp

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


def _float_table(values):
    """(table, index): the ``%.17g`` texts of the distinct bit patterns of
    the float array ``values`` as a zero-padded ``S`` array, and the row of
    every value in it, in the shape of ``values``.  Comparing bits keeps
    -0.0 apart from +0.0, and NaNs of different payloads apart."""
    bits, index = np.unique(values.view(np.int64), return_inverse=True)
    floats = bits.view(np.float64).tolist()
    text = ("%.17g\n" * len(floats) % tuple(floats)).encode()
    return np.array(text.split(), dtype="S"), index.reshape(values.shape)


def _index_table(n):
    """The decimal texts of 0 .. n-1 as a zero-padded ``S`` array."""
    width = len(str(max(n - 1, 0)))
    v = np.arange(n)[:, None]
    power = 10 ** np.arange(width - 1, -1, -1)
    digits = (v // power % 10 + ord("0")).astype(np.uint8)
    lead = v < power
    lead[:, -1] = False
    digits[lead] = 0
    return digits.view(f"S{width}").ravel()


def _write_table_rows(out, pieces, num_rows):
    """Write ``num_rows`` text rows to the binary file ``out``, a block of
    rows at a time.  Row r joins ``pieces`` in order: a bytes literal as it
    is, a pair (table, index) as the text ``table[index[r]]``; the zero
    padding of the ``S`` tables is dropped."""
    for blk in _row_blocks(num_rows):
        size = len(range(num_rows)[blk])
        rows = np.concatenate(
            [np.broadcast_to(np.frombuffer(p, np.uint8), (size, len(p)))
             if isinstance(p, bytes) else
             p[0][p[1][blk]].view(np.uint8).reshape(size, -1)
             for p in pieces], axis=1)
        out.write(rows[rows != 0])


def write_vtk(mesh, u, path):
    """Legacy ASCII VTK unstructured grid with one point scalar field."""
    u = np.asarray(u, dtype=float)
    if u.shape != (mesh.num_vertices,):
        raise ValueError(f"expected {mesh.num_vertices} nodal values")
    n, c = mesh.num_vertices, mesh.num_cells
    with open(path, "wb") as out:
        out.write(b"# vtk DataFile Version 2.0\ncdrfem solution\n"
                  b"ASCII\nDATASET UNSTRUCTURED_GRID\n")
        out.write(f"POINTS {n} double\n".encode())
        table, index = _float_table(mesh.vertices)
        _write_table_rows(out, [(table, index[:, 0]), b" ",
                                (table, index[:, 1]), b" 0\n"], n)
        out.write(f"CELLS {c} {4 * c}\n".encode())
        table, cells = _index_table(n), mesh.cells
        _write_table_rows(out, [b"3 ", (table, cells[:, 0]), b" ",
                                (table, cells[:, 1]), b" ",
                                (table, cells[:, 2]), b"\n"], c)
        out.write(f"CELL_TYPES {c}\n".encode())
        out.write(b"5\n" * c)
        out.write(f"POINT_DATA {n}\n".encode())
        out.write(b"SCALARS u double 1\nLOOKUP_TABLE default\n")
        table, index = _float_table(u)
        _write_table_rows(out, [(table, index), b"\n"], n)


def write_audit(checks, path):
    with open(path, "w") as out:
        out.write("check,applicable,violations,max_violation\n")
        for c in checks:
            out.write(f"{c.name},{c.applicable},{c.violations},"
                      f"{c.max_violation:.17g}\n")


def _parse_level(text):
    level = int(text)
    if level < 0:
        raise argparse.ArgumentTypeError("levels must be nonnegative")
    return level


def _parse_levels(text):
    lo, sep, hi = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError("levels must be given as LO:HI")
    lo, hi = _parse_level(lo), _parse_level(hi)
    if hi < lo:
        raise argparse.ArgumentTypeError("levels must satisfy LO <= HI")
    return list(range(lo, hi + 1))


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="cdrfem",
        description="Flux-corrected P1 solver for steady "
                    "convection-diffusion-reaction problems")
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = SolveOptions()

    def common(p, levels=False):
        p.add_argument("--problem", required=True, choices=sorted(PROBLEMS))
        p.add_argument("--grid", type=int, default=1, choices=(1, 2))
        if levels:
            p.add_argument("--levels", type=_parse_levels, required=True,
                           metavar="LO:HI")
        else:
            p.add_argument("--level", type=_parse_level, default=4)
        p.add_argument("--limiter", default=defaults.limiter,
                       choices=LIMITERS)
        p.add_argument("--wb-variant", default=defaults.wb_variant,
                       choices=VARIANTS)
        p.add_argument("--epsilon", type=float, default=None,
                       help="override the problem's diffusion coefficient")
        p.add_argument("--tol", type=float, default=defaults.tol)
        p.add_argument("--max-iter", type=int, default=defaults.max_iter)
        p.add_argument("--damping", type=float, default=defaults.damping,
                       help="damping beta in (0, 1] of the steps without "
                            "mixing history (the first and each after a "
                            "restart), the step u + beta f with f the "
                            "Gauss-Seidel-preconditioned correction; "
                            "Anderson steps with history are undamped")
        p.add_argument("--tail-average", type=int,
                       default=defaults.tail_average,
                       help="when max-iter is exhausted, return the mean of "
                            "the last N sweeps (tames limiter limit cycles; "
                            "the mean has no bound guarantee)")
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
    return factory(epsilon=args.epsilon)


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
                write_vtk(finest.ops.mesh, finest.report.u,
                          os.path.join(args.outdir, "solution.vtk"))
            for r in records:
                print(f"level {r.level}: ndof {r.ndof} iterations "
                      f"{r.iterations} converged {r.converged}")
            return 0

        [record] = convergence_study(problem, args.grid, [args.level],
                                     options)
        mesh, ops, report = record.ops.mesh, record.ops, record.report

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


if __name__ == "__main__":
    main()
