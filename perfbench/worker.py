"""One round of one workload, in a fresh process.

``run.py`` starts this script once per round with ``PYTHONPATH`` set to the
checkout's ``src`` and one thread per numerical library.  The clock starts
before ``import cdrfem``, so every round pays the import that every CLI run
pays.  Modes:

* ``run``   -- the whole workload, then its correctness checks;
* ``trace`` -- the same with spans around the calls into cdrfem;
* ``setup`` -- only the import and the mesh/assembly calls that the workload
  makes itself, for more ``setup_s`` samples per run.

The result goes to ``<outdir>/result.json``.  An operation that raises is
recorded as failed; only a fault of this script itself leaves no result.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys
import traceback
from time import perf_counter

LADDER_ARGS = ["convergence", "--problem", "circular-convection", "--grid",
               "1", "--damping", "0.0625", "--max-iter", "16384",
               "--tail-average", "9216", "--warm-start", "--emit-vtk"]


class Round:
    """Settings and results of one round."""

    def __init__(self, args):
        self.outdir = args.outdir
        self.quick = args.quick
        self.setup_only = args.mode == "setup"
        self.tracer = None
        if args.mode == "trace":
            # imported only when tracing, so untraced rounds time the
            # import of cdrfem alone
            import tracer as tracing
            self.tracing = tracing
            self.tracer = tracing.Tracer()
        self.ops = []
        self.solves = []
        self.spans = []

    def op(self, name, failures):
        self.ops.append({"name": name, "ok": not failures,
                         "failures": failures})

    def stop(self, t0):
        """Close the timed part: wall time, peak RSS and the spans so far."""
        self.wall_s = perf_counter() - t0
        self.peak_rss_mib = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if self.tracer is not None:
            self.spans = list(self.tracer.spans)

    def install_tracer(self):
        if self.tracer is not None:
            self.tracing.install(self.tracer)


def _fault():
    return [traceback.format_exc(limit=3).strip()]


def ladder_cc(rnd):
    """The criterion-8 convergence ladder through the CLI, cut at level 5."""
    t0 = perf_counter()
    import cdrfem.cli
    rnd.setup_s = perf_counter() - t0
    if rnd.setup_only:
        return
    rnd.install_tracer()
    lo, hi = (2, 3) if rnd.quick else (3, 5)
    argv = LADDER_ARGS + ["--levels", f"{lo}:{hi}", "--outdir", rnd.outdir]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cdrfem.cli.run(argv)
        cli_fail = [] if code == 0 else [f"exit code {code}"]
    except Exception:
        cli_fail = _fault()
    rnd.stop(t0)

    import checks
    from cdrfem import mesh as M
    levels = list(range(lo, hi + 1))
    rows = []
    try:
        rows = checks.read_csv(os.path.join(rnd.outdir, "report.csv"))
        cli_fail += checks.check_ladder(
            rows, os.path.join(rnd.outdir, "solution.vtk"), levels)
    except (OSError, ValueError, KeyError, StopIteration):
        cli_fail += _fault()
    rnd.op("cli convergence", cli_fail)
    by_level = {r.get("level"): r for r in rows}
    mesh = M.build_level0(1)
    for _ in range(lo):
        mesh = M.refine(mesh)
    for lev in levels:
        row = by_level.get(str(lev), {})
        rnd.op(f"ladder level {lev}",
               [] if row.get("converged") == "True"
               else [f"level {lev}: {row or 'missing'}"])
        rnd.solves.append({"what": f"ladder level {lev}", "grid": 1,
                           "level": lev, "ndof": mesh.num_vertices,
                           "directed_edges": int(mesh.edges.i.size)})
        if lev < hi:
            mesh = M.refine(mesh)
    rnd.solves.append(dict(rnd.solves[-1], what="--emit-vtk re-solve"))


def _classified(M, problem, grid, level):
    mesh = M.build_level0(grid)
    for _ in range(level):
        mesh = M.refine(mesh)
    return M.classify_and_order(mesh, problem)


def equilibrium_l7(rnd):
    """Iterated solve of the equilibrium problem from a zero guess."""
    t0 = perf_counter()
    from cdrfem import assembly as A, benchmarks as B, mesh as M, solver as S
    rnd.install_tracer()
    level = 3 if rnd.quick else 7
    problem = B.PROBLEMS["equilibrium"]()
    mesh = _classified(M, problem, 1, level)
    ops = A.assemble(mesh, problem)
    rnd.setup_s = perf_counter() - t0
    if rnd.setup_only:
        return
    try:
        report = S.solve(mesh, problem, S.SolveOptions(), ops=ops)
        fail = []
    except Exception:
        report, fail = None, _fault()
    rnd.stop(t0)

    import checks
    if report is not None:
        # the ramp fhat (x . vhat) / |vhat|^2 with vhat = (1, 0), fhat = 1
        fail += checks.check_equilibrium(report, mesh.vertices[:, 0])
    rnd.op("solve equilibrium", fail)
    rnd.solves.append({"what": "solve", "grid": 1, "level": level,
                       "ndof": mesh.num_vertices,
                       "directed_edges": int(mesh.edges.i.size),
                       "sweeps": None if report is None
                       else report.iterations})


def _well_balanced_grid(rnd, problem, grid, level, outdir):
    from cdrfem import assembly as A, benchmarks as B, cli, solver as S
    from cdrfem import mesh as M
    ts = perf_counter()
    mesh = _classified(M, problem, grid, level)
    ops = A.assemble(mesh, problem)
    rnd.setup_s += perf_counter() - ts
    solve = {"what": "solve from the ramp", "grid": grid, "level": level,
             "ndof": mesh.num_vertices,
             "directed_edges": int(mesh.edges.i.size)}
    rnd.solves.append(solve)
    if rnd.setup_only:
        return None
    os.makedirs(outdir, exist_ok=True)
    ramp = mesh.vertices[:, 0].copy()
    options = S.SolveOptions(wb_variant="full", initial_guess=ramp)
    report = S.solve(mesh, problem, options, ops=ops)
    solve["sweeps"] = report.iterations
    audit = S.audit_dmp(report, mesh, ops, problem)
    l1, l2 = B.error_norms(mesh, report.u, problem.exact)
    record = B.ErrorRecord(level=level, ndof=mesh.num_vertices, h=mesh.h,
                           l1_error=l1, l2_error=l2, eoc_l1=None, eoc_l2=None,
                           iterations=report.iterations,
                           converged=report.converged)
    cli.write_csv([record], os.path.join(outdir, "report.csv"))
    cli.write_vtk(mesh, report.u, os.path.join(outdir, "solution.vtk"))
    cli.write_audit(audit, os.path.join(outdir, "audit.csv"))
    return report


def wellbalanced_l8(rnd):
    """The exact ramp on both grids: solve, audit, error norms, writers."""
    t0 = perf_counter()
    import cdrfem.cli
    from cdrfem import benchmarks as B
    rnd.setup_s = perf_counter() - t0
    rnd.install_tracer()
    level = 3 if rnd.quick else 8
    problem = B.PROBLEMS["equilibrium"]()
    reports = {}
    for grid in (1, 2):
        outdir = os.path.join(rnd.outdir, f"grid{grid}")
        try:
            reports[grid] = _well_balanced_grid(rnd, problem, grid, level,
                                                outdir)
        except Exception:
            reports[grid] = _fault()
    if rnd.setup_only:
        return
    rnd.stop(t0)

    import checks
    for grid, report in reports.items():
        outdir = os.path.join(rnd.outdir, f"grid{grid}")
        if isinstance(report, list):
            fail = report
        else:
            try:
                fail = checks.check_well_balanced(report, outdir)
            except (OSError, ValueError, KeyError, StopIteration):
                fail = _fault()
        rnd.op(f"grid {grid} solve, audit and write", fail)


WORKLOADS = {"ladder-cc": ladder_cc, "equilibrium-l7": equilibrium_l7,
             "wellbalanced-l8": wellbalanced_l8}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--mode", required=True,
                        choices=("run", "trace", "setup"))
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--quick", action="store_true",
                        help="levels <= 3, for the self-check")
    args = parser.parse_args()

    rnd = Round(args)
    WORKLOADS[args.workload](rnd)

    import cdrfem
    import numpy
    import scipy
    src = os.path.realpath(os.environ.get("PYTHONPATH", ""))
    if not os.path.realpath(cdrfem.__file__).startswith(src + os.sep):
        sys.exit(f"cdrfem imported from {cdrfem.__file__}, not from {src}")
    result = {"setup_s": rnd.setup_s, "ops": rnd.ops, "solves": rnd.solves,
              "versions": {"python": platform.python_version(),
                           "numpy": numpy.__version__,
                           "scipy": scipy.__version__}}
    if not rnd.setup_only:
        result.update(wall_s=rnd.wall_s, peak_rss_mib=rnd.peak_rss_mib)
    if rnd.tracer is not None:
        result["layers"] = rnd.tracing.layer_metrics(rnd.spans)
        rnd.tracing.write_spans(rnd.spans,
                                os.path.join(args.outdir, "spans.csv"))
    with open(os.path.join(args.outdir, "result.json"), "w") as out:
        json.dump(result, out)


if __name__ == "__main__":
    main()
