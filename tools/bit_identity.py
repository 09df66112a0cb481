"""Check that the working tree gives byte-identical results to a revision.

    python3 tools/bit_identity.py --base REV

exports REV with ``git archive`` into a temporary directory and runs the
identity set below in that export and in this working tree, each in its own
process with ``PYTHONPATH`` set to the tree's ``src``:

* solves, compared on the bytes of ``u`` and ``residual_history`` and on
  ``iterations``, ``converged``, ``restarts`` and ``bound_check``; among
  them the zero-sweep solve from the exact ramp that the level-8 benchmark
  workload runs, here at grid 2, level 6;
* CLI runs through ``cdrfem.cli.run``, compared on every file they write
  and on stdout: the criterion-8 ladder at levels 3:5 (the ``ladder-cc``
  benchmark workload), two single-level ``solve`` runs, one with an exact
  solution and one without, and one ``audit`` run;
* the stdout of every script in ``demos/``, each run from an empty
  directory;
* ``problem fields``: the bytes, dtype and shape of every field of every
  problem in ``PROBLEMS`` (both velocity components, reaction, source,
  Dirichlet data and, where set, the exact solution) at the vertices and
  at the cell-edge midpoints of both grids at level 3, and at one scalar
  point;
* ``edge states``: the bytes of every array field of ``EdgeState``, and of
  ``alpha`` and ``ubar_s_star``, of one ``edge_state`` call per limiter
  (galerkin, mc, wmc full and simplified) at two seeded random iterates of
  every problem on both grids at level 3;
* ``Gauss-Seidel corrections``: the bytes of ``_GaussSeidel.correction(r)``
  for a residual with +0 and -0 entries, its negation, +0 and -0, on the
  meshes of ``test_correction_bits_match_untrimmed_sweep``; against a
  revision with another sweep this case, the solves, the CLI runs and the
  demos that iterate differ by design;
* ``set-up arrays``: the bytes, dtype and shape of ``h``, ``cell_areas``,
  ``cell_grads``, every ``EdgeTable`` field and ``mirror_cells`` of the
  classified mesh, of both ``LimiterContext.grad_incr`` arrays and of every
  array of its ``Operators``, for every problem on both grids at level 5;
* ``output path``: the bytes ``cli.write_vtk`` writes, the ``.hex()`` of
  both ``error_norms`` and the rows of ``audit_dmp`` (its floats as
  ``.hex()``), for the zero-sweep solve from the exact ramp at grid 2,
  level 6 (as the level-8 benchmark workload runs it) and for a seeded
  generic iterate on the same mesh: the ramp plus noise of 1e-12 to 1,
  with some entries +0 and -0.

It prints one ``equal`` or ``different`` line per case and exits 1 if any
case differs.  ``REV`` must be commit d6fa896 or later, which builds
``LimiterContext(ops)`` from the operators alone, stores ``cell_grads`` and
``cell_edges`` in the row layout (3, 2, c) and (6, c), and reports
``SolveReport.restarts``.  The set takes about 10 s on a 2-vCPU machine.
"""

import argparse
import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

# name -> (problem, grid, level, SolveOptions keywords); the initial guess
# "exact" stands for the exact solution at the nodes
SOLVES = {
    "equilibrium g1 L7": ("equilibrium", 1, 7, {}),
    "equilibrium g2 L5 simplified":
        ("equilibrium", 2, 5, {"wb_variant": "simplified"}),
    "equilibrium g2 L6 from the ramp check_bounds":
        ("equilibrium", 2, 6, {"initial_guess": "exact",
                               "check_bounds": True}),
    "mc boundary-layers g2 L5": ("boundary-layers", 2, 5, {"limiter": "mc"}),
    "galerkin interior-layers g2 L4":
        ("interior-layers", 2, 4, {"limiter": "galerkin"}),
    "circular-layers g1 L5 tail mean":
        ("circular-layers", 1, 5,
         {"damping": 0.25, "max_iter": 600, "tail_average": 200}),
    "boundary-layers g1 L4 check_bounds":
        ("boundary-layers", 1, 4, {"check_bounds": True}),
}

# (problem, grid, level) of the ``Gauss-Seidel corrections`` case
GS_MESHES = [("circular-layers", 1, 4), ("circular-layers", 2, 4),
             ("equilibrium", 1, 4), ("equilibrium", 2, 4),
             ("interior-layers", 1, 1)]

# name -> CLI arguments without --outdir
CLI_RUNS = {
    "ladder-cc CLI levels 3:5":
        ["convergence", "--problem", "circular-convection", "--grid", "1",
         "--damping", "0.0625", "--max-iter", "16384", "--tail-average",
         "9216", "--warm-start", "--emit-vtk", "--levels", "3:5"],
    "CLI solve boundary-layers L4":
        ["solve", "--problem", "boundary-layers", "--level", "4",
         "--emit-audit"],
    "CLI solve interior-layers g2 L3":
        ["solve", "--problem", "interior-layers", "--grid", "2", "--level",
         "3", "--damping", "0.5", "--emit-audit"],
    "CLI audit circular-layers L4":
        ["audit", "--problem", "circular-layers", "--level", "4",
         "--damping", "0.5"],
}


def _field_points():
    """name -> (x, y): the point sets of the ``problem fields`` case."""
    from cdrfem import build_level0, refine

    points = {"scalar": (0.3, 0.7)}
    for grid in (1, 2):
        mesh = build_level0(grid)
        for _ in range(3):
            mesh = refine(mesh)
        x = mesh.vertices
        p = x[mesh.cells]
        mid = 0.5 * (p + np.roll(p, -1, axis=1))
        points[f"g{grid} L3 vertices"] = (x[:, 0], x[:, 1])
        points[f"g{grid} L3 edge midpoints"] = (mid[:, :, 0], mid[:, :, 1])
    return points


def _classified(problem, grid, level):
    from cdrfem import build_level0, classify_and_order, refine

    mesh = build_level0(grid)
    for _ in range(level):
        mesh = refine(mesh)
    return classify_and_order(mesh, problem)


def _edge_state_bytes(problem, grid):
    """The bytes of the ``edge states`` case for one problem and grid."""
    from cdrfem import assemble
    from cdrfem.limiter import LimiterContext, edge_state

    mesh = _classified(problem, grid, 3)
    ctx = LimiterContext(assemble(mesh, problem))
    rng = np.random.default_rng(grid)
    xd = mesh.vertices[mesh.num_free:]
    chunks = []
    for k in range(2):
        u = rng.standard_normal(mesh.num_vertices)
        u[mesh.num_free:] = problem.dirichlet(xd[:, 0], xd[:, 1])
        for limiter, variant in (("galerkin", "full"), ("mc", "full"),
                                 ("wmc", "full"), ("wmc", "simplified")):
            state = edge_state(ctx, u, limiter, variant)
            names = [f.name for f in dataclasses.fields(state)]
            for name in names + ["alpha", "ubar_s_star"]:
                value = getattr(state, name)
                if isinstance(value, np.ndarray):
                    chunks.append(f"{k} {limiter} {variant} {name} "
                                  f"{value.dtype} {value.shape}\n".encode()
                                  + value.tobytes())
    return b"".join(chunks)


def _setup_array_bytes(problem, grid):
    """The bytes of the ``set-up arrays`` case for one problem and grid."""
    from cdrfem import assemble
    from cdrfem.limiter import LimiterContext

    mesh = _classified(problem, grid, 5)
    ops = assemble(mesh, problem)
    vertex, weight = LimiterContext(ops).grad_incr
    arrays = {"h": np.float64(mesh.h), "cell_areas": mesh.cell_areas,
              "cell_grads": mesh.cell_grads}
    arrays.update((f"edges.{name}", value)
                  for name, value in mesh.edges._asdict().items())
    arrays.update({"mirror_cells": mesh.mirror_cells,
                   "grad_incr vertex": vertex, "grad_incr weight": weight})
    arrays.update((f"ops.{name}", value) for name, value in vars(ops).items()
                  if isinstance(value, np.ndarray))
    return b"".join(f"{name} {value.dtype} {value.shape}\n".encode()
                    + value.tobytes() for name, value in arrays.items())


def _output_path(path):
    """Write the files of the ``output path`` case into ``path``."""
    import cdrfem.cli
    from cdrfem import (PROBLEMS, SolveOptions, assemble, audit_dmp,
                        error_norms, solve)

    problem = PROBLEMS["equilibrium"]()
    mesh = _classified(problem, 2, 6)
    ops = assemble(mesh, problem)
    ramp = mesh.vertices[:, 0].copy()
    report = solve(mesh, problem,
                   SolveOptions(wb_variant="full", initial_guess=ramp),
                   ops=ops)
    rng = np.random.default_rng(26)
    generic = ramp + rng.standard_normal(ramp.size) * 10.0 ** rng.integers(
        -12, 1, ramp.size)
    pick = rng.random(generic.size)
    generic[pick < 0.05] = 0.0
    generic[pick > 0.95] = -0.0
    for label, u in (("ramp", report.u), ("generic", generic)):
        cdrfem.cli.write_vtk(mesh, u, path / f"{label}.vtk")
        norms = error_norms(mesh, u, problem.exact)
        checks = audit_dmp(dataclasses.replace(report, u=u), mesh, ops,
                           problem)
        rows = [" ".join(e.hex() for e in norms)]
        rows += [f"{c.name},{c.applicable},{c.violations},"
                 f"{float(c.max_violation).hex()}" for c in checks]
        (path / f"{label}.txt").write_text("\n".join(rows) + "\n")


def _case_dir(out, name):
    path = Path(out, name)
    path.mkdir(parents=True)
    return path


def collect(tree, out):
    """Run the identity set with the cdrfem on ``sys.path``; one directory
    of result files per case under ``out``."""
    import cdrfem.cli
    from cdrfem import PROBLEMS, SolveOptions, assemble, solve
    from cdrfem.solver import _GaussSeidel

    for name, (pname, grid, level, kwargs) in SOLVES.items():
        problem = PROBLEMS[pname]()
        mesh = _classified(problem, grid, level)
        if kwargs.get("initial_guess") == "exact":
            x = mesh.vertices
            kwargs = dict(kwargs,
                          initial_guess=problem.exact(x[:, 0], x[:, 1]))
        path = _case_dir(out, name)
        try:
            rep = solve(mesh, problem, SolveOptions(**kwargs))
        except Exception as err:  # a raising solve is a result to compare
            (path / "error.txt").write_text(f"{type(err).__name__}: {err}\n")
            continue
        (path / "u.bin").write_bytes(rep.u.tobytes())
        (path / "residual_history.bin").write_bytes(
            rep.residual_history.tobytes())
        scalars = {"iterations": rep.iterations,
                   "converged": bool(rep.converged),
                   "restarts": rep.restarts,
                   "bound_check": rep.bound_check}
        (path / "scalars.json").write_text(json.dumps(scalars, indent=1))

    for name, argv in CLI_RUNS.items():
        path = _case_dir(out, name)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cdrfem.cli.run(argv + ["--outdir", str(path)])
        (path / "stdout.txt").write_text(f"exit {code}\n" + stdout.getvalue())

    path = _case_dir(out, "problem fields")
    points = _field_points()
    for pname, factory in PROBLEMS.items():
        problem = factory()
        chunks = []
        for label, (x, y) in points.items():
            for fname in ("velocity", "reaction", "source", "dirichlet",
                          "exact"):
                field = getattr(problem, fname)
                if field is None:
                    continue
                values = field(x, y)
                for v in values if fname == "velocity" else (values,):
                    v = np.asarray(v)
                    chunks.append(f"{label} {fname} {v.dtype} {v.shape}\n"
                                  .encode() + v.tobytes())
        (path / f"{pname}.bin").write_bytes(b"".join(chunks))

    path = _case_dir(out, "edge states")
    for pname, factory in PROBLEMS.items():
        for grid in (1, 2):
            (path / f"{pname} g{grid}.bin").write_bytes(
                _edge_state_bytes(factory(), grid))

    path = _case_dir(out, "set-up arrays")
    for pname, factory in PROBLEMS.items():
        for grid in (1, 2):
            (path / f"{pname} g{grid}.bin").write_bytes(
                _setup_array_bytes(factory(), grid))

    _output_path(_case_dir(out, "output path"))

    path = _case_dir(out, "Gauss-Seidel corrections")
    for pname, grid, level in GS_MESHES:
        problem = PROBLEMS[pname]()
        mesh = _classified(problem, grid, level)
        gs = _GaussSeidel(assemble(mesh, problem))
        rng = np.random.default_rng(11)
        r = rng.standard_normal(mesh.num_free)
        pick = rng.random(r.size)
        r[pick < 0.1] = 0.0
        r[pick > 0.9] = -0.0
        rhs = (r, -r, np.zeros_like(r), np.full_like(r, -0.0))
        (path / f"{pname} g{grid} L{level}.bin").write_bytes(
            b"".join(gs.correction(x).tobytes() for x in rhs))

    env = dict(os.environ, PYTHONPATH=str(Path(tree, "src")))
    for script in sorted(Path(tree, "demos").glob("*.py")):
        path = _case_dir(out, f"demo {script.name}")
        with tempfile.TemporaryDirectory() as cwd:
            proc = subprocess.run([sys.executable, str(script)], cwd=cwd,
                                  env=env, capture_output=True, text=True)
        (path / "stdout.txt").write_text(
            f"exit {proc.returncode}\n" + proc.stdout)


def _export(rev, dest):
    git = ["git", "-C", str(ROOT)]
    if subprocess.run(git + ["rev-parse", "--verify", "--quiet",
                             f"{rev}^{{commit}}"],
                      capture_output=True).returncode:
        raise SystemExit(f"not a revision: {rev}")
    archive = subprocess.run(git + ["archive", rev], capture_output=True,
                             check=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout,
                   check=True)


def _files(case):
    return {p.name: p.read_bytes() for p in case.iterdir()} if case else {}


def _detail(case):
    scalars = case / "scalars.json" if case else None
    if scalars is None or not scalars.exists():
        return ""
    s = json.loads(scalars.read_text())
    return (f" ({s['iterations']} sweeps, converged {s['converged']}, "
            f"restarts {s['restarts']})")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True,
                        help="git revision to compare the working tree with")
    parser.add_argument("--collect", nargs=2, metavar=("TREE", "OUT"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.collect:
        collect(*args.collect)
        return 0

    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp, "base")
        base.mkdir()
        _export(args.base, base)
        outs, procs = {}, []
        for label, tree in (("base", base), ("tree", ROOT)):
            outs[label] = Path(tmp, f"out-{label}")
            env = dict(os.environ, PYTHONPATH=str(Path(tree, "src")))
            procs.append(subprocess.Popen(
                [sys.executable, __file__, "--base", args.base, "--collect",
                 str(tree), str(outs[label])], env=env))
        if any([p.wait() for p in procs]):
            print("a collecting process failed", file=sys.stderr)
            return 1

        cases = {}
        for label, out in outs.items():
            for case in out.iterdir():
                cases.setdefault(case.name, {})[label] = case
        differ = 0
        for name in sorted(cases):
            pair = cases[name]
            a, b = _files(pair.get("base")), _files(pair.get("tree"))
            bad = sorted(k for k in a.keys() | b.keys()
                         if a.get(k) != b.get(k))
            differ += bool(bad)
            verdict = f"different {bad}" if bad else "equal"
            print(f"{verdict:10} {name}{_detail(pair.get('tree'))}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
