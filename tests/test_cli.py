import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cdrfem
from cdrfem import PROBLEMS, SolveOptions, convergence_study, error_norms
from cdrfem.cli import (CSV_HEADER, _build_parser, _options, run, write_csv,
                        write_vtk)
from cases import classified
from oracles import write_vtk_by_scalar


def lines_of(path):
    return path.read_text().splitlines()


def test_solve_writes_report_and_field(tmp_path):
    code = run(["solve", "--problem", "equilibrium", "--level", "2",
                "--outdir", str(tmp_path)])
    assert code == 0
    report = lines_of(tmp_path / "report.csv")
    assert report[0] == CSV_HEADER
    assert len(report) == 2
    row = report[1].split(",")
    assert row[0] == "2"
    ndof = int(row[1])
    assert row[4] == "" and row[6] == ""       # single level has no orders
    assert row[8] == "True"

    vtk = lines_of(tmp_path / "solution.vtk")
    assert vtk[0] == "# vtk DataFile Version 2.0"
    assert vtk[2] == "ASCII"
    assert vtk[3] == "DATASET UNSTRUCTURED_GRID"
    assert vtk[4] == f"POINTS {ndof} double"
    k = 5 + ndof
    ncell, size = vtk[k].split()[1:]
    assert int(size) == 4 * int(ncell)
    for ln in vtk[k + 1:k + 1 + int(ncell)]:
        parts = ln.split()
        assert parts[0] == "3"
        assert all(0 <= int(t) < ndof for t in parts[1:])
    k2 = k + 1 + int(ncell)
    assert vtk[k2] == f"CELL_TYPES {ncell}"
    assert set(vtk[k2 + 1:k2 + 1 + int(ncell)]) == {"5"}
    k3 = k2 + 1 + int(ncell)
    assert vtk[k3] == f"POINT_DATA {ndof}"
    assert vtk[k3 + 1] == "SCALARS u double 1"
    assert vtk[k3 + 2] == "LOOKUP_TABLE default"
    values = [float(t) for t in vtk[k3 + 3:]]
    assert len(values) == ndof and np.all(np.isfinite(values))


@pytest.mark.parametrize("grid_id, block_rows", [
    pytest.param(1, None, id="1"), pytest.param(2, None, id="2"),
    # points, cells and values span several blocks of rows and end on a
    # partial one
    pytest.param(1, 7, id="1-chunk7"), pytest.param(2, 7, id="2-chunk7"),
])
def test_write_vtk_matches_scalar_writer(tmp_path, monkeypatch, grid_id,
                                         block_rows):
    if block_rows is not None:
        monkeypatch.setattr("cdrfem.mesh._BLOCK_ROWS", block_rows)
    mesh = classified(PROBLEMS["boundary-layers"](), grid_id, 3)
    rng = np.random.default_rng(grid_id)
    u = rng.standard_normal(mesh.num_vertices) * 10.0 ** rng.integers(
        -30, 30, mesh.num_vertices)
    # NaNs with the sign bit and with another payload than np.nan's
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000,
                     0x7FF8000000000001], dtype=np.uint64).view(np.float64)
    special = [-0.0, 0.0, 5e-324, -2.5e-310, 1.0, -3.0, 2.0 ** 60, 1e22, 0.1,
               -1.0 / 3.0, np.inf, -np.inf, *nans]
    u[:len(special)] = special
    u[-len(special):] = special
    write_vtk(mesh, u, tmp_path / "new.vtk")
    write_vtk_by_scalar(mesh, u, tmp_path / "old.vtk")
    assert (tmp_path / "new.vtk").read_bytes() == \
        (tmp_path / "old.vtk").read_bytes()


def test_write_vtk_rejects_wrong_shape(tmp_path):
    mesh = classified(PROBLEMS["equilibrium"](), 1, 2)
    n = mesh.num_vertices
    for u in (np.zeros(n + 50), np.zeros(n - 1), np.zeros((n, 1))):
        with pytest.raises(ValueError, match=f"expected {n} nodal values"):
            write_vtk(mesh, u, tmp_path / "u.vtk")
    assert not (tmp_path / "u.vtk").exists()


def test_usage_errors_exit_one(tmp_path, capsys):
    assert run(["solve", "--problem", "no-such-problem"]) == 1
    assert run(["solve", "--problem", "equilibrium", "--no-such-flag"]) == 1
    assert run(["frobnicate"]) == 1
    assert run(["convergence", "--problem", "equilibrium",
                "--levels", "3"]) == 1          # must be LO:HI
    assert run(["convergence", "--problem", "equilibrium",
                "--levels", "4:2"]) == 1
    outdir = tmp_path / "out"
    for command in ("solve", "audit"):
        assert run([command, "--problem", "equilibrium", "--level", "-1",
                    "--outdir", str(outdir)]) == 1
        assert not outdir.exists()           # rejected before any work
    capsys.readouterr()


def test_module_entry_point_runs(tmp_path):
    src = Path(cdrfem.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "cdrfem.cli", "solve",
                           "--problem", "equilibrium", "--level", "2",
                           "--outdir", str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert lines_of(tmp_path / "report.csv")[0] == CSV_HEADER


def test_epsilon_override_rules(tmp_path, capsys):
    outdir = tmp_path / "out"
    assert run(["solve", "--problem", "circular-convection",
                "--epsilon", "1e-6", "--outdir", str(outdir)]) == 1
    for eps in ("-1.0", "nan", "inf"):
        assert run(["solve", "--problem", "circular-layers", "--epsilon", eps,
                    "--outdir", str(outdir)]) == 1
        assert "error:" in capsys.readouterr().err
    assert not outdir.exists()
    code = run(["solve", "--problem", "circular-layers", "--epsilon", "1e-6",
                "--level", "2", "--damping", "0.5", "--max-iter", "4000",
                "--outdir", str(tmp_path)])
    assert code == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_runtime_failures_exit_two(tmp_path, capsys, growing_map):
    blocker = tmp_path / "file"
    blocker.write_text("occupied")
    code = run(["solve", "--problem", "equilibrium", "--level", "1",
                "--outdir", str(blocker / "sub")])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    # a map whose residual grows by construction trips the growth guard
    code = run(["solve", "--problem", "equilibrium", "--limiter",
                "galerkin", "--level", "3", "--outdir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err
    sweeps = int(re.search(r"diverged after (\d+) sweeps", err).group(1))
    assert sweeps < 1000


def test_convergence_report_and_determinism(tmp_path, capsys):
    args = ["convergence", "--problem", "circular-convection",
            "--levels", "1:3", "--damping", "0.25", "--max-iter", "6000",
            "--warm-start"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(args + ["--outdir", str(out_a)]) == 0
    assert run(args + ["--outdir", str(out_b)]) == 0
    text_a = (out_a / "report.csv").read_bytes()
    assert text_a == (out_b / "report.csv").read_bytes()

    rows = lines_of(out_a / "report.csv")
    assert rows[0] == CSV_HEADER
    assert len(rows) == 4
    first = rows[1].split(",")
    assert first[4] == "" and first[6] == ""
    later = rows[2].split(",")
    assert float(later[4]) != 0.0 and float(later[6]) != 0.0
    for row in rows[1:]:
        assert row.split(",")[8] == "True"
    assert "level 3" in capsys.readouterr().out


def test_convergence_emit_vtk(tmp_path):
    code = run(["convergence", "--problem", "equilibrium", "--levels", "1:2",
                "--emit-vtk", "--outdir", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "report.csv").exists()
    assert (tmp_path / "solution.vtk").exists()


def read_vtk_field(path):
    lines = path.read_text().splitlines()
    npts = int(lines[4].split()[1])
    points = np.array([[float(t) for t in ln.split()[:2]]
                       for ln in lines[5:5 + npts]])
    k = lines.index(f"POINT_DATA {npts}")
    values = np.array([float(t) for t in lines[k + 3:k + 3 + npts]])
    return points, values


def test_emit_vtk_writes_the_reported_iterate(tmp_path, capsys):
    # the finest level stops at max-iter from a warm start, so only the
    # study's own iterate reproduces the errors in its table
    code = run(["convergence", "--problem", "circular-convection",
                "--levels", "1:2", "--damping", "0.5", "--max-iter", "15",
                "--warm-start", "--emit-vtk", "--outdir", str(tmp_path)])
    assert code == 0
    capsys.readouterr()
    finest = lines_of(tmp_path / "report.csv")[-1].split(",")
    assert finest[0] == "2" and finest[8] == "False"

    problem = PROBLEMS["circular-convection"]()
    mesh = classified(problem, 1, 2)
    points, u = read_vtk_field(tmp_path / "solution.vtk")
    assert np.array_equal(points, mesh.vertices)
    l1, l2 = error_norms(mesh, u, problem.exact)
    assert f"{l2:.17g}" == finest[3]
    assert f"{l1:.17g}" == finest[5]


@pytest.mark.parametrize("flags", [
    ["--damping", "0"], ["--damping", "1.5"], ["--max-iter", "-1"],
    ["--tol", "0"], ["--tol=-1e-8"], ["--tol", "1e400"],
    ["--tail-average", "-1"],
    ["--max-iter", "10", "--tail-average", "11"],
], ids=" ".join)
def test_invalid_options_exit_one(tmp_path, capsys, flags):
    outdir = tmp_path / "out"
    for command in (["solve", "--level", "1"], ["convergence", "--levels", "1:2"]):
        code = run(command + ["--problem", "equilibrium",
                              "--outdir", str(outdir)] + flags)
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not outdir.exists()           # rejected before any work


def test_audit_subcommand(tmp_path, capsys):
    code = run(["audit", "--problem", "interior-layers", "--level", "3",
                "--damping", "0.5", "--max-iter", "4000",
                "--outdir", str(tmp_path)])
    assert code == 0
    rows = lines_of(tmp_path / "audit.csv")
    assert rows[0] == "check,applicable,violations,max_violation"
    assert len(rows) == 10
    names = [r.split(",")[0] for r in rows[1:]]
    assert "positivity" in names and "local_max_truncated" in names
    for r in rows[1:]:
        _, applicable, violations, worst = r.split(",")
        assert applicable in ("True", "False")
        assert int(violations) >= 0
        assert np.isfinite(float(worst))
    assert "positivity" in capsys.readouterr().out


def test_solve_report_is_a_one_level_study(tmp_path, capsys):
    args = ["--problem", "boundary-layers", "--level", "3"]
    assert run(["solve"] + args + ["--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    [rec] = convergence_study(PROBLEMS["boundary-layers"](), 1, [3],
                              SolveOptions())
    write_csv([rec], tmp_path / "study.csv")
    assert (tmp_path / "report.csv").read_bytes() == \
        (tmp_path / "study.csv").read_bytes()


def test_solve_emit_audit_writes_both(tmp_path):
    code = run(["solve", "--problem", "equilibrium", "--level", "2",
                "--emit-audit", "--outdir", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "report.csv").exists()
    assert (tmp_path / "solution.vtk").exists()
    assert (tmp_path / "audit.csv").exists()


def test_nonconverged_solve_still_succeeds(tmp_path, capsys):
    code = run(["solve", "--problem", "circular-convection", "--level", "3",
                "--max-iter", "20", "--damping", "0.5",
                "--outdir", str(tmp_path)])
    assert code == 0
    row = lines_of(tmp_path / "report.csv")[1]
    assert row.split(",")[8] == "False"
    assert "converged False" in capsys.readouterr().out


def test_option_defaults_are_solve_options_defaults():
    args = _build_parser().parse_args(["solve", "--problem", "equilibrium"])
    assert _options(args) == SolveOptions()
