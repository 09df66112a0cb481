"""The package imports no third-party library but those pyproject.toml lists,
and NumPy is the only one; the CLI ladder run imports neither numpy.ma nor
SciPy."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def imported_roots(path):
    """Top-level names of every absolute import in a file, function bodies
    included."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            roots.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.partition(".")[0])
    return roots


def test_numpy_is_the_only_third_party_import():
    third = set()
    for path in sorted((ROOT / "src" / "cdrfem").glob("*.py")):
        third |= imported_roots(path)
    third -= set(sys.stdlib_module_names) | {"cdrfem"}
    assert third == {"numpy"}

    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        deps = tomllib.load(f)["project"]["dependencies"]
    assert {re.match(r"[\w.-]+", dep).group() for dep in deps} == third


# the ladder-cc benchmark workload's CLI arguments, cut to levels 2:3
LADDER_ARGV = ["convergence", "--problem", "circular-convection", "--grid",
               "1", "--damping", "0.0625", "--max-iter", "16384",
               "--tail-average", "9216", "--warm-start", "--emit-vtk",
               "--levels", "2:3"]


def test_ladder_run_imports_neither_numpy_ma_nor_scipy(tmp_path):
    # importing numpy.ma costs 9-15 ms, a few per cent of the ladder; one
    # np.unique call on this path once pulled it in
    argv = LADDER_ARGV + ["--outdir", str(tmp_path)]
    script = f"""
import contextlib, io, sys
import cdrfem.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cdrfem.cli.run({argv!r})
print(code, [m for m in ("numpy.ma", "scipy") if m in sys.modules])
"""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"
