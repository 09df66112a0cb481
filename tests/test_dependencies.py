"""The package imports no third-party library but those pyproject.toml lists,
and NumPy is the only one."""

import ast
import re
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
