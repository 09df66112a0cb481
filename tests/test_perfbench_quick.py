"""Smoke test of the benchmark harness in perfbench/.

Runs its quick self-check (every workload at levels <= 3, untraced and
traced, with its correctness checks) and checks no timing.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_quick_self_check():
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--quick"],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "quick self-check: PASS" in proc.stdout
