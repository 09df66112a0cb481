"""Benchmark of cdrfem: wall time, set-up time and peak memory per workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ladder-cc --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload ladder-cc --seed 0 --seconds 20 --trace 1
    python3 perfbench/run.py --quick

``--trace 0`` measures whole rounds of the workload until ``--seconds`` have
passed (at least one), each round in a fresh single-threaded process, then
set-up-only rounds until there are three set-up times.  It prints the
medians of ``wall_s``, ``setup_s`` and ``peak_rss_mib``.
``--trace 1`` runs one untraced and one traced round and prints the
per-layer metrics of the traced round and the difference of their wall times
as ``trace.overhead_s``.  ``--quick`` runs every workload, untraced and
traced, at levels up to 3 with the same correctness checks and no timings.

The workloads draw no random numbers; ``--seed`` is accepted and recorded
but changes nothing.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Each
run also writes ``perfbench/out/<workload>/run.json`` with the machine, the
library versions, every round and the size of every solve.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracer import PER_LAYER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("ladder-cc", "equilibrium-l7", "wellbalanced-l8")
# set-up times per measured run: one from each full round, topped up with
# set-up-only rounds
SETUP_SAMPLES = 3
# a run must end within 180 s; leave room for the last round's checks
DEADLINE_S = 170.0


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _child_env():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONHASHSEED="0")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(workload, mode, outdir, deadline, quick=False):
    """One round in a fresh process; returns the worker's result."""
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--mode", mode, "--outdir", str(outdir)] + (["--quick"] * quick)
    try:
        proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=max(deadline - perf_counter(), 1.0))
    except subprocess.TimeoutExpired as err:
        raise HarnessError(f"{workload} {mode} round timed out") from err
    result = outdir / "result.json"
    if proc.returncode != 0 or not result.is_file():
        raise HarnessError(f"{workload} {mode} round exited with "
                           f"{proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(result.read_text())


def _machine():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": model, "platform": platform.platform()}


def _tally(rounds):
    ops = [op for r in rounds for op in r["ops"]]
    failed = [op for op in ops if not op["ok"]]
    return len(ops), failed


def measure(workload, seconds, deadline):
    wd = OUT / workload
    rounds = []
    start = perf_counter()
    while not rounds or perf_counter() - start < seconds:
        rounds.append(spawn(workload, "run", wd / "round", deadline))
    setups = [r["setup_s"] for r in rounds]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, "setup", wd / "setup",
                            deadline)["setup_s"])
    metrics = {
        "wall_s": (statistics.median(r["wall_s"] for r in rounds), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (statistics.median(r["peak_rss_mib"] for r in rounds),
                         "MiB"),
    }
    return rounds, metrics, {"setup_s_samples": setups}


def traced(workload, deadline):
    wd = OUT / workload
    plain = spawn(workload, "run", wd / "round", deadline)
    trace = spawn(workload, "trace", wd / "trace", deadline)
    metrics = {name: (trace["layers"][name], unit)
               for name, unit in PER_LAYER.items()}
    metrics["trace.overhead_s"] = (trace["wall_s"] - plain["wall_s"], "s")
    return [plain, trace], metrics, {"spans": str(wd / "trace" / "spans.csv")}


def quick(deadline):
    """Every workload at levels <= 3, untraced and traced: checks only."""
    ok = True
    for workload in WORKLOADS:
        for mode in ("run", "trace"):
            r = spawn(workload, mode, OUT / "quick" / workload / mode,
                      deadline, quick=True)
            attempted, failed = _tally([r])
            missing = [n for n in PER_LAYER
                       if mode == "trace" and n not in r["layers"]]
            good = not failed and not missing
            ok &= good
            print(f"{workload} {mode}: {attempted} operations, "
                  f"{len(failed)} failed{'' if good else ' -- FAIL'}")
            for op in failed:
                print(f"  {op['name']}: {op['failures']}")
            if missing:
                print(f"  missing layer metrics: {missing}")
    print(f"quick self-check: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Benchmark of cdrfem; see perfbench/README.md")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded only: the workloads draw no random "
                             "numbers")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="self-check of every workload at levels <= 3")
    args = parser.parse_args(argv)
    if not args.quick and args.workload is None:
        parser.error("--workload is required unless --quick is given")

    deadline = perf_counter() + DEADLINE_S
    if not (ROOT / "src" / "cdrfem" / "__init__.py").is_file():
        print(f"error: no cdrfem sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        if args.quick:
            return quick(deadline)
        if args.trace:
            rounds, metrics, extra = traced(args.workload, deadline)
        else:
            rounds, metrics, extra = measure(args.workload, args.seconds,
                                             deadline)
    except HarnessError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    attempted, failed = _tally(rounds)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": _machine(), "versions": rounds[0]["versions"],
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()},
              "rounds": [{k: r.get(k) for k in
                          ("wall_s", "setup_s", "peak_rss_mib", "ops",
                           "solves")} for r in rounds],
              **extra}
    path = OUT / args.workload / ("trace.json" if args.trace else "run.json")
    path.write_text(json.dumps(record, indent=1))

    machine, versions = record["machine"], record["versions"]
    print(f"{machine['nproc']} CPUs ({machine['cpu_model']}), Python "
          f"{versions['python']}, NumPy {versions['numpy']}, SciPy "
          f"{versions['scipy']}")
    for solve in rounds[0]["solves"]:
        print(f"  {solve['what']}: grid {solve['grid']} level "
              f"{solve['level']}, {solve['ndof']} dofs, "
              f"{solve['directed_edges']} directed edges")
    print(f"{args.workload}: {len(rounds)} round(s), {attempted} operations, "
          f"{len(failed)} failed; record in {path.relative_to(ROOT)}")
    for op in failed:
        print(f"  failed {op['name']}: {op['failures']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed),
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
